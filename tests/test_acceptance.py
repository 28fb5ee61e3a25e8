"""Release gate: one test per shipped guarantee.

Each test pins a user-facing promise of the package end to end, with
the tolerance it must hold and a wall-clock budget it must fit. The
test names double as the checklist; run with ``pytest -v`` to get one
pass/fail line per guarantee.
"""

import logging
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gnodeformer.autodiff import Tensor, backward
from gnodeformer.fedsim import (
    FedConfig,
    build_clients,
    comm_accounting,
    dirichlet_partition,
    fedavg,
    param_bytes,
    partition_stats,
    run_rounds,
    sample_clients,
)
from gnodeformer.graphs import (
    SbmConfig,
    build_normalized_laplacian,
    generate_sbm,
    load_dataset,
    save_dataset,
)
from gnodeformer.model import (
    RK_WEIGHTS,
    ModelConfig,
    count_parameters,
    forward,
    init_params,
    loss_and_metrics,
    rk_block,
)
from gnodeformer.optim import AdamConfig, ParamSet, init_optimizer
from gnodeformer.seeding import MASKS, derive_seed
from gnodeformer.spectral import sym_eig
from gnodeformer.training import evaluate, run_epochs, train_centralized
from tests.helpers import central_difference_grads, max_rel_err, reconstruct_basis

OPT = AdamConfig(lr=0.01)


@contextmanager
def wall_clock_budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def desk_model(**overrides):
    base = dict(
        feature_dim=16, classes=3, d=16, heads=2, layers=2, rk_order=2, hidden=64
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def homophilic():
    ds = generate_sbm(
        SbmConfig(block_sizes=(100, 100, 100), p_in=0.10, p_out=0.01, seed=0)
    )
    return ds, sym_eig(build_normalized_laplacian(ds), unit_band=True)


@pytest.fixture(scope="module")
def heterophilic():
    ds = generate_sbm(
        SbmConfig(block_sizes=(100, 100, 100), p_in=0.01, p_out=0.10, seed=0)
    )
    return ds, sym_eig(build_normalized_laplacian(ds), unit_band=True)


def test_01_spectral_invariants(homophilic, heterophilic, tmp_path):
    with wall_clock_budget(60):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            raw = rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-2, 3))
            matrix = (raw + raw.T) / 2.0
            basis = sym_eig(matrix)
            gram = basis.eigenvectors.T @ basis.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-8
            residual = np.linalg.norm(
                reconstruct_basis(basis, basis.eigenvalues) - matrix
            )
            assert residual <= 1e-8 * np.linalg.norm(matrix)

        # every dataset this suite touches, including one reloaded from disk
        stored = save_dataset(homophilic[0], tmp_path / "roundtrip")
        for ds in (homophilic[0], heterophilic[0], load_dataset(stored, 0)):
            lap = build_normalized_laplacian(ds)
            basis = sym_eig(lap, unit_band=True)
            gram = basis.eigenvectors.T @ basis.eigenvectors
            assert np.abs(gram - np.eye(ds.n)).max() <= 1e-8
            residual = np.linalg.norm(
                reconstruct_basis(basis, basis.eigenvalues) - lap
            )
            assert residual <= 1e-8 * np.linalg.norm(lap)
            assert basis.eigenvalues.min() >= -1e-6
            assert basis.eigenvalues.max() <= 2.0 + 1e-6


def test_02_rk_single_step_and_order():
    with wall_clock_budget(1.0):

        def rk_step(order, z):
            weights = Tensor(np.array([RK_WEIGHTS[order]]))
            return rk_block(Tensor(1.0), lambda t: t.scale(z), order, weights).item()

        # one step on f(z) = lambda*z against the exact stability
        # polynomials 1 + z (+ z^2/2 ... + z^4/24) at z = -0.1
        assert abs(rk_step(1, -0.1) - 0.9) <= 1e-12
        assert abs(rk_step(2, -0.1) - 0.905) <= 1e-12
        assert abs(rk_step(4, -0.1) - 0.90483750) <= 1e-12

        hs = np.array([0.1, 0.05, 0.025])
        for order, expected in ((2, 3.0), (4, 5.0)):
            errors = [abs(rk_step(order, -h) - math.exp(-h)) for h in hs]
            slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
            assert abs(slope - expected) <= 0.3, f"rk{order} slope {slope:.3f}"


def test_03_gradients_match_finite_differences():
    with wall_clock_budget(120):
        ds = generate_sbm(
            SbmConfig(block_sizes=(7, 7), p_in=0.6, p_out=0.1, feature_dim=6, seed=2)
        )
        assert ds.n <= 15
        basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
        config = ModelConfig(
            feature_dim=6, classes=2, d=4, heads=2, layers=2, rk_order=4,
            hidden=4, dropout=0.2,
        )
        params = init_params(config, seed=0)

        def compute():
            logits, _ = forward(ds, basis, config, params, dropout_seed=11)
            return loss_and_metrics(logits, ds.labels, ds.train_mask)[0]

        grads = params.like(backward(compute(), params))
        fd = central_difference_grads(compute, list(params.values()))
        for name, want in zip(params.names(), fd):
            err = max_rel_err(grads[name].data, want)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"


def test_04_single_client_federation_is_centralized():
    with wall_clock_budget(60):
        ds = generate_sbm(
            SbmConfig(block_sizes=(50, 50, 50), p_in=0.10, p_out=0.01, seed=7)
        )
        model = desk_model(dropout=0.2)
        cfg = FedConfig(
            model=model, optimizer=OPT, clients=1, rounds=3, local_epochs=2,
            fraction_fit=1.0, seed=11, threads=1,
        )
        fed_params, records, _ = run_rounds(ds, cfg)

        client = build_clients(ds, cfg)[0]
        central_params, history, _ = train_centralized(
            client.dataset, client.basis, model, cfg.optimizer,
            epochs=cfg.rounds * cfg.local_epochs, seed=cfg.seed,
        )

        for name in fed_params.names():
            fed, central = fed_params[name].data, central_params[name].data
            assert fed.tobytes() == central.tobytes(), name
        fed_losses = [r.client_epochs[0][-1].loss for r in records]
        assert fed_losses == [history[i].loss for i in (1, 3, 5)]


def test_04b_single_client_federation_is_centralized_at_dropout_0():
    # with dropout 0 both loops reuse forwards: centralized training takes
    # each step's forward from the validation pass, the client from the
    # forward that scores the received model; the trajectories still agree
    with wall_clock_budget(60):
        ds = generate_sbm(
            SbmConfig(block_sizes=(50, 50, 50), p_in=0.10, p_out=0.01, seed=7)
        )
        model = desk_model(dropout=0.0)
        cfg = FedConfig(
            model=model, optimizer=OPT, clients=1, rounds=3, local_epochs=2,
            fraction_fit=1.0, seed=11, threads=1,
        )
        fed_params, records, _ = run_rounds(ds, cfg)

        client = build_clients(ds, cfg)[0]
        central_params, history, _ = train_centralized(
            client.dataset, client.basis, model, cfg.optimizer,
            epochs=cfg.rounds * cfg.local_epochs, seed=cfg.seed,
        )

        for name in fed_params.names():
            fed, central = fed_params[name].data, central_params[name].data
            assert fed.tobytes() == central.tobytes(), name
        fed_losses = [r.client_epochs[0][-1].loss for r in records]
        assert fed_losses == [history[i].loss for i in (1, 3, 5)]
        test_loss, test_accuracy, _ = evaluate(
            client.dataset, client.basis, model, central_params, client.dataset.test_mask
        )
        assert (records[-1].global_loss, records[-1].global_accuracy) == (
            test_loss, test_accuracy
        )


def test_05_fedavg_arithmetic_and_sampling():
    with wall_clock_budget(1.0):
        a = ParamSet({"w": Tensor(np.array([[1.0]]))})
        b = ParamSet({"w": Tensor(np.array([[3.0]]))})
        assert fedavg([a, b], [1, 3])["w"].data[0, 0] == 2.5

        for clients in (1, 2, 3, 5, 8, 10):
            for fraction in (0.05, 0.1, 0.3, 0.5, 0.7, 1.0):
                picked = sample_clients(clients, fraction, round_index=0, seed=0)
                assert len(picked) == math.ceil(fraction * clients)
                assert len(set(picked.tolist())) == len(picked)

        rng = np.random.default_rng(3)
        sets = [
            ParamSet({
                "w1": Tensor(rng.standard_normal((4, 3))),
                "w2": Tensor(rng.standard_normal((2, 5))),
            })
            for _ in range(3)
        ]
        merged = fedavg(sets, [17.0, 2.0, 41.0])
        for name in merged.names():
            stack = np.stack([s[name].data for s in sets])
            assert np.all(merged[name].data >= stack.min(axis=0) - 1e-12)
            assert np.all(merged[name].data <= stack.max(axis=0) + 1e-12)


def test_06_dirichlet_partition_skew(homophilic):
    with wall_clock_budget(60):
        labels = homophilic[0].labels
        logger = logging.getLogger("gnodeformer.fedsim")
        level = logger.level
        # empty-client reshuffles are routine at alpha=0.01; silence the
        # thousands of expected warnings for the duration
        logger.setLevel(logging.ERROR)
        try:
            worst = 0.0
            for seed in range(1000):
                parts = dirichlet_partition(labels, 5, 1e6, seed=seed)
                counts = partition_stats(labels, parts, 3)["counts"]
                share = counts / counts.sum(axis=1, keepdims=True)
                worst = max(worst, float(np.abs(share - 1.0 / 3.0).max()))
            assert worst <= 0.05, f"near-uniform share deviates by {worst:.3f}"

            max_share = np.mean([
                partition_stats(
                    labels, dirichlet_partition(labels, 5, 0.01, seed=s), 3
                )["max_share"].mean()
                for s in range(1000)
            ])
            assert max_share >= 0.9, f"mean dominant-class share {max_share:.3f}"

            tv = [
                float(np.mean([
                    partition_stats(
                        labels, dirichlet_partition(labels, 5, alpha, seed=s), 3
                    )["mean_tv"]
                    for s in range(1000)
                ]))
                for alpha in (0.01, 0.1, 1.0, 10.0, 100.0)
            ]
            assert all(hi >= lo for hi, lo in zip(tv, tv[1:])), tv
        finally:
            logger.setLevel(level)


def test_07_synthetic_learning(homophilic, heterophilic):
    model = desk_model()

    ds, basis = homophilic
    with wall_clock_budget(300):
        params, history, _ = train_centralized(
            ds, basis, model, OPT, epochs=200, seed=0, patience=30
        )
        assert len(history) <= 200
        _, accuracy, _ = evaluate(ds, basis, model, params, ds.test_mask)
        assert accuracy >= 0.90, f"homophilic test accuracy {accuracy:.3f}"

    ds, basis = heterophilic
    with wall_clock_budget(300):
        params, _, _ = train_centralized(
            ds, basis, model, OPT, epochs=200, seed=0, patience=30
        )
        _, accuracy, _ = evaluate(ds, basis, model, params, ds.test_mask)
        margin = accuracy - 1.0 / ds.num_classes
        assert margin >= 0.25, f"heterophilic margin over chance {margin:.3f}"


def test_08_near_iid_federation_tracks_centralized():
    with wall_clock_budget(900):
        model = desk_model()
        central, federated = [], []
        for seed in range(5):
            ds = generate_sbm(
                SbmConfig(block_sizes=(100, 100, 100), p_in=0.10, p_out=0.01,
                          seed=seed)
            )
            basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
            params, _, _ = train_centralized(ds, basis, model, OPT, epochs=100,
                                             seed=seed)
            central.append(evaluate(ds, basis, model, params, ds.test_mask)[1])

            cfg = FedConfig(
                model=model, optimizer=OPT, clients=5, alpha=100.0, rounds=20,
                local_epochs=5, fraction_fit=1.0, seed=seed,
            )
            _, records, _ = run_rounds(ds, cfg)
            federated.append(records[-1].global_accuracy)
        gap = abs(float(np.median(central)) - float(np.median(federated)))
        assert gap <= 0.05, f"median accuracy gap {gap * 100:.1f} points"


CITATION_DIR = os.environ.get("GNODEFORMER_CORA_DIR", "")


@pytest.mark.skipif(
    not CITATION_DIR,
    reason="set GNODEFORMER_CORA_DIR to a directory holding the citation graph "
    "in the package dataset layout (edges/features/labels); none is bundled "
    "and this environment has no network access",
)
def test_09_citation_benchmark():
    with wall_clock_budget(1800):
        ds = load_dataset(CITATION_DIR, derive_seed(0, MASKS, 0))
        basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
        model = ModelConfig(
            feature_dim=ds.feature_dim, classes=ds.num_classes, d=16, heads=2,
            layers=2, rk_order=4, hidden=64,
        )
        params, _, _ = train_centralized(
            ds, basis, model, OPT, epochs=200, seed=0, patience=30
        )
        _, accuracy, _ = evaluate(ds, basis, model, params, ds.test_mask)
        assert accuracy >= 0.78, f"citation test accuracy {accuracy:.3f}"


def test_10_communication_accounting(homophilic):
    with wall_clock_budget(60):
        assert param_bytes(140218) == 560872
        assert param_bytes(0) == 0
        configs = [
            desk_model(),
            desk_model(rk_order=4),
            ModelConfig(feature_dim=1433, classes=7, d=16, heads=4, layers=3,
                        hidden=64),
            ModelConfig(feature_dim=6, classes=2, d=4, heads=2, layers=1,
                        hidden=4),
        ]
        for config in configs:
            count, nbytes = comm_accounting(config)
            assert count == count_parameters(config)
            assert count == init_params(config, seed=0).flat.size
            assert nbytes == 4 * count

        ds, basis = homophilic
        means = {}
        for order in (2, 4):
            model = desk_model(rk_order=order)
            params = init_params(model, seed=0)
            state = init_optimizer(params, OPT)
            run_epochs(ds, basis, model, params, state, 2, seed=0)
            records = run_epochs(
                ds, basis, model, params, state, 10, seed=0, epoch_offset=2
            )
            means[order] = float(np.mean([r.seconds for r in records]))
        assert means[4] > means[2], means
