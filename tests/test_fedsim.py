import logging
import math
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnodeformer import fedsim, training
from gnodeformer.cli import read_manifest, write_manifest
from gnodeformer.errors import ConfigError, DataError, NumericsError
from gnodeformer.fedsim import (
    FedConfig,
    RoundRecord,
    build_clients,
    client_update,
    comm_accounting,
    dirichlet_partition,
    evaluate_global,
    fedavg,
    induce_subgraph,
    param_bytes,
    partition_stats,
    run_rounds,
    sample_clients,
    write_metrics_csv,
)
from gnodeformer.graphs import GraphDataset, SbmConfig, generate_sbm
from gnodeformer.model import RK_WEIGHTS, ModelConfig, count_parameters, init_params
from gnodeformer.optim import AdamConfig, ParamSet
from gnodeformer.autodiff import Tensor
from gnodeformer.training import EpochRecord, train_centralized
from tests.helpers import dense_adjacency, no_masks

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def global_sbm(n_per_block=30, classes=3, seed=0, feature_dim=8):
    return generate_sbm(
        SbmConfig(
            block_sizes=(n_per_block,) * classes,
            p_in=0.5,
            p_out=0.05,
            feature_dim=feature_dim,
            signal=1.5,
            seed=seed,
        )
    )


def small_fed_config(**overrides):
    model = overrides.pop(
        "model",
        ModelConfig(
            feature_dim=8, classes=3, d=8, heads=2, layers=1, rk_order=2, hidden=8
        ),
    )
    defaults = dict(
        model=model,
        optimizer=AdamConfig(lr=0.05),
        clients=3,
        alpha=100.0,
        rounds=2,
        local_epochs=2,
        fraction_fit=1.0,
        seed=0,
        threads=1,
    )
    defaults.update(overrides)
    return FedConfig(**defaults)


def scalar_params(*values):
    return ParamSet(
        {f"p{i}": Tensor(float(v), requires_grad=True) for i, v in enumerate(values)}
    )


class TestFedConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="clients"):
            small_fed_config(clients=0)
        with pytest.raises(ConfigError, match="alpha"):
            small_fed_config(alpha=0.0)
        with pytest.raises(ConfigError, match="fraction_fit"):
            small_fed_config(fraction_fit=0.0)
        with pytest.raises(ConfigError, match="fraction_fit"):
            small_fed_config(fraction_fit=1.5)
        with pytest.raises(ConfigError, match="rounds"):
            small_fed_config(rounds=-1)
        with pytest.raises(ConfigError, match="threads"):
            small_fed_config(threads=0)


class TestDirichletPartition:
    def test_disjoint_and_exhaustive(self):
        ds = global_sbm()
        parts = dirichlet_partition(ds.labels, 5, 1.0, seed=0)
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(ds.n))

    def test_deterministic(self):
        ds = global_sbm()
        a = dirichlet_partition(ds.labels, 4, 0.5, seed=7)
        b = dirichlet_partition(ds.labels, 4, 0.5, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_client_gets_everything(self):
        ds = global_sbm()
        for alpha in (0.01, 1e6):
            parts = dirichlet_partition(ds.labels, 1, alpha, seed=0)
            assert len(parts) == 1
            np.testing.assert_array_equal(np.sort(parts[0]), np.arange(ds.n))

    def test_high_alpha_near_uniform(self):
        ds = global_sbm(n_per_block=100)
        parts = dirichlet_partition(ds.labels, 5, 1e6, seed=3)
        stats = partition_stats(ds.labels, parts, ds.num_classes)
        np.testing.assert_allclose(stats["counts"], 20.0, atol=1.0)

    def test_low_alpha_concentrates(self):
        ds = global_sbm(n_per_block=100)
        shares = []
        for seed in range(20):
            parts = dirichlet_partition(ds.labels, 5, 0.01, seed=seed)
            shares.append(partition_stats(ds.labels, parts, ds.num_classes)["max_share"])
        assert np.mean(shares) >= 0.85

    def test_empty_client_reassignment(self, caplog):
        labels = np.zeros(3, dtype=int)
        with caplog.at_level(logging.WARNING, logger="gnodeformer.fedsim"):
            parts = dirichlet_partition(labels, 3, 0.001, seed=1)
        sizes = [len(p) for p in parts]
        assert min(sizes) >= 1
        assert sum(sizes) == 3
        assert any("received no nodes" in r.message for r in caplog.records)

    def test_more_clients_than_nodes(self):
        # each repair would empty its one-node donor, so this used to loop
        with pytest.raises(ConfigError, match="clients=4 exceeds the graph's 3 nodes"):
            dirichlet_partition(np.zeros(3, dtype=int), 4, 1.0, seed=0)

    @given(
        clients=st.integers(1, 6),
        alpha=st.sampled_from([0.01, 1.0, 100.0]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25)
    def test_partition_property(self, clients, alpha, seed):
        labels = np.arange(40) % 4
        parts = dirichlet_partition(labels, clients, alpha, seed)
        assert len(parts) == clients
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(40))
        assert min(len(p) for p in parts) >= 1

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(np.zeros(4, dtype=int), 0, 1.0, 0)
        with pytest.raises(ConfigError):
            dirichlet_partition(np.zeros(4, dtype=int), 2, -1.0, 0)


class TestInduceSubgraph:
    def triangle_plus_isolated(self):
        return GraphDataset(
            n=4,
            edges=[(0, 1), (0, 2), (1, 2)],
            features=np.arange(8.0).reshape(4, 2),
            labels=np.array([0, 0, 1, 1]),
            num_classes=2,
            **no_masks(4),
        )

    def test_full_node_set_keeps_graph(self):
        ds = global_sbm()
        sub = induce_subgraph(ds, np.arange(ds.n), mask_seed=0)
        np.testing.assert_array_equal(sub.edges, ds.edges)
        np.testing.assert_array_equal(sub.features, ds.features)
        np.testing.assert_array_equal(sub.labels, ds.labels)

    def test_triangle_split_drops_cross_edges(self):
        ds = self.triangle_plus_isolated()
        left = induce_subgraph(ds, np.array([0, 1]), mask_seed=0)
        right = induce_subgraph(ds, np.array([2, 3]), mask_seed=0)
        assert left.num_edges == 1
        assert right.num_edges == 0

    def test_clique_split_loses_nothing(self):
        adj = np.zeros((6, 6))
        for clique in (range(0, 3), range(3, 6)):
            for u in clique:
                for v in clique:
                    if u != v:
                        adj[u, v] = 1.0
        ds = GraphDataset(
            n=6,
            edges=np.argwhere(np.triu(adj, k=1)),
            features=np.zeros((6, 1)),
            labels=np.array([0, 0, 0, 1, 1, 1]),
            num_classes=2,
            **no_masks(6),
        )
        a = induce_subgraph(ds, np.arange(3), mask_seed=0)
        b = induce_subgraph(ds, np.arange(3, 6), mask_seed=0)
        assert a.num_edges + b.num_edges == ds.num_edges

    def test_matches_dense_slice_on_skewed_partition(self):
        ds = global_sbm()
        adj = dense_adjacency(ds)
        for nodes in dirichlet_partition(ds.labels, 4, 0.1, seed=3):
            sub = induce_subgraph(ds, nodes, mask_seed=0)
            block = adj[np.ix_(np.sort(nodes), np.sort(nodes))]
            np.testing.assert_array_equal(sub.edges, np.argwhere(np.triu(block, k=1)))

    def test_node_order_is_sorted(self):
        ds = self.triangle_plus_isolated()
        sub = induce_subgraph(ds, np.array([3, 0, 2]), mask_seed=0)
        np.testing.assert_array_equal(sub.features, ds.features[[0, 2, 3]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 2, 3]])

    def test_masks_resplit(self):
        ds = global_sbm()
        sub = induce_subgraph(ds, np.arange(ds.n), mask_seed=11)
        total = sub.train_mask.sum() + sub.val_mask.sum() + sub.test_mask.sum()
        assert total == sub.n
        assert sub.train_mask.sum() == round(0.6 * sub.n)
        again = induce_subgraph(ds, np.arange(ds.n), mask_seed=11)
        np.testing.assert_array_equal(sub.train_mask, again.train_mask)

    def test_errors(self):
        ds = self.triangle_plus_isolated()
        with pytest.raises(ConfigError, match="empty"):
            induce_subgraph(ds, np.array([], dtype=int), mask_seed=0)
        with pytest.raises(ConfigError, match="duplicate"):
            induce_subgraph(ds, np.array([1, 1]), mask_seed=0)
        with pytest.raises(ConfigError, match="outside"):
            induce_subgraph(ds, np.array([0, 9]), mask_seed=0)


class TestSampleClients:
    def test_full_participation(self):
        for r in range(5):
            np.testing.assert_array_equal(sample_clients(4, 1.0, r, 0), np.arange(4))

    def test_ceiling(self):
        assert sample_clients(5, 0.2, 0, 0).size == 1
        assert sample_clients(5, 0.4, 0, 0).size == 2
        assert sample_clients(5, 0.41, 0, 0).size == 3
        assert sample_clients(10, 0.05, 0, 0).size == 1

    def test_deterministic_per_round(self):
        a = sample_clients(10, 0.3, 4, 9)
        b = sample_clients(10, 0.3, 4, 9)
        np.testing.assert_array_equal(a, b)
        assert a.tolist() == sorted(a.tolist())

    def test_rounds_vary(self):
        draws = {tuple(sample_clients(5, 0.4, r, 0)) for r in range(50)}
        assert len(draws) > 1

    def test_participation_frequency(self):
        # each client is a Bernoulli(0.4) participant per round
        counts = np.zeros(5)
        rounds = 1000
        for r in range(rounds):
            counts[sample_clients(5, 0.4, r, seed=123)] += 1
        sigma = math.sqrt(rounds * 0.4 * 0.6)
        assert np.all(np.abs(counts - 400) <= 3 * sigma)


class TestClientUpdate:
    def make_client(self, seed=0, **overrides):
        ds = global_sbm(n_per_block=20, seed=seed)
        cfg = small_fed_config(**{"clients": 1, "local_epochs": 5, **overrides})
        return build_clients(ds, cfg)[0], cfg

    def test_client_is_built_with_its_adam_state(self):
        client, cfg = self.make_client(optimizer=AdamConfig(lr=0.02, weight_decay=0.1))
        state = client.opt_state
        assert state.config is cfg.optimizer and state.t == 0
        size = count_parameters(cfg.model)
        assert state.m_flat.shape == state.v_flat.shape == (size,)
        assert not state.m_flat.any() and not state.v_flat.any()

    def test_zero_epochs_identity(self):
        client, cfg = self.make_client()
        cfg = small_fed_config(clients=1, local_epochs=0)
        global_params = init_params(cfg.model, seed=0)
        updated, records, _ = client_update(global_params, client, cfg, 0)
        assert records == []
        assert updated is not global_params
        np.testing.assert_array_equal(updated.flat, global_params.flat)

    def test_zero_lr_keeps_params(self):
        # the client's Adam settings are fixed when it is built
        client, cfg = self.make_client(local_epochs=3, optimizer=AdamConfig(lr=1e-300))
        global_params = init_params(cfg.model, seed=0)
        updated, _, _ = client_update(global_params, client, cfg, 0)
        np.testing.assert_allclose(
            updated.flat, global_params.flat, atol=1e-290
        )

    def test_loss_decreases_over_local_epochs(self):
        client, cfg = self.make_client()
        global_params = init_params(cfg.model, seed=0)
        updated, records, _ = client_update(global_params, client, cfg, 0)
        losses = [r.loss for r in records]
        from gnodeformer.training import evaluate

        final_loss, _, _ = evaluate(
            client.dataset, client.basis, cfg.model, updated,
            client.dataset.train_mask,
        )
        losses.append(final_loss)
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 4, losses

    def test_global_params_untouched(self):
        client, cfg = self.make_client()
        global_params = init_params(cfg.model, seed=0)
        before = global_params.flat.tobytes()
        client_update(global_params, client, cfg, 0)
        assert global_params.flat.tobytes() == before

    def test_nonfinite_aborts_and_rolls_back(self, caplog):
        client, cfg = self.make_client()
        global_params = init_params(cfg.model, seed=0)
        global_params["head/w_out"].data[0, 0] = np.nan
        with caplog.at_level(logging.WARNING, logger="gnodeformer.fedsim"):
            with np.errstate(over="ignore", invalid="ignore"):
                updated, records, _ = client_update(global_params, client, cfg, 0)
        assert updated is None
        assert records == []
        assert client.opt_state is not None
        assert client.opt_state.t == 0
        assert any("aborted" in r.message for r in caplog.records)

    def test_optimizer_state_persists_between_rounds(self):
        client, cfg = self.make_client()
        global_params = init_params(cfg.model, seed=0)
        client_update(global_params, client, cfg, 0)
        assert client.opt_state.t == cfg.local_epochs
        client_update(global_params, client, cfg, cfg.local_epochs)
        assert client.opt_state.t == 2 * cfg.local_epochs


class TestFedAvg:
    def test_single_set_is_exact_copy(self):
        ps = scalar_params(1.25, -3.5)
        out = fedavg([ps], [17])
        assert out is not ps
        assert out["p0"].data.tobytes() == ps["p0"].data.tobytes()

    def test_identical_sets_average_to_themselves(self):
        rng = np.random.default_rng(0)
        base = ParamSet({"w": Tensor(rng.standard_normal((3, 4)))})
        copies = [base.copy() for _ in range(3)]
        out = fedavg(copies, [37, 41, 2])
        assert out["w"].data.tobytes() == base["w"].data.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 6),
        data=st.data(),
    )
    def test_survivor_order_changes_only_rounding(self, seed, count, data):
        rng = np.random.default_rng(seed)
        sets = [
            ParamSet({"w": Tensor(rng.standard_normal((3, 4)))}) for _ in range(count)
        ]
        weights = rng.integers(1, 500, size=count).tolist()
        order = data.draw(st.permutations(range(count)))
        want = fedavg(sets, weights)["w"].data
        got = fedavg([sets[i] for i in order], [weights[i] for i in order])["w"].data
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
        same = fedavg([sets[0].copy() for _ in range(count)], weights)["w"].data
        assert same.tobytes() == sets[0]["w"].data.tobytes()

    def test_weighted_mean_arithmetic(self):
        out = fedavg([scalar_params(1.0), scalar_params(3.0)], [1, 3])
        assert out["p0"].item() == 2.5

    def test_equal_weights_match_plain_mean(self):
        rng = np.random.default_rng(1)
        sets = [ParamSet({"w": Tensor(rng.standard_normal((4, 4)))}) for _ in range(4)]
        out = fedavg(sets, [5, 5, 5, 5])
        want = np.mean([s["w"].data for s in sets], axis=0)
        np.testing.assert_allclose(out["w"].data, want, atol=1e-14)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            sets = [
                ParamSet({"w": Tensor(rng.standard_normal((5, 3)))})
                for _ in range(3)
            ]
            weights = rng.integers(1, 100, size=3).tolist()
            out = fedavg(sets, weights)["w"].data
            stack = np.stack([s["w"].data for s in sets])
            assert (out >= stack.min(axis=0) - 1e-12).all()
            assert (out <= stack.max(axis=0) + 1e-12).all()

    def test_flat_average_equals_per_tensor_loop(self):
        # the per-tensor loop fedavg ran before the flat buffers, kept as
        # the reference: the same sums per entry, so the same bits
        sets = [init_params(small_fed_config().model, seed) for seed in range(4)]
        weights = [13, 7, 29, 2]
        scale = np.asarray(weights, dtype=float) / sum(weights)
        out = fedavg(sets, weights)
        for name in out.names():
            anchor = sets[0][name].data
            total = np.zeros_like(anchor)
            for s, other in zip(scale[1:], sets[1:]):
                total += s * (other[name].data - anchor)
            assert out[name].data.tobytes() == (anchor + total).tobytes(), name

    def test_errors(self):
        with pytest.raises(ConfigError, match="at least one"):
            fedavg([], [])
        with pytest.raises(ConfigError, match="one weight"):
            fedavg([scalar_params(1.0)], [1, 2])
        with pytest.raises(ConfigError, match="positive"):
            fedavg([scalar_params(1.0), scalar_params(2.0)], [1, 0])
        with pytest.raises(ConfigError, match="names"):
            fedavg(
                [scalar_params(1.0), ParamSet({"other": Tensor(1.0)})], [1, 1]
            )
        mismatched = ParamSet({"p0": Tensor(np.zeros((2, 2)))})
        with pytest.raises(ConfigError, match="shape"):
            fedavg([scalar_params(1.0), mismatched], [1, 1])


class TestRunRounds:
    def test_zero_rounds(self):
        ds = global_sbm(n_per_block=15)
        cfg = small_fed_config(rounds=0)
        params, records, clients = run_rounds(ds, cfg)
        assert records == []
        assert len(clients) == cfg.clients
        np.testing.assert_array_equal(
            params.flat, init_params(cfg.model, cfg.seed).flat
        )

    def test_round_records_well_formed(self):
        ds = global_sbm(n_per_block=15)
        cfg = small_fed_config(clients=4, fraction_fit=0.5, rounds=3, local_epochs=1)
        count = count_parameters(cfg.model)
        _, records, _ = run_rounds(ds, cfg)
        assert [r.round_index for r in records] == [0, 1, 2]
        previous = 0
        for rec in records:
            assert len(rec.participants) == 2
            assert list(rec.participants) == sorted(rec.participants)
            # two participants, each way, 4 bytes per parameter
            assert rec.bytes_cum - previous == 2 * 2 * 4 * count
            previous = rec.bytes_cum
            assert set(rec.client_epochs) == set(rec.participants)
            assert 0.0 <= rec.global_accuracy <= 1.0

    def test_degenerate_federation_matches_centralized(self):
        # one client, full participation: T rounds of t local epochs must
        # walk the exact centralized trajectory of T*t epochs
        ds = global_sbm(n_per_block=20)
        model = ModelConfig(
            feature_dim=8, classes=3, d=8, heads=2, layers=1, rk_order=2,
            hidden=8, dropout=0.2,
        )
        cfg = small_fed_config(
            model=model, clients=1, rounds=3, local_epochs=2, seed=4
        )
        fed_params, records, clients = run_rounds(ds, cfg)

        client = build_clients(ds, cfg)[0]
        central_params, history, _ = train_centralized(
            client.dataset, client.basis, model, cfg.optimizer,
            epochs=cfg.rounds * cfg.local_epochs, seed=cfg.seed,
        )
        assert fed_params.flat.tobytes() == central_params.flat.tobytes()
        fed_losses = [r.client_epochs[0][-1].loss for r in records]
        central_losses = [history[i].loss for i in (1, 3, 5)]
        assert fed_losses == central_losses

    @pytest.mark.parametrize("mode", ["central", "fed"])
    def test_weight_decay_leaves_frozen_rk_weights(self, mode):
        ds = global_sbm(n_per_block=15)
        model = ModelConfig(
            feature_dim=8, classes=3, d=8, heads=2, layers=2, rk_order=4,
            hidden=8, learn_rk_weights=False,
        )
        cfg = small_fed_config(model=model, optimizer=AdamConfig(lr=0.05, weight_decay=0.1))
        if mode == "fed":
            params, _, _ = run_rounds(ds, cfg)
        else:
            client = build_clients(ds, small_fed_config(model=model, clients=1))[0]
            params, _, _ = train_centralized(
                client.dataset, client.basis, model, cfg.optimizer, epochs=4, seed=0
            )
        frozen = np.array([RK_WEIGHTS[4]]).tobytes()
        for layer in range(model.layers):
            assert params[f"layer{layer}/rk_w"].data.tobytes() == frozen

    def test_threading_reproduces_serial_result(self):
        ds = global_sbm(n_per_block=12)
        serial = small_fed_config(clients=3, rounds=2, local_epochs=1, threads=1)
        threaded = small_fed_config(clients=3, rounds=2, local_epochs=1, threads=3)
        params_a, records_a, _ = run_rounds(ds, serial)
        params_b, records_b, _ = run_rounds(ds, threaded)
        assert params_a.flat.tobytes() == params_b.flat.tobytes()
        assert [r.global_accuracy for r in records_a] == [
            r.global_accuracy for r in records_b
        ]

    def test_client_sizes_match_partition(self):
        ds = global_sbm(n_per_block=15)
        cfg = small_fed_config(clients=3)
        _, _, clients = run_rounds(ds, small_fed_config(clients=3, rounds=0))
        assert sum(c.dataset.n for c in clients) == ds.n


# client sizes 7, 1, 244, 23 and 235 at alpha 0.1: clients 2 and 4 sit
# above the pool's crossover, the other three below it. Two of the five
# take part each round: 3 and 4, 1 and 2, 2 and 3, 3 and 4, then 0 and 3,
# so every round but the last has a big participant
MIXED = dict(clients=5, alpha=0.1, seed=5, fraction_fit=0.4, rounds=5, local_epochs=2)


def mixed_run(monkeypatch, threads, dropout, abort, min_nodes=None):
    """run_rounds on the mixed-size partition, with the crossover moved to
    ``min_nodes`` when given; ``abort`` makes clients 2 and 3 (one each
    side of the crossover) raise in their local steps from round 1 on,
    so both fail in round 2."""
    if min_nodes is not None:
        monkeypatch.setattr(fedsim, "_POOL_MIN_NODES", min_nodes)
    if abort:
        real = fedsim.run_epochs

        def flaky(dataset, *args, **kwargs):
            aborting = dataset.name.endswith(("client2", "client3"))
            if aborting and args[6] > 0:
                raise NumericsError("injected")
            return real(dataset, *args, **kwargs)

        monkeypatch.setattr(fedsim, "run_epochs", flaky)
    model = ModelConfig(
        feature_dim=8, classes=3, d=8, heads=2, layers=1, rk_order=2, hidden=8,
        dropout=dropout,
    )
    cfg = small_fed_config(model=model, threads=threads, **MIXED)
    params, records, _ = run_rounds(global_sbm(n_per_block=170), cfg)
    monkeypatch.undo()
    return params, records


def fingerprint(records):
    """Every deterministic field of the records, as bytes where a float."""
    rows = []
    for rec in records:
        rows.append((
            rec.round_index, rec.participants, rec.bytes_cum,
            bits(rec.global_loss), bits(rec.global_accuracy),
            {
                cid: [(e.epoch, bits(e.loss), bits(e.accuracy)) for e in epochs]
                for cid, epochs in rec.client_epochs.items()
            },
        ))
    return rows


class TestPlacement:
    """A round of clients below fedsim._POOL_MIN_NODES runs on the calling
    thread, and a round with a bigger one on the pool; where an update
    runs never changes a bit."""

    def test_partition_straddles_the_crossover(self):
        cfg = small_fed_config(**MIXED)
        sizes = [c.dataset.n for c in build_clients(global_sbm(n_per_block=170), cfg)]
        assert sizes == [7, 1, 244, 23, 235]
        assert sizes[2] >= fedsim._POOL_MIN_NODES and sizes[4] >= fedsim._POOL_MIN_NODES
        assert max(sizes[:2] + sizes[3:4]) < fedsim._POOL_MIN_NODES
        rounds = [
            [int(c) for c in sample_clients(cfg.clients, cfg.fraction_fit, r, cfg.seed)]
            for r in range(cfg.rounds)
        ]
        assert rounds == [[3, 4], [1, 2], [2, 3], [3, 4], [0, 3]]

    @pytest.mark.parametrize("abort", [False, True], ids=["", "abort"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["p0", "p0.1"])
    @pytest.mark.parametrize("threads", [2, 3], ids=["t2", "t3"])
    def test_every_placement_gives_the_same_bits(self, monkeypatch, threads, dropout, abort):
        inline = mixed_run(monkeypatch, threads, dropout, abort, min_nodes=10**9)
        pooled = mixed_run(monkeypatch, threads, dropout, abort, min_nodes=0)
        default = mixed_run(monkeypatch, threads, dropout, abort)
        for params, records in (pooled, default):
            assert params.flat.tobytes() == inline[0].flat.tobytes()
            assert fingerprint(records) == fingerprint(inline[1])
        if abort:
            assert inline[1][2].client_epochs == {2: [], 3: []}
            assert inline[1][4].client_epochs[3] == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_small_rounds_stay_on_the_calling_thread(self, monkeypatch, threads):
        seen = {}
        real = fedsim.client_update

        def traced(global_params, client, config, epoch_offset):
            round_index = epoch_offset // config.local_epochs
            seen.setdefault(round_index, []).append(
                (client.dataset.n, threading.get_ident())
            )
            return real(global_params, client, config, epoch_offset)

        monkeypatch.setattr(fedsim, "client_update", traced)
        cfg = small_fed_config(threads=threads, **MIXED)
        run_rounds(global_sbm(n_per_block=170), cfg)
        assert sorted(seen) == list(range(cfg.rounds))
        here = threading.get_ident()
        for round_index, calls in seen.items():
            big = max(n for n, _ in calls) >= fedsim._POOL_MIN_NODES
            assert big == (round_index < 4)
            on_pool = threads > 1 and big
            for n, ident in calls:
                assert (ident != here) == on_pool, (round_index, n, threads)

    def test_no_pool_starts_for_small_clients(self, monkeypatch):
        # the executor starts its worker threads in _adjust_thread_count,
        # which each submit calls; the first submit below shows the hook
        # sees a start
        started = []
        real = ThreadPoolExecutor._adjust_thread_count

        def counted(pool):
            started.append(pool)
            real(pool)

        monkeypatch.setattr(ThreadPoolExecutor, "_adjust_thread_count", counted)
        run_rounds(global_sbm(n_per_block=12), small_fed_config(threads=3))
        assert started == []
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(int).result()
        assert started == [pool]


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def spelled_out_global(clients, model, params):
    """The global row's arithmetic: one evaluate per client with test
    nodes, summed weighted by test count in client-id order."""
    total, loss_sum, acc_sum = 0, 0.0, 0.0
    for client in sorted(clients, key=lambda c: c.client_id):
        count = int(client.dataset.test_mask.sum())
        if count:
            loss, accuracy, _ = training.evaluate(
                client.dataset, client.basis, model, params, client.dataset.test_mask
            )
            total += count
            loss_sum += count * loss
            acc_sum += count * accuracy
    return loss_sum / total, acc_sum / total


class TestDeferredGlobalRow:
    """Round r's global row comes from round r + 1's client forwards where
    it can; it must equal a separate evaluate_global at the parameters
    on_round receives, bit for bit, in every case that mixes the two."""

    def run(self, **overrides):
        ds = global_sbm(n_per_block=15)
        model = overrides.pop("model", small_fed_config().model)
        cfg = small_fed_config(
            **{"clients": 4, "rounds": 3, "local_epochs": 2, "model": model, **overrides}
        )
        seen = []
        params, records, clients = run_rounds(
            ds, cfg, on_round=lambda rec, params: seen.append((rec, params.copy()))
        )
        assert [rec for rec, _ in seen] == records
        assert seen[-1][1].flat.tobytes() == params.flat.tobytes()
        for rec, at in seen:
            want = evaluate_global(clients, cfg.model, at)
            assert want == spelled_out_global(clients, cfg.model, at)
            assert bits(rec.global_loss) == bits(want[0]), rec.round_index
            assert bits(rec.global_accuracy) == bits(want[1]), rec.round_index
        return records, [at for _, at in seen]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(fraction_fit=1.0),
            dict(fraction_fit=0.5),
            dict(local_epochs=0),
            dict(rounds=1),
            dict(threads=2),
        ],
        ids=["full_participation", "half_participation", "no_local_epochs",
             "last_round_only", "two_threads"],
    )
    def test_row_equals_fresh_evaluation(self, overrides):
        self.run(**overrides)

    def test_row_equals_fresh_evaluation_with_dropout(self):
        model = ModelConfig(
            feature_dim=8, classes=3, d=8, heads=2, layers=1, rk_order=2, hidden=8,
            dropout=0.1,
        )
        self.run(model=model)

    def test_row_after_a_client_aborts_past_its_forward(self, monkeypatch):
        real = fedsim.run_epochs

        def flaky(dataset, *args, **kwargs):
            if dataset.name.endswith("client1") and args[6] > 0:
                raise NumericsError("injected")
            return real(dataset, *args, **kwargs)

        monkeypatch.setattr(fedsim, "run_epochs", flaky)
        records, _ = self.run()
        assert records[1].client_epochs[1] == []

    def test_row_after_every_participant_fails(self, monkeypatch, caplog):
        # round 1 keeps round 0's aggregate, and its row scores that
        # aggregate from the forwards round 2's participants run on it
        real = fedsim.run_epochs

        def flaky(dataset, *args, **kwargs):
            if args[6] == 2:  # round 1's epoch offset
                raise NumericsError("injected")
            return real(dataset, *args, **kwargs)

        monkeypatch.setattr(fedsim, "run_epochs", flaky)
        with caplog.at_level(logging.WARNING, logger="gnodeformer.fedsim"):
            records, at = self.run()
        assert any(
            "round 1: every participant failed; keeping params" in r.message
            for r in caplog.records
        )
        # run has checked round 1's row against evaluate_global at at[1]
        assert at[1].flat.tobytes() == at[0].flat.tobytes()
        assert records[1].client_epochs == {0: [], 1: [], 2: [], 3: []}
        assert all(len(epochs) == 2 for epochs in records[2].client_epochs.values())
        assert at[2].flat.tobytes() != at[1].flat.tobytes()

    def test_row_after_a_client_forward_raises(self, monkeypatch):
        real = fedsim.evaluate

        def flaky(dataset, *args, **kwargs):
            # only client_update's scoring call, not evaluate_global's
            scoring = sys._getframe(1).f_code.co_name == "client_update"
            if dataset.name.endswith("client1") and scoring:
                raise NumericsError("injected")
            return real(dataset, *args, **kwargs)

        monkeypatch.setattr(fedsim, "evaluate", flaky)
        records, _ = self.run()
        assert all(rec.client_epochs[1] == [] for rec in records)

    def test_clients_score_from_their_first_forward(self, monkeypatch):
        # 4 clients x 3 rounds x 2 local steps, plus the last round's row:
        # 28 forwards, where a separate row evaluation per round makes 36
        calls = []
        real = training.forward
        monkeypatch.setattr(
            training, "forward", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = small_fed_config(clients=4, rounds=3, local_epochs=2)
        run_rounds(global_sbm(n_per_block=15), cfg)
        assert len(calls) == 4 * 3 * 2 + 4

    def test_client_update_returns_its_score(self):
        ds = global_sbm(n_per_block=20)
        cfg = small_fed_config(clients=1, local_epochs=2)
        client = build_clients(ds, cfg)[0]
        global_params = init_params(cfg.model, seed=0)
        want = training.evaluate(
            client.dataset, client.basis, cfg.model, global_params,
            client.dataset.test_mask,
        )[:2]
        _, records, score = client_update(global_params, client, cfg, 0)
        assert score == want and len(records) == 2
        _, _, score = client_update(
            global_params, client, small_fed_config(clients=1, local_epochs=0), 0
        )
        assert score is None


class TestCommAccounting:
    def test_wire_ratio(self):
        assert param_bytes(140218) == 560872
        assert param_bytes(0) == 0

    def test_matches_model_count(self):
        cfg = small_fed_config().model
        count, nbytes = comm_accounting(cfg)
        assert count == count_parameters(cfg)
        assert nbytes == 4 * count

    def test_ratio_always_four(self):
        for d in (4, 8, 16):
            cfg = ModelConfig(feature_dim=5, classes=3, d=d, heads=2, layers=1)
            count, nbytes = comm_accounting(cfg)
            assert nbytes == 4 * count


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        entries = {
            "alpha": 0.1,
            "clients": 5,
            "dataset": "runs/sbm300",
            "lr": 0.0123456789012345,
        }
        write_manifest(path, entries)
        back = read_manifest(path)
        assert back["clients"] == "5"
        assert float(back["alpha"]) == 0.1
        assert float(back["lr"]) == 0.0123456789012345
        assert back["dataset"] == "runs/sbm300"

    def test_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_manifest(a, {"z": 1, "a": 2})
        write_manifest(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "a=2"

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="="):
            write_manifest(tmp_path / "m.txt", {"a=b": 1})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("valid=1\nnot a pair\n")
        with pytest.raises(DataError, match="manifest"):
            read_manifest(path)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_read_or_rejected(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.txt"
            path.write_bytes(raw)
            try:
                entries = read_manifest(path)
            except DataError:
                return
        assert all("=" not in key for key in entries)

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "m.txt"
        write_manifest(path, {"spec": "a=b,c=d"})
        assert read_manifest(path)["spec"] == "a=b,c=d"


class TestMetricsCsv:
    def test_schema_and_rows(self, tmp_path):
        ds = global_sbm(n_per_block=12)
        cfg = small_fed_config(clients=2, rounds=2, local_epochs=1)
        _, records, _ = run_rounds(ds, cfg)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,client_id,loss,accuracy,bytes_cum,epoch_seconds"
        assert len(lines) == 1 + sum(len(r.participants) + 1 for r in records)
        global_rows = [l for l in lines[1:] if ",global," in l]
        assert len(global_rows) == 2
        last = global_rows[-1].split(",")
        assert int(last[0]) == 1
        assert float(last[3]) == records[-1].global_accuracy
        assert int(last[4]) == records[-1].bytes_cum

    def test_client_rows_from_epoch_records(self, tmp_path):
        # a participant's row: its last step's loss and accuracy and its
        # mean step seconds, nan for one that took no step; the global
        # row's seconds average the participants that took steps
        steps = [EpochRecord(0, 0.9, 0.25, 1.0), EpochRecord(1, 0.7, 0.5, 3.0)]
        record = RoundRecord(4, (0, 2), {0: steps, 2: []}, 0.8, 0.375, 32)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [record])
        assert path.read_text().splitlines()[1:] == [
            "4,0,0.7,0.5,32,2.0",
            "4,2,nan,nan,32,nan",
            "4,global,0.8,0.375,32,2.0",
        ]


class TestPartitionStats:
    def test_hand_example(self):
        labels = np.array([0, 0, 1, 1])
        parts = [np.array([0, 1]), np.array([2, 3])]
        stats = partition_stats(labels, parts, 2)
        np.testing.assert_array_equal(stats["counts"], [[2, 0], [0, 2]])
        np.testing.assert_array_equal(stats["max_share"], [1.0, 1.0])
        assert stats["mean_tv"] == 0.5

    def test_uniform_partition_has_zero_skew(self):
        labels = np.array([0, 1, 0, 1])
        parts = [np.array([0, 1]), np.array([2, 3])]
        stats = partition_stats(labels, parts, 2)
        assert stats["mean_tv"] == 0.0
