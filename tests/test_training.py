import logging
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gnodeformer import training
from gnodeformer.errors import ConfigError
from gnodeformer.graphs import SbmConfig, build_normalized_laplacian, generate_sbm
from gnodeformer.model import ModelConfig, forward, init_params, loss_and_metrics
from gnodeformer.optim import AdamConfig, init_optimizer
from gnodeformer.spectral import sym_eig
from gnodeformer.training import evaluate, run_epochs, train_centralized
from tests.helpers import reference_train_centralized


def small_problem(seed=0, dropout=0.0):
    ds = generate_sbm(
        SbmConfig(
            block_sizes=(20, 20),
            p_in=0.5,
            p_out=0.05,
            feature_dim=8,
            signal=1.5,
            seed=seed,
        )
    )
    basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
    cfg = ModelConfig(
        feature_dim=8,
        classes=2,
        d=8,
        heads=2,
        layers=1,
        rk_order=2,
        hidden=8,
        dropout=dropout,
    )
    return ds, basis, cfg


class TestRunEpochs:
    def test_loss_decreases(self):
        ds, basis, cfg = small_problem()
        params = init_params(cfg, seed=0)
        state = init_optimizer(params, AdamConfig(lr=0.05))
        records = run_epochs(ds, basis, cfg, params, state, 8, seed=0)
        assert len(records) == 8
        assert records[-1].loss < records[0].loss

    def test_records_carry_offset(self):
        ds, basis, cfg = small_problem()
        params = init_params(cfg, seed=0)
        state = init_optimizer(params, AdamConfig(lr=0.01))
        records = run_epochs(ds, basis, cfg, params, state, 3, seed=0, epoch_offset=7)
        assert [r.epoch for r in records] == [7, 8, 9]

    def test_batching_invariance(self):
        # 6 epochs in one call must equal 3+3 with an offset, bit for bit;
        # the dropout schedule keys on the absolute epoch index
        ds, basis, cfg = small_problem(dropout=0.3)
        opt = AdamConfig(lr=0.02)

        params_a = init_params(cfg, seed=1)
        state_a = init_optimizer(params_a, opt)
        run_epochs(ds, basis, cfg, params_a, state_a, 6, seed=5)

        params_b = init_params(cfg, seed=1)
        state_b = init_optimizer(params_b, opt)
        run_epochs(ds, basis, cfg, params_b, state_b, 3, seed=5, epoch_offset=0)
        run_epochs(ds, basis, cfg, params_b, state_b, 3, seed=5, epoch_offset=3)

        assert params_a.flat.tobytes() == params_b.flat.tobytes()
        assert state_a.t == state_b.t == 6

    def test_zero_epochs(self):
        ds, basis, cfg = small_problem()
        params = init_params(cfg, seed=0)
        before = params.flat.copy()
        state = init_optimizer(params, AdamConfig(lr=0.1))
        assert run_epochs(ds, basis, cfg, params, state, 0, seed=0) == []
        np.testing.assert_array_equal(params.flat, before)


class TestEvaluate:
    def test_matches_direct_forward(self):
        ds, basis, cfg = small_problem()
        params = init_params(cfg, seed=2)
        loss, acc, _ = evaluate(ds, basis, cfg, params, ds.test_mask)
        logits, _ = forward(ds, basis, cfg, params)
        want_loss, want_acc = loss_and_metrics(logits, ds.labels, ds.test_mask)
        assert loss == want_loss.item()
        assert acc == want_acc

    def test_dropout_disabled(self):
        ds, basis, cfg = small_problem(dropout=0.5)
        params = init_params(cfg, seed=2)
        a = evaluate(ds, basis, cfg, params, ds.val_mask)[:2]
        b = evaluate(ds, basis, cfg, params, ds.val_mask)[:2]
        assert a == b


class TestTrainCentralized:
    def test_zero_epochs_returns_init(self):
        ds, basis, cfg = small_problem()
        params, history, _ = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.01), epochs=0, seed=3
        )
        assert history == []
        np.testing.assert_array_equal(
            params.flat, init_params(cfg, seed=3).flat
        )

    def test_deterministic(self):
        ds, basis, cfg = small_problem(dropout=0.2)
        opt = AdamConfig(lr=0.02)
        params_a, hist_a, _ = train_centralized(ds, basis, cfg, opt, 5, seed=9)
        params_b, hist_b, _ = train_centralized(ds, basis, cfg, opt, 5, seed=9)
        assert params_a.flat.tobytes() == params_b.flat.tobytes()
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]

    def test_learns_small_graph(self):
        ds, basis, cfg = small_problem()
        params, history, _ = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.05), epochs=40, seed=0
        )
        _, train_acc, _ = evaluate(ds, basis, cfg, params, ds.train_mask)
        assert train_acc >= 0.9
        assert history[-1].loss < history[0].loss

    def test_patience_restores_best_validation(self):
        ds, basis, cfg = small_problem()
        params, history, _ = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.05), epochs=60, seed=1, patience=3
        )
        best = max(h.val_accuracy for h in history)
        _, val_acc, _ = evaluate(ds, basis, cfg, params, ds.val_mask)
        assert val_acc == best

    def test_patience_can_stop_early(self):
        # high learning rate makes validation accuracy plateau quickly
        ds, basis, cfg = small_problem()
        _, history, _ = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.3), epochs=500, seed=1, patience=2
        )
        assert len(history) < 500

    def test_no_validation_mask_disables_patience(self):
        ds, basis, cfg = small_problem()
        bare = type(ds)(
            n=ds.n,
            edges=ds.edges,
            features=ds.features,
            labels=ds.labels,
            num_classes=ds.num_classes,
            train_mask=np.ones(ds.n, dtype=bool),
            val_mask=np.zeros(ds.n, dtype=bool),
            test_mask=np.zeros(ds.n, dtype=bool),
        )
        params, history, _ = train_centralized(
            bare, basis, cfg, AdamConfig(lr=0.05), epochs=4, seed=0, patience=1
        )
        assert len(history) == 4
        assert all(math.isnan(h.val_accuracy) for h in history)

    def test_logs_each_epoch_at_info(self, caplog):
        ds, basis, cfg = small_problem()
        with caplog.at_level(logging.INFO, logger="gnodeformer"):
            train_centralized(ds, basis, cfg, AdamConfig(lr=0.01), epochs=3, seed=0)
        records = [r for r in caplog.records if r.name == "gnodeformer.training"]
        assert [r.levelno for r in records] == [logging.INFO] * 3
        for epoch, record in enumerate(records):
            message = record.getMessage()
            assert message.startswith(f"epoch {epoch}: train_loss=")
            assert "val_loss=" in message and "val_accuracy=" in message

    def test_silent_at_default_level(self, caplog):
        ds, basis, cfg = small_problem()
        with caplog.at_level(logging.WARNING, logger="gnodeformer"):
            train_centralized(ds, basis, cfg, AdamConfig(lr=0.01), epochs=3, seed=0)
        assert not [r for r in caplog.records if r.name == "gnodeformer.training"]

    def test_config_validation(self):
        ds, basis, cfg = small_problem()
        with pytest.raises(ConfigError, match="epochs"):
            train_centralized(ds, basis, cfg, AdamConfig(lr=0.01), epochs=-1, seed=0)
        with pytest.raises(ConfigError, match="patience"):
            train_centralized(
                ds, basis, cfg, AdamConfig(lr=0.01), epochs=1, seed=0, patience=0
            )


def deterministic_fields(history):
    """Every history field but the wall-clock seconds, as exact reprs."""
    return [
        (h.epoch, repr(h.loss), repr(h.accuracy),
         repr(h.val_loss), repr(h.val_accuracy))
        for h in history
    ]


def counting_forward(monkeypatch, module):
    """Wrap ``module.forward``; returns the list of (logits, gamma) data
    arrays it produced, one entry per call."""
    made = []
    real = module.forward

    def counted(*args, **kwargs):
        logits, gamma = real(*args, **kwargs)
        made.append((logits.data, gamma.data))
        return logits, gamma

    monkeypatch.setattr(module, "forward", counted)
    return made


class TestForwardReuse:
    @pytest.mark.parametrize("rk", [1, 2, 4])
    def test_training_forward_equals_eval_forward_without_dropout(self, rk):
        ds, basis, cfg = small_problem()
        cfg = replace(cfg, rk_order=rk)
        params = init_params(cfg, seed=4)
        train_logits, train_gamma = forward(ds, basis, cfg, params, dropout_seed=11)
        eval_logits, eval_gamma = forward(ds, basis, cfg, params)
        assert train_logits.data.tobytes() == eval_logits.data.tobytes()
        assert train_gamma.data.tobytes() == eval_gamma.data.tobytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("patience", [None, 2])
    def test_equals_step_then_evaluate(self, dropout, patience):
        ds, basis, cfg = small_problem(dropout=dropout)
        opt = AdamConfig(lr=0.3)
        epochs = 30
        params, history, _ = train_centralized(
            ds, basis, cfg, opt, epochs, seed=1, patience=patience
        )
        want_params, want_history = reference_train_centralized(
            ds, basis, cfg, opt, epochs, seed=1, patience=patience
        )
        if patience is not None:
            # the restore path runs: training stopped before the last epoch
            assert len(history) < epochs
        assert params.flat.tobytes() == want_params.flat.tobytes()
        assert deterministic_fields(history) == deterministic_fields(want_history)

    def test_one_forward_per_parameter_state_without_dropout(self, monkeypatch):
        ds, basis, cfg = small_problem()
        made = counting_forward(monkeypatch, training)
        train_centralized(ds, basis, cfg, AdamConfig(lr=0.01), epochs=5, seed=0)
        assert len(made) == 5 + 1

    def test_dropout_runs_both_forwards(self, monkeypatch):
        ds, basis, cfg = small_problem(dropout=0.2)
        made = counting_forward(monkeypatch, training)
        train_centralized(ds, basis, cfg, AdamConfig(lr=0.01), epochs=5, seed=0)
        assert len(made) == 2 * 5

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_kept_forward_is_the_eval_forward_at_returned_params(
        self, monkeypatch, dropout
    ):
        ds, basis, cfg = small_problem(dropout=dropout)
        made = counting_forward(monkeypatch, training)
        params, history, (logits, gamma) = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.01), epochs=5, seed=0
        )
        # dropout makes every step run its own forward; the kept one is not new
        assert len(made) == (5 + 1 if dropout == 0 else 2 * 5)
        want_logits, want_gamma = forward(ds, basis, cfg, params)
        assert logits.data.tobytes() == want_logits.data.tobytes()
        assert gamma.data.tobytes() == want_gamma.data.tobytes()

    def test_restored_params_keep_no_forward(self):
        ds, basis, cfg = small_problem()
        epochs = 30
        _, history, last = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.3), epochs, seed=1, patience=2,
        )
        assert len(history) < epochs
        assert last is None

    def test_no_validation_mask_runs_step_forwards_only(self, monkeypatch):
        ds, basis, cfg = small_problem()
        bare = replace(ds, val_mask=np.zeros(ds.n, dtype=bool))
        made = counting_forward(monkeypatch, training)
        train_centralized(bare, basis, cfg, AdamConfig(lr=0.01), epochs=5, seed=0)
        assert len(made) == 5

    @pytest.mark.parametrize("patience", [None, 2])
    def test_held_graph_dies_by_return(self, monkeypatch, patience):
        ds, basis, cfg = small_problem()
        made = counting_forward(monkeypatch, training)
        refs = []
        real_evaluate = training.evaluate

        def evaluate_and_watch(*args, **kwargs):
            result = real_evaluate(*args, **kwargs)
            refs.extend(weakref.ref(a) for a in made[-1])
            return result

        monkeypatch.setattr(training, "evaluate", evaluate_and_watch)
        epochs = 30
        # keep only the history: the returned forward must be the last holder
        history = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.3), epochs, seed=1, patience=patience
        )[1]
        if patience is not None:
            assert len(history) < epochs
        del made[:]
        assert len(refs) == 2 * len(history)
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_forwards_no_step_takes_run_detached(self, monkeypatch, dropout):
        # without dropout each validation forward but the last is handed to
        # the next step and builds a graph; every other one runs over a
        # detached view, and the one returned carries no graph
        ds, basis, cfg = small_problem(dropout=dropout)
        graphs = []
        real_evaluate = training.evaluate

        def evaluate_and_watch(dataset, basis, config, params, mask, logits=None):
            graphs.append(any(t.requires_grad for t in params.values()))
            return real_evaluate(dataset, basis, config, params, mask, logits)

        monkeypatch.setattr(training, "evaluate", evaluate_and_watch)
        _, _, (logits, gamma) = train_centralized(
            ds, basis, cfg, AdamConfig(lr=0.01), epochs=5, seed=0
        )
        assert graphs == [dropout == 0] * 4 + [False]
        for t in (logits, gamma):
            assert not t.requires_grad and t._parents == () and t._backward is None

    def test_reused_logits_require_dropout_zero(self):
        ds, basis, cfg = small_problem(dropout=0.2)
        params = init_params(cfg, seed=0)
        state = init_optimizer(params, AdamConfig(lr=0.01))
        logits, _ = forward(ds, basis, cfg, params)
        with pytest.raises(ConfigError, match="dropout"):
            run_epochs(ds, basis, cfg, params, state, 1, seed=0, logits=logits)

    def test_evaluate_scores_given_logits(self, monkeypatch):
        ds, basis, cfg = small_problem()
        params = init_params(cfg, seed=2)
        loss, acc, (logits, gamma) = evaluate(ds, basis, cfg, params, ds.val_mask)
        assert (loss, acc) == evaluate(ds, basis, cfg, params, ds.val_mask)[:2]
        want_logits, want_gamma = forward(ds, basis, cfg, params)
        np.testing.assert_array_equal(logits.data, want_logits.data)
        np.testing.assert_array_equal(gamma.data, want_gamma.data)
        made = counting_forward(monkeypatch, training)
        got = evaluate(ds, basis, cfg, params, ds.test_mask, logits=logits)
        assert made == []
        assert got[:2] == evaluate(ds, basis, cfg, params, ds.test_mask)[:2]
