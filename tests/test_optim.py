import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnodeformer.autodiff import Tensor
from gnodeformer.errors import ConfigError, DataError, NumericsError
from gnodeformer.optim import (
    CHECKPOINT_MAGIC,
    AdamConfig,
    ParamSet,
    adam_step,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
)


def small_params(rng):
    ps = ParamSet()
    ps.add("w", Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True))
    ps.add("b", Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True))
    return ps


class TestParamSet:
    def test_insertion_order_preserved(self, rng):
        ps = ParamSet()
        for name in ("zz", "aa", "mm"):
            ps.add(name, Tensor(np.zeros((1, 1))))
        assert ps.names() == ["zz", "aa", "mm"]

    def test_duplicate_name_rejected(self):
        ps = ParamSet()
        ps.add("w", Tensor(np.zeros((1, 1))))
        with pytest.raises(ConfigError, match="duplicate"):
            ps.add("w", Tensor(np.zeros((1, 1))))

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="bad parameter name"):
            ParamSet().add("has space", Tensor(np.zeros((1, 1))))

    def test_copy_is_independent(self, rng):
        ps = small_params(rng)
        cp = ps.copy()
        cp["w"].data[0, 0] = 99.0
        assert ps["w"].data[0, 0] != 99.0

    def test_count(self, rng):
        assert small_params(rng).count() == 9


class TestAdam:
    def test_zero_gradient_leaves_params(self, rng):
        ps = small_params(rng)
        before = ps.flatten()
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        grads = {n: np.zeros_like(t.data) for n, t in ps.items()}
        adam_step(ps, grads, state)
        np.testing.assert_array_equal(ps.flatten(), before)
        assert state.t == 1

    def test_first_step_unit_gradient(self):
        # w=0, g=1, lr=0.1: bias-corrected step is -0.1/(1 + 1e-8)
        ps = ParamSet({"w": Tensor(np.zeros((1, 1)), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        adam_step(ps, {"w": np.ones((1, 1))}, state)
        assert abs(ps["w"].data[0, 0] - (-0.09999999900000002)) < 1e-15

    def test_two_steps_constant_gradient(self):
        # frozen from a spelled-out simulation of the update formulas
        ps = ParamSet({"w": Tensor(np.ones((1, 1)), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        g = {"w": np.full((1, 1), 0.5)}
        adam_step(ps, g, state)
        assert abs(ps["w"].data[0, 0] - 0.900000002) < 1e-9
        adam_step(ps, g, state)
        assert abs(ps["w"].data[0, 0] - 0.8000000040000006) < 1e-9

    def test_step_magnitude_bounded_by_lr(self, rng):
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig(lr=0.05))
        grads = {n: rng.uniform(-2, 2, t.data.shape) for n, t in ps.items()}
        for _ in range(5):
            before = ps.flatten()
            adam_step(ps, grads, state)
            assert np.abs(ps.flatten() - before).max() <= 0.05 + 1e-12

    def test_nonfinite_gradient_aborts_without_mutation(self, rng):
        ps = small_params(rng)
        before = ps.flatten()
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        grads = {n: np.zeros_like(t.data) for n, t in ps.items()}
        grads["b"][0, 0] = np.nan
        with pytest.raises(NumericsError, match="step aborted"):
            adam_step(ps, grads, state)
        np.testing.assert_array_equal(ps.flatten(), before)
        assert state.t == 0
        assert not state.m["w"].any()

    def test_missing_gradient(self, rng):
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig())
        with pytest.raises(ConfigError, match="missing gradient"):
            adam_step(ps, {"w": np.zeros((2, 3))}, state)

    def test_shape_mismatch(self, rng):
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig())
        grads = {"w": np.zeros((3, 2)), "b": np.zeros((1, 3))}
        with pytest.raises(ConfigError, match="shape"):
            adam_step(ps, grads, state)

    def test_weight_decay_shrinks_weights(self):
        ps = ParamSet({"w": Tensor(np.full((1, 1), 5.0), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1, weight_decay=0.1))
        adam_step(ps, {"w": np.zeros((1, 1))}, state)
        # pure decay term: 5 - 0.1*0.1*5 = 4.95
        assert abs(ps["w"].data[0, 0] - 4.95) < 1e-12

    def test_deterministic(self, rng):
        def run():
            r = np.random.default_rng(5)
            ps = ParamSet({"w": Tensor(r.uniform(-1, 1, (3, 3)), requires_grad=True)})
            state = init_optimizer(ps, AdamConfig(lr=0.01))
            for i in range(10):
                g = {"w": np.sin(ps["w"].data + i)}
                adam_step(ps, g, state)
            return ps.flatten()

        np.testing.assert_array_equal(run(), run())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AdamConfig(lr=0.0)
        with pytest.raises(ConfigError):
            AdamConfig(weight_decay=-1.0)


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        ps = small_params(rng)
        save_checkpoint(ps, tmp_path / "model.ckpt")
        back = load_checkpoint(tmp_path / "model.ckpt")
        assert back.names() == ps.names()
        for name in ps.names():
            assert np.array_equal(back[name].data, ps[name].data)
            assert back[name].requires_grad

    def test_round_trip_bytes_identical(self, rng, tmp_path):
        ps = small_params(rng)
        save_checkpoint(ps, tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"something else\n0\n")
        with pytest.raises(DataError, match="not a parameter checkpoint"):
            load_checkpoint(p)

    def test_truncated_payload(self, rng, tmp_path):
        ps = small_params(rng)
        path = save_checkpoint(ps, tmp_path / "t.ckpt")
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"w 2.5 3\n", "non-integer"),
            (b"w two 3\n", "non-integer"),
            (b"w 2 x\n", "non-integer"),
            (b"w -2 3\n", "negative"),
            (b"w 2 -3\n", "negative"),
            (b"w\xff 2 3\n", "not UTF-8"),
            (b"w 4000000000 4000000000\n", "truncated"),
        ],
    )
    def test_malformed_entry_header(self, tmp_path, header, match):
        p = tmp_path / "x.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + b"1\n" + header + bytes(48))
        with pytest.raises(DataError, match=match):
            load_checkpoint(p)

    def test_negative_entry_count(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + b"-1\n")
        with pytest.raises(DataError, match="negative entry count"):
            load_checkpoint(p)

    def test_duplicate_entry_name(self, tmp_path):
        p = tmp_path / "x.ckpt"
        entry = b"w 1 1\n" + bytes(8)
        p.write_bytes(CHECKPOINT_MAGIC + b"2\n" + entry + entry)
        with pytest.raises(DataError, match="duplicate"):
            load_checkpoint(p)

    def test_save_uses_unique_temp_file(self, rng, tmp_path):
        # a stale or concurrent writer's fixed-name temp file is not touched
        stale = tmp_path / "t.ckpt.tmp"
        stale.write_bytes(b"another writer")
        path = save_checkpoint(small_params(rng), tmp_path / "t.ckpt")
        assert stale.read_bytes() == b"another writer"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["t.ckpt", "t.ckpt.tmp"]
        assert load_checkpoint(path).names() == ["w", "b"]

    def test_trailing_garbage(self, rng, tmp_path):
        ps = small_params(rng)
        path = save_checkpoint(ps, tmp_path / "t.ckpt")
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(
        lambda tail: CHECKPOINT_MAGIC + tail)))
    def test_arbitrary_bytes_load_or_reject(self, raw):
        self.assert_load_or_reject(raw)

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
            max_size=4,
        ),
        cut=st.integers(min_value=0, max_value=200),
        tail=st.binary(max_size=16),
    )
    def test_damaged_checkpoint_load_or_reject(self, edits, cut, tail):
        with tempfile.TemporaryDirectory() as tmp:
            raw = bytearray(
                save_checkpoint(small_params(np.random.default_rng(0)),
                                Path(tmp) / "c.ckpt").read_bytes()
            )
        for offset, mask in edits:
            raw[offset % len(raw)] ^= mask
        self.assert_load_or_reject(bytes(raw[:cut]) + tail)

    @staticmethod
    def assert_load_or_reject(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            path.write_bytes(raw)
            try:
                params = load_checkpoint(path)
            except DataError:
                return
        for name in params.names():
            assert params[name].data.dtype == np.float64
