import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnodeformer.autodiff import Tensor
from gnodeformer.errors import ConfigError, DataError, NumericsError
from gnodeformer.fedsim import fedavg
from gnodeformer.model import ModelConfig, init_params
from gnodeformer.optim import (
    BETA1,
    BETA2,
    CHECKPOINT_MAGIC,
    EPS,
    MAX_GRAD,
    AdamConfig,
    ParamSet,
    adam_step,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
)


def small_params(rng):
    return ParamSet({
        "w": Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),
        "b": Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True),
    })


class TestParamSet:
    def test_insertion_order_preserved(self, rng):
        ps = ParamSet({name: Tensor(np.zeros((1, 1))) for name in ("zz", "aa", "mm")})
        assert ps.names() == ["zz", "aa", "mm"]
        assert list(ps.spans) == ["zz", "aa", "mm"]

    def test_duplicate_name_rejected(self):
        # a dict cannot repeat a name, but it can repeat a tensor
        t = Tensor(np.zeros((1, 1)))
        with pytest.raises(ConfigError, match="duplicate parameter"):
            ParamSet({"w": t, "v": t})

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="bad parameter name"):
            ParamSet({"has space": Tensor(np.zeros((1, 1)))})

    def test_copy_is_independent(self, rng):
        ps = small_params(rng)
        cp = ps.copy()
        cp["w"].data[0, 0] = 99.0
        assert ps["w"].data[0, 0] != 99.0

    def test_count(self, rng):
        assert small_params(rng).flat.size == 9


def assert_views_of_buffer(ps):
    """Every tensor is the next consecutive slice of ps.flat, in order,
    the one ps.spans names."""
    base = ps.flat.__array_interface__["data"][0]
    offset = 0
    assert list(ps.spans) == ps.names()
    for name, t in ps.items():
        assert ps.spans[name] == slice(offset, offset + t.data.size), name
        assert t.data.base is ps.flat, name
        assert t.data.flags.c_contiguous, name
        assert t.data.__array_interface__["data"][0] == base + 8 * offset, name
        offset += t.data.size
    assert offset == ps.flat.size
    assert ps.flat.dtype == np.float64 and ps.flat.flags.owndata


def desk_params(seed=0):
    return init_params(ModelConfig(feature_dim=5, classes=3, d=8, layers=1), seed)


class TestFlatLayout:
    def test_built_sets_are_views(self, rng):
        assert_views_of_buffer(small_params(rng))
        assert_views_of_buffer(desk_params())

    def test_copy_fedavg_and_load_are_views(self, rng, tmp_path):
        ps = desk_params(0)
        cp = ps.copy()
        assert_views_of_buffer(cp)
        assert not np.shares_memory(cp.flat, ps.flat)
        merged = fedavg([ps, desk_params(1), desk_params(2)], [3, 1, 2])
        assert_views_of_buffer(merged)
        assert_views_of_buffer(fedavg([ps], [1]))
        back = load_checkpoint(save_checkpoint(merged, tmp_path / "c.bin"))
        assert_views_of_buffer(back)
        assert back.flat.tobytes() == merged.flat.tobytes()

    def test_writes_through_the_buffer_reach_the_tensors(self, rng):
        ps = small_params(rng)
        ps.flat[:] = 7.0
        assert (ps["w"].data == 7.0).all() and (ps["b"].data == 7.0).all()
        ps["b"].data[0, 2] = -1.0
        assert ps.flat[-1] == -1.0

    def test_optimizer_moments_are_views(self, rng):
        # the moments are flat buffers in the parameters' layout, read by
        # name through params.like
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        for cur in (state, state.copy()):
            assert cur.m_flat.shape == cur.v_flat.shape == ps.flat.shape
            for flat in (cur.m_flat, cur.v_flat):
                named = ps.like(flat)
                assert named.names() == ps.names()
                assert_views_of_buffer(named)
                assert named.flat is flat
        cp = state.copy()
        assert not np.shares_memory(cp.m_flat, state.m_flat)
        assert not np.shares_memory(cp.v_flat, state.v_flat)


def per_tensor_adam(params, grads, state):
    """Reference: the update tensor by tensor, on separate arrays."""
    cfg = state["config"]
    state["t"] += 1
    bc1 = 1.0 - BETA1 ** state["t"]
    bc2 = 1.0 - BETA2 ** state["t"]
    for name, data in params.items():
        g, m, v = grads[name], state["m"][name], state["v"][name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if cfg.weight_decay:
            update = update + cfg.lr * cfg.weight_decay * data
        data -= update


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_update_equals_per_tensor_update(self, weight_decay):
        config = AdamConfig(lr=0.02, weight_decay=weight_decay)
        ps = desk_params(3)
        state = init_optimizer(ps, config)
        ref_params = {name: t.data.copy() for name, t in ps.items()}
        ref_state = {
            "config": config, "t": 0,
            "m": {n: np.zeros_like(a) for n, a in ref_params.items()},
            "v": {n: np.zeros_like(a) for n, a in ref_params.items()},
        }
        r = np.random.default_rng(9)
        for _ in range(6):
            grads = {n: r.standard_normal(a.shape) * 10.0 ** r.integers(-6, 3)
                     for n, a in ref_params.items()}
            adam_step(ps, np.concatenate([grads[n].ravel() for n in ps.names()]), state)
            per_tensor_adam(ref_params, grads, ref_state)
        m, v = ps.like(state.m_flat), ps.like(state.v_flat)
        for name, t in ps.items():
            assert t.data.tobytes() == ref_params[name].tobytes(), name
            assert m[name].data.tobytes() == ref_state["m"][name].tobytes(), name
            assert v[name].data.tobytes() == ref_state["v"][name].tobytes(), name
        assert state.t == ref_state["t"]

    def test_zero_gradient_leaves_params(self, rng):
        ps = small_params(rng)
        before = ps.flat.copy()
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        adam_step(ps, np.zeros(ps.flat.size), state)
        np.testing.assert_array_equal(ps.flat, before)
        assert state.t == 1

    def test_first_step_unit_gradient(self):
        # w=0, g=1, lr=0.1: bias-corrected step is -0.1/(1 + 1e-8)
        ps = ParamSet({"w": Tensor(np.zeros((1, 1)), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        adam_step(ps, np.ones(1), state)
        assert abs(ps["w"].data[0, 0] - (-0.09999999900000002)) < 1e-15

    def test_two_steps_constant_gradient(self):
        # frozen from a spelled-out simulation of the update formulas
        ps = ParamSet({"w": Tensor(np.ones((1, 1)), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        g = np.full(1, 0.5)
        adam_step(ps, g, state)
        assert abs(ps["w"].data[0, 0] - 0.900000002) < 1e-9
        adam_step(ps, g, state)
        assert abs(ps["w"].data[0, 0] - 0.8000000040000006) < 1e-9

    def test_step_magnitude_bounded_by_lr(self, rng):
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig(lr=0.05))
        g = rng.uniform(-2, 2, ps.flat.size)
        for _ in range(5):
            before = ps.flat.copy()
            adam_step(ps, g, state)
            assert np.abs(ps.flat - before).max() <= 0.05 + 1e-12

    def test_nonfinite_gradient_aborts_without_mutation(self, rng):
        ps = small_params(rng)
        before = ps.flat.copy()
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        g = np.zeros(ps.flat.size)
        ps.like(g)["b"].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match="for 'b'; step aborted"):
            adam_step(ps, g, state)
        np.testing.assert_array_equal(ps.flat, before)
        assert state.t == 0
        assert not state.m_flat.any() and not state.v_flat.any()

    @pytest.mark.parametrize(
        "value, kind",
        [(np.inf, "non-finite"), (1e200, "overflowing"), (-1e200, "overflowing")],
    )
    def test_overflowing_gradient_aborts_without_mutation(self, rng, value, kind):
        # a finite entry above MAX_GRAD would overflow the second moment:
        # g * g, or v / bc2 at t = 1, lies past the largest float
        ps = small_params(rng)
        before = ps.flat.copy()
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        g = np.zeros(ps.flat.size)
        ps.like(g)["b"].data[0, 0] = value
        with pytest.raises(NumericsError, match=f"^{kind} gradient for 'b'; step aborted"):
            adam_step(ps, g, state)
        np.testing.assert_array_equal(ps.flat, before)
        assert state.t == 0
        assert not state.m_flat.any() and not state.v_flat.any()

    def test_gradient_at_the_bound_is_taken(self, rng):
        ps = small_params(rng)
        state = init_optimizer(ps, AdamConfig(lr=0.1))
        g = np.zeros(ps.flat.size)
        g[0], g[-1] = MAX_GRAD, -MAX_GRAD
        with np.errstate(all="raise"):
            adam_step(ps, g, state)
        assert np.isfinite(state.v_flat).all() and np.isfinite(ps.flat).all()
        assert state.t == 1

    def test_missing_gradient(self, rng):
        # a gradient for "w" alone leaves "b" without one
        ps = small_params(rng)
        before = ps.flat.copy()
        state = init_optimizer(ps, AdamConfig())
        with pytest.raises(ConfigError, match="gradient shape"):
            adam_step(ps, np.zeros(ps["w"].data.size), state)
        np.testing.assert_array_equal(ps.flat, before)
        assert state.t == 0

    def test_shape_mismatch(self, rng):
        # one gradient buffer in the parameters' flat layout: a missing
        # entry, an extra one or a per-tensor shape is rejected unapplied
        ps = small_params(rng)
        before = ps.flat.copy()
        state = init_optimizer(ps, AdamConfig())
        for g in (np.zeros(8), np.zeros(10), np.zeros((1, 9)), np.zeros((3, 3))):
            with pytest.raises(ConfigError, match="gradient shape"):
                adam_step(ps, g, state)
        np.testing.assert_array_equal(ps.flat, before)
        assert state.t == 0

    def test_weight_decay_shrinks_weights(self):
        ps = ParamSet({"w": Tensor(np.full((1, 1), 5.0), requires_grad=True)})
        state = init_optimizer(ps, AdamConfig(lr=0.1, weight_decay=0.1))
        adam_step(ps, np.zeros(1), state)
        # pure decay term: 5 - 0.1*0.1*5 = 4.95
        assert abs(ps["w"].data[0, 0] - 4.95) < 1e-12

    def test_weight_decay_skips_frozen_tensors(self):
        # decay finds the tensors without a gradient through the layout,
        # wherever they sit in it
        ps = ParamSet({
            "a": Tensor(np.full((1, 2), 5.0), requires_grad=True),
            "f": Tensor(np.full((2, 1), 5.0)),
            "b": Tensor(np.full((1, 1), 5.0), requires_grad=True),
        })
        state = init_optimizer(ps, AdamConfig(lr=0.1, weight_decay=0.1))
        for _ in range(2):
            adam_step(ps, np.zeros(ps.flat.size), state)
        np.testing.assert_array_equal(ps["f"].data, np.full((2, 1), 5.0))
        np.testing.assert_array_equal(ps.flat[ps.spans["a"]], [4.95 * 0.99] * 2)
        np.testing.assert_array_equal(ps["b"].data, [[4.95 * 0.99]])

    def test_deterministic(self, rng):
        def run():
            r = np.random.default_rng(5)
            ps = ParamSet({"w": Tensor(r.uniform(-1, 1, (3, 3)), requires_grad=True)})
            state = init_optimizer(ps, AdamConfig(lr=0.01))
            for i in range(10):
                adam_step(ps, np.sin(ps.flat + i), state)
            return ps.flat

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
