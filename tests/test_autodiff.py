import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnodeformer import autodiff
from gnodeformer.autodiff import (
    LAYER_NORM_EPS,
    Tensor,
    attention_head,
    backward,
    dropout,
    layer_norm_affine,
    linear,
    masked_cross_entropy,
)
from gnodeformer.errors import DataError, NumericsError
from gnodeformer.graphs import SbmConfig, build_normalized_laplacian, generate_sbm
from gnodeformer.model import ModelConfig, forward, init_params, loss_and_metrics
from gnodeformer.optim import AdamConfig, ParamSet, adam_step, init_optimizer
from gnodeformer.spectral import sym_eig
from tests.helpers import central_difference_grads, max_rel_err, named_grads

GRAD_TOL = 1e-5


def leaf(rng, rows, cols, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


def check_against_fd(func, tensors, tol=GRAD_TOL):
    """Backward pass vs central differences on the same computation."""
    loss = func()
    grads = named_grads(loss, {str(i): t for i, t in enumerate(tensors)})
    fd = central_difference_grads(func, tensors)
    for i, t in enumerate(tensors):
        err = max_rel_err(grads[str(i)], fd[i])
        assert err < tol, f"tensor {i}: relative error {err:.2e}"


def weighting(rng, rows, cols):
    """Fixed random readout so every output entry gets distinct gradient
    signal; created once per test so the oracle probes a fixed function.
    """
    w = Tensor(rng.uniform(-1, 1, size=(rows, cols)))
    return lambda out: (out * w).sum()


class TestPrimitiveGradients:
    """Every primitive's backward rule against the finite-difference
    oracle.
    """

    def test_add_same_shape(self, rng):
        a, b, read = leaf(rng, 3, 4), leaf(rng, 3, 4), weighting(rng, 3, 4)
        check_against_fd(lambda: read(a + b), [a, b])

    def test_add_row_bias(self, rng):
        a, b, read = leaf(rng, 5, 3), leaf(rng, 1, 3), weighting(rng, 5, 3)
        check_against_fd(lambda: read(a + b), [a, b])

    def test_add_col_broadcast(self, rng):
        a, b, read = leaf(rng, 4, 3), leaf(rng, 4, 1), weighting(rng, 4, 3)
        check_against_fd(lambda: read(a + b), [a, b])

    def test_add_scalar_broadcast(self, rng):
        a, b, read = leaf(rng, 3, 3), leaf(rng, 1, 1), weighting(rng, 3, 3)
        check_against_fd(lambda: read(a + b), [a, b])

    def test_sub(self, rng):
        a, b, read = leaf(rng, 3, 4), leaf(rng, 1, 4), weighting(rng, 3, 4)
        check_against_fd(lambda: read(a - b), [a, b])

    def test_mul_same_shape(self, rng):
        a, b, read = leaf(rng, 3, 4), leaf(rng, 3, 4), weighting(rng, 3, 4)
        check_against_fd(lambda: read(a * b), [a, b])

    def test_mul_scalar_tensor(self, rng):
        a, b, read = leaf(rng, 4, 2), leaf(rng, 1, 1), weighting(rng, 4, 2)
        check_against_fd(lambda: read(a * b), [a, b])

    def test_matmul(self, rng):
        # the 2x3 . 3x2 case, tighter tolerance per the op contract
        a, b, read = leaf(rng, 2, 3), leaf(rng, 3, 2), weighting(rng, 2, 2)
        check_against_fd(lambda: read(a @ b), [a, b], tol=1e-6)

    def test_matmul_chain(self, rng):
        a, b, c = leaf(rng, 2, 3), leaf(rng, 3, 4), leaf(rng, 4, 2)
        read = weighting(rng, 2, 2)
        check_against_fd(lambda: read(a @ b @ c), [a, b, c])

    def test_scale(self, rng):
        a, read = leaf(rng, 3, 3), weighting(rng, 3, 3)
        check_against_fd(lambda: read(a.scale(-2.5)), [a])

    def test_transpose(self, rng):
        a, read = leaf(rng, 2, 5), weighting(rng, 5, 2)
        check_against_fd(lambda: read(a.T), [a])

    def test_relu_away_from_kink(self, rng):
        a = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        a.data[np.abs(a.data) < 1e-3] = 0.5
        read = weighting(rng, 4, 4)
        check_against_fd(lambda: read(a.relu()), [a])

    def test_gelu(self, rng):
        a, read = leaf(rng, 4, 3, lo=-2, hi=2), weighting(rng, 4, 3)
        check_against_fd(lambda: read(a.gelu()), [a])

    def test_tanh(self, rng):
        a, read = leaf(rng, 3, 3, lo=-2, hi=2), weighting(rng, 3, 3)
        check_against_fd(lambda: read(a.tanh()), [a])

    def test_sin(self, rng):
        a, read = leaf(rng, 3, 4, lo=-3, hi=3), weighting(rng, 3, 4)
        check_against_fd(lambda: read(a.sin()), [a])

    def test_cos(self, rng):
        a, read = leaf(rng, 3, 4, lo=-3, hi=3), weighting(rng, 3, 4)
        check_against_fd(lambda: read(a.cos()), [a])

    def test_exp(self, rng):
        a, read = leaf(rng, 3, 3), weighting(rng, 3, 3)
        check_against_fd(lambda: read(a.exp()), [a])

    def test_log(self, rng):
        a, read = leaf(rng, 3, 3, lo=0.5, hi=2.0), weighting(rng, 3, 3)
        check_against_fd(lambda: read(a.log()), [a])

    def test_softmax_rows(self, rng):
        a, read = leaf(rng, 4, 5, lo=-2, hi=2), weighting(rng, 4, 5)
        check_against_fd(lambda: read(a.softmax_rows()), [a])

    def test_layer_norm_rows(self, rng):
        a, read = leaf(rng, 4, 6, lo=-2, hi=2), weighting(rng, 4, 6)
        check_against_fd(lambda: read(a.layer_norm_rows()), [a])

    def test_dropout_fixed_seed(self, rng):
        a, read = leaf(rng, 5, 4), weighting(rng, 5, 4)
        check_against_fd(
            lambda: read(dropout(a, 0.4, seed=7)), [a]
        )

    def test_sum(self, rng):
        a = leaf(rng, 3, 4)
        check_against_fd(lambda: a.sum(), [a])

    def test_mean(self, rng):
        a = leaf(rng, 3, 4)
        check_against_fd(lambda: a.mean(), [a])

    def test_masked_cross_entropy(self, rng):
        a = leaf(rng, 6, 4, lo=-2, hi=2)
        labels = rng.integers(0, 4, size=6)
        mask = np.array([True, False, True, True, False, True])
        check_against_fd(lambda: masked_cross_entropy(a, labels, mask), [a])


def unfused_attention(q, k, v, scale, p, seed):
    """The op composition that _attend() computes over arrays, up to the
    last bits of its shifted softmax."""
    weights = (q.scale(scale) @ k.T).softmax_rows()
    return dropout(weights, p, seed) @ v


def unfused_head(x, wq, wk, wv, wo, scale, p, seed):
    """The op composition that attention_head() fuses, up to the last bits
    of _attend()'s shifted softmax."""
    return unfused_attention(x @ wq, x @ wk, x @ wv, scale, p, seed) @ wo


def tile_slices(n, cols):
    """_attend()'s row tiles of an n x cols array: as many rows as fit in
    _ATTEND_TILE_BYTES, and at least one."""
    rows = max(1, autodiff._ATTEND_TILE_BYTES // (8 * cols))
    return [slice(i, i + rows) for i in range(0, n, rows)]


def summed(products):
    """The products added in order, as _attend() sums dv and dk^T over
    its tiles."""
    total = None
    for product in products:
        total = product if total is None else total + product
    return total


def shifted_exp(q, k, v, scale, p=0.0, bound=True):
    """_attend()'s (E, r), written out tile by tile: E = exp(S - c) for
    the scores S = qs k^T, qs = q * scale, and r its row sums. With
    ``bound`` the shift c_i = |qs_i| max_j |k_j| enters each tile's
    product as one more column; otherwise each row is shifted by its max.
    Without dropout r is the last column of each tile's product with
    [v | 1]; with dropout it is the tile's row sums."""
    qs = q * scale
    if bound:
        c = np.sqrt((qs * qs).sum(axis=1, keepdims=True))
        c *= np.sqrt((k * k).sum(axis=1)).max()
        lhs, rhs = np.hstack((qs, -c)), np.hstack((k, np.ones((len(k), 1))))
    else:
        lhs, rhs = qs, k
    tiles = []
    for s in tile_slices(len(q), len(k)):
        t = lhs[s] @ rhs.T
        if not bound:
            t -= t.max(axis=1, keepdims=True)
        tiles.append(np.exp(t))
    e = np.vstack(tiles)
    if p:
        return e, e.sum(axis=1, keepdims=True)
    vo = np.hstack((v, np.ones((len(v), 1))))
    return e, np.vstack([e[s] @ vo for s in tile_slices(len(q), len(k))])[:, -1:]


def attend_formula(q, k, v, scale, p, seed, g, bound=True):
    """_attend()'s context and its (dv, dq, dk) for context gradient g,
    written out tile by tile over shifted_exp's E and r. The context is
    (dropout(E) v) / r: without dropout each tile's product with [v | 1]
    gives it, with dropout (E * keep) (v * keep_scale). dS = (B - delta) *
    E for B = dropout(gs v^T), gs = g / r and the row term delta =
    rowsum(gs * context): without dropout delta enters the product as one
    more column, [gs | -delta] [v | 1]^T; with dropout keep_scale goes to
    gs and delta is subtracted after the mask. dq's rows come from each
    tile; dv and dk^T are summed over the tiles in order."""
    e, r = shifted_exp(q, k, v, scale, p, bound)
    tiles = tile_slices(len(q), len(k))
    qs, gs = q * scale, g / r
    vo = np.hstack((v, np.ones((len(v), 1))))
    if p:
        # drawn as one whole array; _attend draws it a tile at a time
        keep = np.random.default_rng(seed).random(e.shape) >= p
        vs = v * (1.0 / (1.0 - p))
        context = np.vstack([(e[s] * keep[s]) @ vs for s in tiles]) / r
    else:
        context = np.vstack([e[s] @ vo for s in tiles])[:, :-1] / r
    delta = (gs * context).sum(axis=1, keepdims=True)
    if p:
        gs = gs * (1.0 / (1.0 - p))
        dv = summed((e[s] * keep[s]).T @ gs[s] for s in tiles)
        ds = [((gs[s] @ v.T) * keep[s] - delta[s]) * e[s] for s in tiles]
    else:
        lhs = np.hstack((gs, -delta))
        dv = summed(e[s].T @ gs[s] for s in tiles)
        ds = [(lhs[s] @ vo.T) * e[s] for s in tiles]
    dq = np.vstack([d @ k for d in ds]) * scale
    dk = summed(qs[s].T @ d for s, d in zip(tiles, ds)).T
    return context, dv, dq, dk


def formula_attention(q, k, v, scale, p, seed):
    """attend_formula as one node over the tensors q, k and v."""
    zeros = np.zeros((q.shape[0], v.shape[1]))
    context = attend_formula(q.data, k.data, v.data, scale, p, seed, zeros)[0]

    def grads(g):
        _, dv, dq, dk = attend_formula(q.data, k.data, v.data, scale, p, seed, g)
        for t, d in ((q, dq), (k, dk), (v, dv)):
            autodiff._acc(t, d)

    return autodiff._make(context, (q, k, v), grads)


def assert_close(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def head_leaves(rng, n, width=4, dk=2, dv=3):
    """x and the head's (wq, wk, wv, wo) as leaves."""
    x = leaf(rng, n, width, -2, 2)
    return x, [leaf(rng, width, dk), leaf(rng, width, dk), leaf(rng, width, dv),
               leaf(rng, dv, width)]


class TestAttention:
    """The attention head node, and the array kernel _attend() under it."""

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_gradients_match_finite_differences(self, rng, p):
        # a constant input: gradients reach the weights only
        x, ws = head_leaves(rng, 5)
        x = Tensor(x.data)
        read = weighting(rng, 5, 4)
        check_against_fd(lambda: read(attention_head(x, *ws, 0.7, p, seed=11)), ws)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_matches_unfused_composition(self, rng, p):
        q, k, v = leaf(rng, 7, 3, -2, 2), leaf(rng, 7, 3, -2, 2), leaf(rng, 7, 4)
        w = rng.uniform(-1, 1, size=(7, 4))
        context, _, _, grads = autodiff._attend(q.data, k.data, v.data, 0.5, p, 3)
        got = (context, *grads(w, True, True, True))
        want = attend_formula(q.data, k.data, v.data, 0.5, p, 3, w)
        for name, a, b in zip(("context", "v", "q", "k"), got, want):
            assert a.tobytes() == b.tobytes(), name
        # the softmax composition, up to the last bits
        plain_out = unfused_attention(q, k, v, 0.5, p, seed=3)
        plain = named_grads((plain_out * Tensor(w)).sum(), {"q": q, "k": k, "v": v})
        assert_close(context, plain_out.data)
        for name, a in zip(("v", "q", "k"), got[1:]):
            assert_close(a, plain[name])

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("n", [7, 50])
    def test_backward_equals_whole_array_formula(self, rng, n, p):
        q, k = rng.uniform(-2, 2, size=(n, 3)), rng.uniform(-2, 2, size=(n, 3))
        v = rng.uniform(-1, 1, size=(n, 4))
        w = rng.uniform(-1, 1, size=(n, 4))
        scale, seed = 0.5, 3
        _, _, _, grads = autodiff._attend(q, k, v, scale, p, seed)
        dv, dq, dk = grads(w, True, True, True)
        _, want_dv, want_dq, want_dk = attend_formula(q, k, v, scale, p, seed, w)
        np.testing.assert_array_equal(dv, want_dv)
        np.testing.assert_array_equal(dq, want_dq)
        np.testing.assert_array_equal(dk, want_dk)

        # the whole-array formula over the softmax P, up to the last bits
        s = (q * scale) @ k.T
        probs = np.exp(s - s.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        dropped, ds = probs, w @ v.T
        if p:
            keep = np.random.default_rng(seed).random(probs.shape) >= p
            dropped = probs * keep * (1.0 / (1.0 - p))
            ds = ds * keep * (1.0 / (1.0 - p))
        ds = (ds - (ds * probs).sum(axis=1, keepdims=True)) * probs
        assert_close(dv, dropped.T @ w)
        assert_close(dq, (ds @ k) * scale)
        assert_close(dk, ((q * scale).T @ ds).T)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "row_max"])
    def test_each_shift_matches_softmax_composition(self, rng, monkeypatch, bound, p):
        # a limit below every bound sends the kernel to its row-max path
        if not bound:
            monkeypatch.setattr(autodiff, "_SHIFT_BOUND_LIMIT", -1.0)
        q, k, v = leaf(rng, 30, 3, -2, 2), leaf(rng, 30, 3, -2, 2), leaf(rng, 30, 4)
        w = rng.uniform(-1, 1, size=(30, 4))
        context, weights, row_sums, grads = autodiff._attend(
            q.data, k.data, v.data, 0.5, p, 3
        )
        e, r = shifted_exp(q.data, k.data, v.data, 0.5, p, bound)
        assert weights.tobytes() == e.tobytes()
        assert row_sums.tobytes() == r.tobytes()
        assert (weights.max(axis=1) == 1.0).all() == (not bound)
        got = (context, *grads(w, True, True, True))
        want = attend_formula(q.data, k.data, v.data, 0.5, p, 3, w, bound)
        for name, a, b in zip(("context", "v", "q", "k"), got, want):
            assert a.tobytes() == b.tobytes(), name

        plain_out = unfused_attention(q, k, v, 0.5, p, seed=3)
        plain = named_grads((plain_out * Tensor(w)).sum(), {"q": q, "k": k, "v": v})
        assert_close(context, plain_out.data)
        for name, a in zip(("v", "q", "k"), got[1:]):
            assert_close(a, plain[name])

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "row_max"])
    @pytest.mark.parametrize("n", [7, 50])
    @pytest.mark.parametrize("tiling", ["one_row", "ragged", "one_tile", "narrow_qk"])
    def test_tile_boundaries(self, rng, monkeypatch, tiling, n, bound, p):
        # one-row tiles; tiles of 3 (n 7) or 16 (n 50) rows, the last one
        # short; one tile over every row; and ragged tiles with q and k 2
        # wide against v 5 wide
        rows = {"one_row": 1, "one_tile": n}.get(tiling, 3 if n == 7 else 16)
        monkeypatch.setattr(autodiff, "_ATTEND_TILE_BYTES", rows * n * 8)
        if not bound:
            monkeypatch.setattr(autodiff, "_SHIFT_BOUND_LIMIT", -1.0)
        assert autodiff._tile_rows(n) == rows
        dqk, dv = (2, 5) if tiling == "narrow_qk" else (3, 3)
        q, k = leaf(rng, n, dqk, -2, 2), leaf(rng, n, dqk, -2, 2)
        v, w = leaf(rng, n, dv), rng.uniform(-1, 1, size=(n, dv))
        context, weights, row_sums, grads = autodiff._attend(
            q.data, k.data, v.data, 0.5, p, 3
        )
        e, r = shifted_exp(q.data, k.data, v.data, 0.5, p, bound)
        assert weights.tobytes() == e.tobytes()
        assert row_sums.tobytes() == r.tobytes()
        got = (context, *grads(w, True, True, True))
        want = attend_formula(q.data, k.data, v.data, 0.5, p, 3, w, bound)
        for name, a, b in zip(("context", "v", "q", "k"), got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

        plain_out = unfused_attention(q, k, v, 0.5, p, seed=3)
        plain = named_grads((plain_out * Tensor(w)).sum(), {"q": q, "k": k, "v": v})
        assert_close(row_sums, weights.sum(axis=1, keepdims=True))
        assert_close(context, plain_out.data)
        for name, a in zip(("v", "q", "k"), got[1:]):
            assert_close(a, plain[name])
        # each gradient alone is the one asked for with the others
        for i, name in enumerate(("v", "q", "k")):
            need = [j == i for j in range(3)]
            alone = grads(w, *need)
            assert alone[i].tobytes() == got[1 + i].tobytes(), name
            assert all(a is None for j, a in enumerate(alone) if j != i)

    def test_large_bound_with_finite_scores_takes_row_max_path(self, rng):
        # scores up to about +-1000: finite, but a bound past the limit,
        # where exp(-2c) would underflow
        q, k = (rng.uniform(-30, 30, size=(8, 3)) for _ in range(2))
        v = rng.uniform(-1, 1, size=(8, 2))
        qs = q * 0.5
        scores = qs @ k.T
        assert 300 < np.abs(scores).max() < 2000
        bound = np.linalg.norm(qs, axis=1).max() * np.linalg.norm(k, axis=1).max()
        assert bound > autodiff._SHIFT_BOUND_LIMIT
        context, weights, row_sums, _ = autodiff._attend(q, k, v, 0.5, 0.0, 0)
        probs = weights / row_sums
        assert np.isfinite(probs).all() and np.isfinite(context).all()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(8), atol=1e-12)
        e, r = shifted_exp(q, k, v, 0.5, bound=False)
        assert weights.tobytes() == e.tobytes()
        assert row_sums.tobytes() == r.tobytes()
        expected = (Tensor(qs) @ Tensor(k.T)).softmax_rows().data
        assert_close(probs, expected)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_row_max_path_gradients_match_finite_differences(self, rng, monkeypatch, p):
        # the bound path's check is TestFusedNodes'
        # test_attention_head_gradients_match_finite_differences
        monkeypatch.setattr(autodiff, "_SHIFT_BOUND_LIMIT", -1.0)
        x, ws = head_leaves(rng, 5)
        read = weighting(rng, 5, 4)
        check_against_fd(
            lambda: read(attention_head(x, *ws, 0.7, p, seed=11)), [x, *ws]
        )

    def test_probabilities_are_the_softmax_before_dropout(self, rng):
        q, k, v = (rng.uniform(-1, 1, size=(6, d)) for d in (2, 2, 3))
        out, weights, row_sums, _ = autodiff._attend(q, k, v, 0.5, 0.5, seed=1)
        e, r = shifted_exp(q, k, v, 0.5, 0.5)
        assert weights.tobytes() == e.tobytes()
        assert row_sums.tobytes() == r.tobytes()
        expected = (Tensor(q * 0.5) @ Tensor(k.T)).softmax_rows().data
        assert_close(weights / row_sums, expected)
        assert not weights.flags.writeable
        assert out.shape == (6, 3)

    def test_context_is_read_only(self, rng):
        # the backward reads the context, so an edit would corrupt dq and dk
        q, k, v = (rng.uniform(-1, 1, size=(6, d)) for d in (2, 2, 3))
        context, _, _, _ = autodiff._attend(q, k, v, 0.5, 0.0, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            context[0, 0] = 1.0

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_backward_holds_no_square_array(self, rng, p):
        # grads holds one tile-sized buffer and arrays of n x dh: an n x n
        # dS, an n x n dropout temporary or a second tile would pass the
        # bound, which stays under n^2 / 4 doubles
        n, dh = 800, 8
        tile = autodiff._tile_rows(n) * n * 8
        bound = tile + 8 * n * (dh + 1) * 8
        assert bound < n * n * 8 / 4
        q, k, v, w = (rng.uniform(-1, 1, size=(n, dh)) for _ in range(4))
        _, _, _, grads = autodiff._attend(q, k, v, 0.35, p, seed=3)
        tracemalloc.start()
        try:
            grads(w, True, True, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_forward_holds_no_square_array_beyond_weights(self, rng, p):
        # beyond E (and, with dropout, its boolean mask) the forward holds
        # at most one tile and arrays of n x dh: a whole-array draw of the
        # mask, or a whole-array dropout(E), would pass the bound
        n, dh = 800, 8
        tile = autodiff._tile_rows(n) * n * 8
        held = n * n * 8 + (n * n if p else 0)
        q, k, v = (rng.uniform(-1, 1, size=(n, dh)) for _ in range(3))
        tracemalloc.start()
        try:
            autodiff._attend(q, k, v, 0.35, p, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < tile + 8 * n * (dh + 1) * 8, (peak - held, tile)

    # 1e200: finite inputs whose scores overflow
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_nonfinite_score(self, rng, bad):
        x, ws = head_leaves(rng, 3)
        x.data[1, 0] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericsError, match="softmax on non-finite input"):
                attention_head(x, *ws, 1.0, 0.0, seed=0)

    def test_shape_mismatch(self, rng):
        x, (wq, wk, wv, wo) = head_leaves(rng, 3)
        for bad in (
            (leaf(rng, 5, 2), wk, wv, wo),  # wq against x's 4 columns
            (wq, wk, wv, leaf(rng, 2, 4)),  # wo against wv's 3 columns
            (wq, wk, leaf(rng, 3, 3), wo),  # wv against x's 4 columns
        ):
            with pytest.raises(NumericsError, match="attention head shapes"):
                attention_head(x, *bad, 1.0, 0.0, 0)

    def test_bad_dropout_probability(self, rng):
        x, ws = head_leaves(rng, 3)
        with pytest.raises(NumericsError, match="probability"):
            attention_head(x, *ws, 1.0, 1.0, seed=0)

    def test_backward_frees_probabilities(self, rng, monkeypatch):
        attend, refs = autodiff._attend, []

        def spy(*args):
            result = attend(*args)
            refs.append(weakref.ref(result[1]))
            return result

        monkeypatch.setattr(autodiff, "_attend", spy)
        x, ws = head_leaves(rng, 4)
        loss = attention_head(x, *ws, 1.0, 0.0, seed=0).sum()
        (ref,) = refs
        assert ref() is not None  # held by the graph until backward
        named_grads(loss, {str(i): t for i, t in enumerate([x, *ws])})
        assert ref() is None


def central_step(dataset, basis, config, params, seed=3):
    """One training forward, its loss and backward; the parameter gradient."""
    logits, _ = forward(dataset, basis, config, params, training=True, dropout_seed=seed)
    return backward(loss_and_metrics(logits, dataset.labels, dataset.train_mask)[0], params)


class TestArrayPool:
    """_attend takes E, and with dropout its mask, from autodiff._POOL, which
    hands an array out again only once nothing refers to it."""

    @pytest.fixture
    def pool(self, monkeypatch):
        fresh = autodiff._ArrayPool()
        monkeypatch.setattr(autodiff, "_POOL", fresh)
        return fresh

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_held_weights_keep_their_values(self, rng, pool, p):
        q, k, v = (rng.uniform(-1, 1, size=(40, 3)) for _ in range(3))
        weights = autodiff._attend(q, k, v, 0.5, p, 1)[1]
        part = weights[5:9, 2:]
        want, want_part = weights.copy(), part.copy()
        for seed in range(3):
            later = autodiff._attend(-q, k, v, 0.7, p, seed)[1]
            assert not np.shares_memory(later, weights)
        np.testing.assert_array_equal(weights, want)
        # a slice alone keeps the whole array out of the pool
        del weights
        for seed in range(3):
            later = autodiff._attend(-q, k, v, 0.7, p, seed)[1]
            assert not np.shares_memory(later, part)
        np.testing.assert_array_equal(part, want_part)
        # once nothing refers to them, the arrays are handed out again
        del part, later
        count = len(pool._arrays)
        for seed in range(3):
            autodiff._attend(q, k, v, 0.5, p, seed)
        assert len(pool._arrays) == count

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_two_live_graphs_match_one_at_a_time(self, rng, pool, p):
        x, ws = head_leaves(rng, 30)
        named = {str(i): t for i, t in enumerate([x, *ws])}
        read = weighting(rng, 30, 4)

        def loss(seed):
            return read(attention_head(x, *ws, 0.7, p, seed))

        alone = [named_grads(loss(seed), named) for seed in (1, 2)]
        first, second = loss(1), loss(2)
        together = [named_grads(first, named), named_grads(second, named)]
        for one, other in zip(alone, together):
            for name in named:
                assert one[name].tobytes() == other[name].tobytes(), name

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_warm_step_allocates_no_square_array(self, pool, monkeypatch, p):
        # the traced peak of a step on a warm pool, against one on an empty
        # pool less the arrays it allocated: an n x n array made afresh in
        # the warm step would pass the one-array slack
        dataset = generate_sbm(SbmConfig((100, 100, 100), 0.1, 0.02, seed=1))
        basis = sym_eig(build_normalized_laplacian(dataset), unit_band=True)
        config = ModelConfig(
            dataset.feature_dim, dataset.num_classes, rk_order=4, dropout=p
        )
        params = init_params(config, 1)
        square = dataset.n**2 * 8
        central_step(dataset, basis, config, params)

        def traced_step():
            tracemalloc.start()
            try:
                central_step(dataset, basis, config, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        warm = traced_step()
        cold_pool = autodiff._ArrayPool()
        monkeypatch.setattr(autodiff, "_POOL", cold_pool)
        cold = traced_step()
        held = sum(a.nbytes for a in cold_pool._arrays)
        # 16 attention calls: 2 layers x 4 stages x 2 heads
        assert held == 16 * (square + (square // 8 if p else 0))
        assert warm < cold - held + square, (warm, cold - held, square)

    def test_shape_change_drops_free_arrays_of_old_shape(self, rng, pool):
        def attend(n, p=0.3):
            q, k, v = (rng.uniform(-1, 1, size=(n, 3)) for _ in range(3))
            return autodiff._attend(q, k, v, 0.5, p, 1)

        def pooled():
            return sorted((a.shape, a.dtype.str) for a in pool._arrays)

        held = [attend(30) for _ in range(2)]
        del held
        assert pooled() == [((30, 30), "<f8")] * 2 + [((30, 30), "|b1")] * 2
        kept = attend(20)[1]
        assert pooled() == [((20, 20), "<f8"), ((20, 20), "|b1")]
        # an array in use stays through a request for another shape; the
        # free mask beside it goes
        attend(30, p=0.0)
        assert pooled() == [((20, 20), "<f8"), ((30, 30), "<f8")]
        del kept
        attend(40, p=0.0)
        assert pooled() == [((40, 40), "<f8")]

    def test_threads_never_share_an_array(self, rng, pool, monkeypatch):
        class YieldingSys:
            # a thread switch between reading an array's reference count
            # and handing it out: without the lock two threads would both
            # find the same array free
            @staticmethod
            def getrefcount(a):
                time.sleep(0)
                return sys.getrefcount(a) - 1  # less this frame's reference

        monkeypatch.setattr(autodiff, "sys", YieldingSys)
        n, rounds = 60, 40
        inputs = [[rng.uniform(-1, 1, size=(n, 3)) for _ in range(3)] for _ in range(4)]
        want = [autodiff._attend(*qkv, 0.5, 0.2, i)[1].copy() for i, qkv in enumerate(inputs)]
        barrier = threading.Barrier(len(inputs), timeout=60)
        faults = []

        def worker(i):
            barrier.wait()
            for _ in range(rounds):
                weights = autodiff._attend(*inputs[i], 0.5, 0.2, i)[1]
                # other threads take arrays while this one is held
                time.sleep(0)
                if not np.array_equal(weights, want[i]):
                    faults.append(i)
                del weights

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == []
        # each thread held at most one E and one mask at a time
        assert len(pool._arrays) <= 2 * len(inputs)


def assert_same_bits(fused, plain, named, read):
    """Output and every gradient of two graphs over the same leaves agree
    bit for bit."""
    np.testing.assert_array_equal(fused.data, plain.data)
    got = named_grads(read(fused), named)
    want = named_grads(read(plain), named)
    for name in named:
        assert got[name].tobytes() == want[name].tobytes(), name


class TestFusedNodes:
    """Each fused node against the op composition it replaces. The input x
    also feeds a second consumer, so its gradient is a sum of several
    contributions whose order the fused backward must keep."""

    def test_linear_matches_composition(self, rng):
        x, w, b = leaf(rng, 6, 4), leaf(rng, 4, 3), leaf(rng, 1, 3)
        m1, m2 = leaf(rng, 4, 3), leaf(rng, 4, 3)
        read = weighting(rng, 6, 3)
        named = {"x": x, "w": w, "b": b, "m1": m1, "m2": m2}
        assert_same_bits(
            x @ m1 + linear(x, w, b) + x @ m2, x @ m1 + (x @ w + b) + x @ m2, named, read
        )

    def test_linear_constant_input(self, rng):
        x, w, b = Tensor(rng.uniform(-1, 1, (5, 4))), leaf(rng, 4, 2), leaf(rng, 1, 2)
        read = weighting(rng, 5, 2)
        assert_same_bits(linear(x, w, b), x @ w + b, {"w": w, "b": b}, read)
        check_against_fd(lambda: read(linear(x, w, b)), [w, b])

    def test_linear_gradients_match_finite_differences(self, rng):
        x, w, b = leaf(rng, 5, 4), leaf(rng, 4, 3), leaf(rng, 1, 3)
        read = weighting(rng, 5, 3)
        check_against_fd(lambda: read(linear(x, w, b)), [x, w, b])

    def test_linear_shape_mismatch(self, rng):
        with pytest.raises(NumericsError, match="linear shapes"):
            linear(leaf(rng, 5, 4), leaf(rng, 4, 3), leaf(rng, 5, 3))

    def test_layer_norm_affine_matches_composition(self, rng):
        x, gain, bias = leaf(rng, 6, 5, -2, 2), leaf(rng, 1, 5), leaf(rng, 1, 5)
        read = weighting(rng, 6, 5)
        named = {"x": x, "gain": gain, "bias": bias}
        assert_same_bits(
            layer_norm_affine(x, gain, bias) + x * x,
            (x.layer_norm_rows() * gain + bias) + x * x,
            named,
            read,
        )

    def test_layer_norm_affine_gradients_match_finite_differences(self, rng):
        x, gain, bias = leaf(rng, 4, 5, -2, 2), leaf(rng, 1, 5), leaf(rng, 1, 5)
        read = weighting(rng, 4, 5)
        check_against_fd(lambda: read(layer_norm_affine(x, gain, bias)), [x, gain, bias])

    def test_layer_norm_affine_shape_mismatch(self, rng):
        with pytest.raises(NumericsError, match="layer norm shapes"):
            layer_norm_affine(leaf(rng, 4, 5), leaf(rng, 1, 4), leaf(rng, 1, 4))

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_attention_head_matches_composition(self, rng, p):
        x = leaf(rng, 7, 4, -2, 2)
        wq, wk, wv = leaf(rng, 4, 2), leaf(rng, 4, 2), leaf(rng, 4, 3)
        wo, m = leaf(rng, 3, 4), leaf(rng, 4, 4)
        read = weighting(rng, 7, 4)
        named = {"x": x, "wq": wq, "wk": wk, "wv": wv, "wo": wo, "m": m}
        fused = lambda: attention_head(x, wq, wk, wv, wo, 0.5, p, seed=3) + x @ m
        written = formula_attention(x @ wq, x @ wk, x @ wv, 0.5, p, seed=3) @ wo + x @ m
        assert_same_bits(fused(), written, named, read)
        # the softmax composition, up to the last bits
        out, plain = fused(), unfused_head(x, wq, wk, wv, wo, 0.5, p, seed=3) + x @ m
        assert_close(out.data, plain.data)
        got, want = named_grads(read(out), named), named_grads(read(plain), named)
        for name in named:
            assert_close(got[name], want[name])

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_attention_head_gradients_match_finite_differences(self, rng, p):
        x = leaf(rng, 5, 4)
        ws = [leaf(rng, 4, 2), leaf(rng, 4, 2), leaf(rng, 4, 3), leaf(rng, 3, 4)]
        read = weighting(rng, 5, 4)
        check_against_fd(
            lambda: read(attention_head(x, *ws, 0.7, p, seed=11)), [x, *ws]
        )

    def test_attention_head_shape_mismatch(self, rng):
        x = leaf(rng, 5, 4)
        with pytest.raises(NumericsError, match="attention head shapes"):
            attention_head(
                x, leaf(rng, 4, 2), leaf(rng, 4, 3), leaf(rng, 4, 3), leaf(rng, 3, 4),
                1.0, 0.0, 0,
            )

    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_column_matches_one_hot_product(self, rng, index):
        t, m = leaf(rng, 5, 4), leaf(rng, 5, 1)
        onehot = np.zeros((4, 1))
        onehot[index, 0] = 1.0
        read = weighting(rng, 5, 1)
        assert_same_bits(
            t.column(index) * m, (t @ Tensor(onehot)) * m, {"t": t, "m": m},
            lambda out: read(out) + (t * t).sum(),
        )
        # the one-hot product's gradient, entry for entry (zeros off the column)
        np.testing.assert_array_equal(
            named_grads(read(t.column(index)), {"t": t})["t"],
            named_grads(read(t @ Tensor(onehot)), {"t": t})["t"],
        )

    def test_column_gradients_match_finite_differences(self, rng):
        t = leaf(rng, 5, 4)
        read = weighting(rng, 5, 1)
        check_against_fd(lambda: read(t.column(2)) + read(t.column(0)), [t])


# every public op and fused node as (input shapes, call over those inputs);
# backward() walks a node's parents in the order it holds them, so that
# order fixes every gradient sum
WIRED_OPS = {
    "add": ([(3, 4), (1, 4)], lambda a, b: a + b),
    "sub": ([(3, 4), (3, 1)], lambda a, b: a - b),
    "mul": ([(3, 4), (3, 4)], lambda a, b: a * b),
    "matmul": ([(3, 4), (4, 2)], lambda a, b: a @ b),
    "scale": ([(3, 4)], lambda a: a.scale(2.0)),
    "neg": ([(3, 4)], lambda a: -a),
    "transpose": ([(3, 4)], lambda a: a.T),
    "relu": ([(3, 4)], Tensor.relu),
    "gelu": ([(3, 4)], Tensor.gelu),
    "tanh": ([(3, 4)], Tensor.tanh),
    "sin": ([(3, 4)], Tensor.sin),
    "cos": ([(3, 4)], Tensor.cos),
    "exp": ([(3, 4)], Tensor.exp),
    "log": ([(3, 4)], Tensor.log),
    "softmax_rows": ([(3, 4)], Tensor.softmax_rows),
    "layer_norm_rows": ([(3, 4)], Tensor.layer_norm_rows),
    "column": ([(3, 4)], lambda a: a.column(2)),
    "sum": ([(3, 4)], Tensor.sum),
    "mean": ([(3, 4)], Tensor.mean),
    "dropout": ([(3, 4)], lambda a: dropout(a, 0.5, seed=1)),
    "linear": ([(3, 4), (4, 2), (1, 2)], linear),
    "layer_norm_affine": ([(3, 4), (1, 4), (1, 4)], layer_norm_affine),
    "attention_head": (
        [(5, 4), (4, 2), (4, 2), (4, 3), (3, 4)],
        lambda x, wq, wk, wv, wo: attention_head(x, wq, wk, wv, wo, 0.5, 0.2, 3),
    ),
    "masked_cross_entropy": (
        [(4, 3)],
        lambda z: masked_cross_entropy(z, [0, 1, 2, 1], [True, True, False, True]),
    ),
}


@pytest.mark.parametrize(
    "name, carrier",
    [(name, carrier) for name, (shapes, _) in WIRED_OPS.items()
     for carrier in (None, *range(len(shapes)))],
    ids=lambda v: v if isinstance(v, str) else ("constants" if v is None else f"grad{v}"),
)
def test_node_joins_graph_only_through_a_gradient_input(rng, name, carrier):
    """Over constants an op yields a constant. With input ``carrier`` the
    only one requiring a gradient, the output requires one and holds a
    backward rule and every input as a parent, in argument order."""
    shapes, call = WIRED_OPS[name]
    inputs = [
        Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=i == carrier)
        for i, shape in enumerate(shapes)
    ]
    out = call(*inputs)
    if carrier is None:
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
    else:
        assert out.requires_grad
        assert out._backward is not None
        assert len(out._parents) == len(inputs)
        assert all(p is t for p, t in zip(out._parents, inputs))


class TestForwardValues:
    def test_softmax_uniform(self):
        out = Tensor(np.zeros((1, 3))).softmax_rows()
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Tensor(rng.uniform(-5, 5, size=(6, 8))).softmax_rows()
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-12)

    def test_softmax_stable_at_large_logits(self):
        out = Tensor([[1000.0, 1000.0]]).softmax_rows()
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_layer_norm_moments(self, rng):
        out = Tensor(rng.uniform(-4, 4, size=(5, 16))).layer_norm_rows()
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(5), atol=1e-9)

    @pytest.mark.parametrize("width", [1, 7, 16, 100])
    def test_layer_norm_matches_mean_formula_bitwise(self, rng, width):
        x = leaf(rng, 6, width, lo=-4, hi=4)
        g = rng.standard_normal((6, width))
        out = x.layer_norm_rows()
        named_grads((out * Tensor(g)).sum(), {"x": x})

        d = x.data
        mu = d.mean(axis=1, keepdims=True)
        var = ((d - mu) ** 2).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        y = (d - mu) * inv
        grad = inv * (
            g - g.mean(axis=1, keepdims=True) - y * (g * y).mean(axis=1, keepdims=True)
        )
        assert out.data.tobytes() == y.tobytes()
        assert x.grad.tobytes() == grad.tobytes()

    def test_uniform_cross_entropy_is_log_classes(self):
        # uniform logits over 7 classes: loss is exactly ln 7
        logits = Tensor(np.zeros((5, 7)))
        labels = np.array([0, 1, 2, 3, 4])
        loss = masked_cross_entropy(logits, labels, np.ones(5, dtype=bool))
        assert abs(loss.item() - np.log(7)) < 1e-12

    def test_cross_entropy_mask_selects_rows(self):
        logits = Tensor([[10.0, 0.0], [0.0, 10.0]])
        labels = np.array([0, 0])
        only_first = masked_cross_entropy(logits, labels, np.array([True, False]))
        assert only_first.item() < 1e-4
        only_second = masked_cross_entropy(logits, labels, np.array([False, True]))
        assert only_second.item() > 5.0

    def test_gelu_values(self):
        # gelu(0) = 0; gelu is odd around 0 in the sense x*Phi(x)
        out = Tensor([[0.0, 1.0, -1.0]]).gelu()
        assert out.data[0, 0] == 0.0
        np.testing.assert_allclose(out.data[0, 1], 0.8413447460685429, atol=1e-12)
        np.testing.assert_allclose(out.data[0, 2], -0.15865525393145707, atol=1e-12)

    def test_gelu_matches_erf_formula_bitwise(self, rng):
        from scipy.special import erf

        edges = [[0.0, -0.0, 1e-300, -40.0, 40.0, 7.5, -7.5]]
        x = np.concatenate([rng.uniform(-6, 6, (5, 7)), edges])
        w = rng.uniform(-1, 1, x.shape)
        a = Tensor(x.copy(), requires_grad=True)
        out = a.gelu()
        grad = named_grads((out * Tensor(w)).sum(), {"a": a})["a"]
        cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        assert np.array_equal(out.data, x * cdf)
        assert np.array_equal(grad, w * (cdf + x * pdf))

    def test_dropout_eval_is_identity(self, rng):
        a = leaf(rng, 3, 3)
        assert dropout(a, 0.0, seed=1) is a

    def test_dropout_deterministic_by_seed(self, rng):
        a = leaf(rng, 8, 8)
        x = dropout(a, 0.5, seed=3).data
        y = dropout(a, 0.5, seed=3).data
        z = dropout(a, 0.5, seed=4).data
        np.testing.assert_array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_dropout_rescales_survivors(self, rng):
        a = Tensor(np.ones((100, 100)))
        out = dropout(a, 0.25, seed=5)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 4.0 / 3.0, atol=1e-12)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        grads = named_grads(w.sum(), {"w": w})
        np.testing.assert_array_equal(grads["w"], np.ones((2, 2)))

    def test_half_square_norm_gives_w(self, rng):
        w = leaf(rng, 3, 2)
        loss = (w * w).sum().scale(0.5)
        grads = named_grads(loss, {"w": w})
        np.testing.assert_allclose(grads["w"], w.data, atol=1e-12)

    def test_unreachable_param_gets_zeros(self, rng):
        w = leaf(rng, 2, 2)
        other = leaf(rng, 3, 3)
        grads = named_grads(w.sum(), {"w": w, "other": other})
        np.testing.assert_array_equal(grads["other"], np.zeros((3, 3)))
        # also after an earlier backward gave it a gradient
        params = ParamSet({"w": w, "other": other})
        backward(w.sum() + other.sum(), params)
        flat = backward(w.scale(2.0).sum(), params)
        np.testing.assert_array_equal(params.like(flat)["other"].data, np.zeros((3, 3)))
        assert other.grad is None

    def test_flat_gradient_is_the_tensor_grads_in_layout_order(self, rng):
        a, b, c = leaf(rng, 3, 2), leaf(rng, 1, 2), leaf(rng, 2, 3)
        frozen = Tensor(rng.uniform(-1, 1, (2, 2)))
        params = ParamSet({"a": a, "frozen": frozen, "b": b, "c": c})
        loss = ((a @ c).tanh() * b.T.sum()).sum() + (frozen * frozen).sum()
        flat = backward(loss, params)
        assert flat.dtype == np.float64 and flat.shape == params.flat.shape
        want = [np.zeros(4) if t.grad is None else t.grad.ravel() for t in params.values()]
        assert flat.tobytes() == np.concatenate(want).tobytes()
        assert frozen.grad is None and not flat[params.spans["frozen"]].any()
        assert all(t.grad.any() for t in (a, b, c))

    def test_non_scalar_loss_rejected(self, rng):
        w = leaf(rng, 2, 2)
        with pytest.raises(NumericsError, match="scalar"):
            named_grads(w + w, {"w": w})

    def test_reused_tensor_accumulates(self, rng):
        w = leaf(rng, 2, 2)
        grads = named_grads((w + w).sum(), {"w": w})
        np.testing.assert_array_equal(grads["w"], 2 * np.ones((2, 2)))

    def test_affine_chain_matches_product_rule(self, rng):
        # y = A(Bx + c) + d, loss = sum(y): dx = B^T A^T 1
        a = Tensor(rng.uniform(-1, 1, (3, 3)))
        b = Tensor(rng.uniform(-1, 1, (4, 3)))
        c = Tensor(rng.uniform(-1, 1, (1, 3)))
        d = Tensor(rng.uniform(-1, 1, (1, 3)))
        x = leaf(rng, 5, 4)
        loss = ((x @ b + c) @ a + d).sum()
        grads = named_grads(loss, {"x": x})
        ones = np.ones((5, 3))
        expected = ones @ a.data.T @ b.data.T
        np.testing.assert_allclose(grads["x"], expected, atol=1e-12)

    def test_deterministic_bit_for_bit(self, rng):
        def run():
            r = np.random.default_rng(42)
            x = Tensor(r.uniform(-1, 1, (4, 3)), requires_grad=True)
            w = Tensor(r.uniform(-1, 1, (3, 3)), requires_grad=True)
            loss = masked_cross_entropy(
                (x @ w).tanh(), np.array([0, 1, 2, 0]), np.ones(4, dtype=bool)
            )
            return named_grads(loss, {"x": x, "w": w})

        g1, g2 = run(), run()
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_deep_graph_no_recursion_limit(self):
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y.scale(1.0)
        grads = named_grads(y.sum(), {"x": x})
        np.testing.assert_array_equal(grads["x"], np.ones((1, 1)))

    def test_second_backward_on_one_loss_raises(self, rng):
        w = leaf(rng, 3, 2)
        loss = (w * w).sum()
        named_grads(loss, {"w": w})
        with pytest.raises(NumericsError, match="released"):
            named_grads(loss, {"w": w})

    def test_new_loss_over_released_graph_raises(self, rng):
        w = leaf(rng, 3, 2)
        hidden = w * w
        named_grads(hidden.sum(), {"w": w})
        with pytest.raises(NumericsError, match="released"):
            named_grads(hidden.sum(), {"w": w})

    def test_params_survive_release(self, rng):
        # a leaf reused across graphs keeps working, interior params keep
        # their gradient
        w = leaf(rng, 2, 2)
        hidden = w.scale(2.0)
        first = named_grads(hidden.sum(), {"w": w, "hidden": hidden})
        np.testing.assert_array_equal(first["hidden"], np.ones((2, 2)))
        second = named_grads(w.scale(3.0).sum(), {"w": w})
        np.testing.assert_array_equal(second["w"], 3 * np.ones((2, 2)))

    def test_nonfinite_gradient_detected(self):
        # backward hands the overflow on; the optimizer step rejects it
        w = Tensor(np.array([[1e300]]), requires_grad=True)
        params = ParamSet({"ok": Tensor(np.zeros((1, 2)), requires_grad=True), "w": w})
        state = init_optimizer(params, AdamConfig())
        with np.errstate(over="ignore", invalid="ignore"):
            loss = (w * w) * (w * w)
            flat = backward(loss.sum(), params)
        assert not np.isfinite(flat[params.spans["w"]]).any()
        with pytest.raises(NumericsError, match="non-finite gradient for 'w'"):
            adam_step(params, flat, state)


class TestErrors:
    def test_matmul_shape_mismatch(self, rng):
        with pytest.raises(NumericsError, match="matmul"):
            leaf(rng, 2, 3) @ leaf(rng, 2, 3)

    def test_add_incompatible(self, rng):
        with pytest.raises(NumericsError, match="broadcast"):
            leaf(rng, 2, 3) + leaf(rng, 3, 2)

    def test_log_nonpositive(self):
        with pytest.raises(NumericsError, match="non-positive"):
            Tensor([[0.0]]).log()

    def test_log_nonfinite(self):
        with pytest.raises(NumericsError, match="non-finite"):
            Tensor([[np.inf]]).log()

    def test_softmax_nonfinite(self):
        with pytest.raises(NumericsError, match="non-finite"):
            Tensor([[np.nan, 0.0]]).softmax_rows()

    def test_cross_entropy_empty_mask(self):
        with pytest.raises(DataError, match="empty mask"):
            masked_cross_entropy(
                Tensor(np.zeros((2, 3))), np.zeros(2, dtype=int), np.zeros(2, dtype=bool)
            )

    def test_cross_entropy_bad_labels(self):
        with pytest.raises(DataError, match="labels"):
            masked_cross_entropy(
                Tensor(np.zeros((2, 3))), np.array([0, 7]), np.ones(2, dtype=bool)
            )

    def test_cross_entropy_nonfinite_logits(self):
        with pytest.raises(NumericsError, match="non-finite"):
            masked_cross_entropy(
                Tensor(np.array([[np.nan, 0.0]])), np.zeros(1, dtype=int),
                np.ones(1, dtype=bool),
            )

    def test_tensor_must_be_2d(self):
        with pytest.raises(NumericsError, match="2-d"):
            Tensor(np.zeros((2, 2, 2)))

    def test_scalar_input_reshaped(self):
        assert Tensor(3.0).shape == (1, 1)

    def test_item_on_matrix(self, rng):
        with pytest.raises(NumericsError, match="item"):
            leaf(rng, 2, 2).item()

    def test_dropout_bad_probability(self, rng):
        with pytest.raises(NumericsError, match="probability"):
            dropout(leaf(rng, 2, 2), 1.0, seed=0)

    def test_no_debug_flag_allows_overflow(self):
        with np.errstate(over="ignore"):
            assert np.isinf(Tensor([[1000.0]]).exp().data[0, 0])


class TestProperties:
    @given(
        hnp.arrays(
            np.float64, (3, 4), elements=st.floats(min_value=-5, max_value=5, width=64)
        )
    )
    def test_softmax_rows_always_distributions(self, x):
        s = Tensor(x).softmax_rows().data
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=1), np.ones(3), atol=1e-12)

    @given(
        hnp.arrays(
            np.float64, (2, 6), elements=st.floats(min_value=-5, max_value=5, width=64)
        )
    )
    # a row of variance 5.3e-7: eps moves its output variance by 1.9e-6
    @example(np.array([[0.0] + [2.0**-9] * 5, [2.0**-9] * 6]))
    def test_layer_norm_always_standardizes(self, x):
        y = Tensor(x).layer_norm_rows().data
        np.testing.assert_allclose(y.mean(axis=1), np.zeros(2), atol=1e-9)
        # a row of variance v leaves with variance v / (v + eps): 0 for
        # constant rows, 1 once v is far above eps
        for row, src in zip(y, x):
            v = src.var()
            np.testing.assert_allclose(row.var(), v / (v + LAYER_NORM_EPS), atol=1e-6)
