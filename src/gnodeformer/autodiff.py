"""Minimal dense reverse-mode differentiation engine.

Tensors are 2-d float64 arrays (scalars are shape (1, 1)); labels and
masks stay plain numpy arrays. Each op passes _make the closure that
scatters the output gradient to its parents; _make attaches it, with the
parent links, only when some parent requires a gradient. backward()
replays those closures in reverse topological order. There is no tape
object: the graph is the web of parent references, confined to one
training task.

Broadcasting in add/sub/mul is limited to numpy's rules over 2-d
shapes; the backward pass sums gradients over broadcast axes.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, NumericsError

if TYPE_CHECKING:
    from .optim import ParamSet

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-12
# attention shifts row i of its scores by the Cauchy-Schwarz bound c_i
# while every c_i is at most this (see _attend): then each exp(s - c_i) is
# at least exp(-2 c_i) >= e^-128, a normal float, and 1 / rowsum stays
# below e^128, far from overflow in the backward's g / r. Any limit under
# 354 keeps exp(-2c) normal; past the limit the exact row max is used
_SHIFT_BOUND_LIMIT = 64.0
# _attend walks its n x n arrays in row tiles of about this many bytes,
# so that a tile's passes run in a core's L2 cache (2 MiB on the machine
# it was tuned on; 32 rows at n=1500). The row count depends on n alone,
# so the tiled sums are the same on every run
_ATTEND_TILE_BYTES = 384 * 1024


# erf in cephes' rational forms (ndtr.c; W. J. Cody, "Rational Chebyshev
# approximations for the error function", Math. Comp. 23, 1969): for
# 0 <= a < 1, erf(a) = a T(a^2) / U(a^2); for a >= 1, erf(a) = 1 - erfc(a)
# with erfc(a) = exp(-a^2) P(a) / Q(a). Coefficients run from the highest
# power down; U and Q are monic. Past a = 8 cephes takes erfc from another
# pair, R/S, but there erfc < 1.2e-29 and 1 - erfc rounds to 1, as it does
# with P/Q at a = 8, so a is clipped to 8 instead
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(coefs: tuple, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The polynomial with coefs (highest power first, at least two) at z,
    written into out (which may not be z) or a new array."""
    p = np.multiply(z, coefs[0], out=out)
    p += coefs[1]
    for c in coefs[2:]:
        p *= z
        p += c
    return p


def _erf_scaled(x: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """erf(x / sqrt 2), a new array; nan stays nan. gauss is
    exp(-0.5 * x * x) over x, the factor of the erfc tail."""
    # C order, so that erf, which takes a's layout, has a flat view
    a = np.multiply(x, _INV_SQRT2, order="C")
    # |a| < 1: every entry, a clipped to [-1, 1] so that no square
    # overflows; a T / U is odd in a, so its sign is erf's. The entries
    # with |a| >= 1, where the clipped square is 1, are overwritten below
    small = np.clip(a, -1.0, 1.0)
    z = small * small
    erf = _horner(_ERF_T, z)
    erf *= small
    erf /= _horner(_ERF_U, z, out=small)
    tail = np.flatnonzero(z >= 1.0)
    gauss_t = np.take(gauss, tail)
    at = np.take(a, tail)
    mag = np.minimum(np.abs(at), 8.0)
    gauss_t *= _horner(_ERFC_P, mag)
    gauss_t /= _horner(_ERFC_Q, mag)
    erf.reshape(-1)[tail] = np.copysign(1.0 - gauss_t, at)
    return erf


class _ArrayPool:
    """Arrays that outlive one _attend call and are reused by the next.

    A forward holds its n x n E arrays (and, with dropout, their masks)
    until its backward. Allocated afresh each step, they would land on
    pages that glibc gave back to the kernel when the last backward freed
    them, and every forward would fault them in again.

    take() returns a view of a pooled array that no other array refers
    to. Whether an array is in use is read from the pooled array's own
    reference count: every view, and every slice of a view, refers to the
    array that owns the memory, so it is free only when none is left. A
    finalizer on the handed-out view would not do, since a slice can
    outlive the view. When no free array of the shape asked for exists,
    the free arrays of every other shape are dropped before a new one is
    made, so that callers whose sizes change (federated clients) do not
    hoard memory. One lock guards the pool, which the federated thread
    pool shares.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # what _refs() reads for an array nothing else refers to (3 in
        # CPython 3.11: the list, the loop variable and getrefcount's
        # argument), measured on a probe rather than assumed, so that an
        # interpreter that counts otherwise neither hands out arrays in
        # use nor stops reusing free ones
        self._arrays = [np.empty(0)]
        (self._free_refs,) = self._refs()
        self._arrays = []

    def _refs(self) -> list[int]:
        return [sys.getrefcount(held) for held in self._arrays]

    def take(self, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
        """A writable view of a free pooled array of shape and dtype,
        whose entries hold whatever the last user left."""
        with self._lock:
            free = [refs == self._free_refs for refs in self._refs()]
            for held, unused in zip(self._arrays, free):
                if unused and held.shape == shape and held.dtype == dtype:
                    return held.view()
            self._arrays = [held for held, unused in zip(self._arrays, free)
                            if held.shape == shape or not unused]
            fresh = np.empty(shape, dtype)
            self._arrays.append(fresh)
            return fresh.view()


_POOL = _ArrayPool()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise NumericsError(f"tensors are 2-d, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # binary ops --------------------------------------------------------

    def __add__(self, other):
        return _broadcast_op(self, other, np.add, lambda a, b, g: g, lambda a, b, g: g)

    def __sub__(self, other):
        return _broadcast_op(self, other, np.subtract, lambda a, b, g: g, lambda a, b, g: -g)

    def __mul__(self, other):
        return _broadcast_op(
            self, other, np.multiply, lambda a, b, g: g * b.data, lambda a, b, g: g * a.data
        )

    def __matmul__(self, other):
        a, b = self, _as_tensor(other)
        if a.data.shape[1] != b.data.shape[0]:
            raise NumericsError(
                f"matmul shapes {a.data.shape} and {b.data.shape} incompatible"
            )

        def backward(g):
            if a.requires_grad:
                _acc(a, g @ b.data.T)
            if b.requires_grad:
                _acc(b, a.data.T @ g)

        return _make(a.data @ b.data, (a, b), backward)

    def scale(self, c: float):
        """Multiply by a python constant."""
        c = float(c)
        return _make(self.data * c, (self,), lambda g: _acc(self, g * c))

    def __neg__(self):
        return self.scale(-1.0)

    # shape ops ---------------------------------------------------------

    def transpose(self):
        return _make(self.data.T, (self,), lambda g: _acc(self, g.T))

    @property
    def T(self):
        return self.transpose()

    # unary elementwise ------------------------------------------------

    def relu(self):
        mask = self.data > 0
        return _make(self.data * mask, (self,), lambda g: _acc(self, g * mask))

    def gelu(self):
        # exact form x * Phi(x) with the Gaussian CDF Phi(x) = (1 + erf(x /
        # sqrt 2)) / 2, not the tanh fit. exp(-x^2 / 2) is the slope's pdf
        # and the erf tail's factor
        x = self.data
        gauss = np.exp(-0.5 * x * x)
        cdf = _erf_scaled(x, gauss)
        cdf += 1.0
        cdf *= 0.5
        # the slope now, not in backward: there its temporaries raise the peak RSS
        gauss *= _INV_SQRT_2PI
        local = cdf + x * gauss
        return _make(x * cdf, (self,), lambda g: _acc(self, g * local))

    def tanh(self):
        y = np.tanh(self.data)
        return _make(y, (self,), lambda g: _acc(self, g * (1.0 - y * y)))

    def sin(self):
        x = self.data
        return _make(np.sin(x), (self,), lambda g: _acc(self, g * np.cos(x)))

    def cos(self):
        x = self.data
        return _make(np.cos(x), (self,), lambda g: _acc(self, g * -np.sin(x)))

    def exp(self):
        y = np.exp(self.data)
        return _make(y, (self,), lambda g: _acc(self, g * y))

    def log(self):
        if not np.isfinite(self.data).all():
            raise NumericsError("log on non-finite input")
        if (self.data <= 0).any():
            raise NumericsError("log on non-positive input")
        return _make(np.log(self.data), (self,), lambda g: _acc(self, g / self.data))

    # row ops ------------------------------------------------------------

    def softmax_rows(self):
        if not np.isfinite(self.data).all():
            raise NumericsError("softmax on non-finite input")
        s = self.data - self.data.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=1, keepdims=True)

        def backward(g):
            dot = (g * s).sum(axis=1, keepdims=True)
            _acc(self, (g - dot) * s)

        return _make(s, (self,), backward)

    def layer_norm_rows(self):
        """Normalize each row to mean 0 and variance 1 (no affine part;
        layer_norm_affine() adds the gain and bias).
        """
        y, inv = _layer_norm(self.data)
        return _make(y, (self,), lambda g: _acc(self, _layer_norm_grad(g, y, inv)))

    def column(self, index: int):
        """Column ``index`` as an (n, 1) tensor. Its gradient is the output
        gradient in that column and zero elsewhere: the values of the
        product with a one-hot column, without the product.
        """

        def backward(g):
            grad = np.zeros_like(self.data)
            grad[:, index : index + 1] = g
            _acc(self, grad)

        return _make(self.data[:, index : index + 1].copy(), (self,), backward)

    # reductions ----------------------------------------------------------

    def sum(self):
        def backward(g):
            _acc(self, np.full_like(self.data, g[0, 0]))

        return _make(self.data.sum().reshape(1, 1), (self,), backward)

    def mean(self):
        def backward(g):
            _acc(self, np.full_like(self.data, g[0, 0] / self.data.size))

        return _make(self.data.mean().reshape(1, 1), (self,), backward)

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise NumericsError(f"item() on non-scalar shape {self.data.shape}")
        return float(self.data[0, 0])


# helpers ------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """A node of value data whose backward(g) passes its gradient g on to
    parents. It keeps parents (walked in this order by backward()) and
    backward only when some parent requires a gradient."""
    node = Tensor(data)
    for p in parents:
        if p.requires_grad:
            node.requires_grad = True
            node._parents = parents
            node._backward = backward
            break
    return node


def _acc(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def _layer_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x at mean 0 and variance 1, and the per-row 1/std."""
    # sum / d rather than mean: the same bits, without mean's dispatch
    d = x.shape[1]
    mu = x.sum(axis=1, keepdims=True) / d
    var = ((x - mu) ** 2).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return (x - mu) * inv, inv


def _layer_norm_grad(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Input gradient of _layer_norm for output y and output gradient g."""
    d = y.shape[1]
    gm = g.sum(axis=1, keepdims=True) / d
    gym = (g * y).sum(axis=1, keepdims=True) / d
    return inv * (g - gm - y * gym)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    out = g
    for axis in (0, 1):
        if shape[axis] == 1 and out.shape[axis] != 1:
            out = out.sum(axis=axis, keepdims=True)
    if out.shape != shape:
        raise NumericsError(f"cannot reduce gradient {g.shape} to {shape}")
    return out


def _broadcast_op(a: Tensor, b, fwd, grad_a, grad_b) -> Tensor:
    """fwd(a, b) with numpy broadcasting; grad_a(a, b, g) and grad_b(a, b, g)
    give each operand's gradient before unbroadcasting, and run only for an
    operand that requires one.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise NumericsError(
            f"shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from exc

    def backward(g):
        if a.requires_grad:
            _acc(a, grad_a(a, b, g))
        if b.requires_grad:
            _acc(b, grad_b(a, b, g))

    return _make(data, (a, b), backward)


# free-function ops ---------------------------------------------------------


def dropout(t: Tensor, p: float, seed: int) -> Tensor:
    """Inverted dropout: zero entries with probability p and rescale the
    survivors by 1/(1-p). Identity when p=0. The mask is a pure function
    of the seed.
    """
    scale = _keep_scale(p)
    if p == 0.0:
        return t
    keep = np.random.default_rng(seed).random(t.data.shape) >= p
    return _make(t.data * keep * scale, (t,), lambda g: _acc(t, g * keep * scale))


def _keep_scale(p: float) -> float:
    """Inverted dropout's factor 1/(1-p), for p checked to lie in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise NumericsError(f"dropout probability {p} outside [0, 1)")
    return 1.0 / (1.0 - p)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, for a (1, cols) bias row b.

    Bit for bit the matmul-then-add composition: backward passes the
    gradients to b, x and w in that order, as the add and matmul nodes
    did, so every gradient sum keeps its order.
    """
    if x.data.shape[1] != w.data.shape[0] or b.data.shape != (1, w.data.shape[1]):
        raise NumericsError(
            f"linear shapes x {x.data.shape}, w {w.data.shape}, b {b.data.shape} "
            "incompatible"
        )
    data = x.data @ w.data
    data += b.data

    def backward(g):
        if b.requires_grad:
            _acc(b, g)
        if x.requires_grad:
            _acc(x, g @ w.data.T)
        if w.requires_grad:
            _acc(w, x.data.T @ g)

    return _make(data, (x, w, b), backward)


def layer_norm_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """x.layer_norm_rows() * gain + bias as one node, for (1, cols) rows
    gain and bias.

    Bit for bit the composition: backward passes the gradients to bias,
    gain and x in that order, as the add, multiply and normalization nodes
    did.
    """
    if gain.data.shape != (1, x.data.shape[1]) or bias.data.shape != gain.data.shape:
        raise NumericsError(
            f"layer norm shapes x {x.data.shape}, gain {gain.data.shape}, "
            f"bias {bias.data.shape} incompatible"
        )
    y, inv = _layer_norm(x.data)
    data = y * gain.data
    data += bias.data

    def backward(g):
        if bias.requires_grad:
            _acc(bias, g)
        if gain.requires_grad:
            _acc(gain, g * y)
        if x.requires_grad:
            _acc(x, _layer_norm_grad(g * gain.data, y, inv))

    return _make(data, (x, gain, bias), backward)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, p: float, seed: int):
    """Scaled dot-product attention over arrays, walking the n x n array
    in row tiles.

    Returns (context, weights, row_sums, grads). For the scores S =
    (q * scale) k^T, weights is the read-only E = exp(S - c) with one
    shift c_i per row, and row_sums is r, the row sums of E, so that
    P = E / r is softmax_rows(S). context is dropout(P, p, seed) v,
    computed as (dropout(E, p, seed) v) / r: the division is deferred to
    the n x dh context.

    The forward and the backward each make one sweep over E in tiles of
    about _ATTEND_TILE_BYTES, so that each tile's elementwise passes and
    its products run in cache. The tile's row count depends on n alone,
    so a run sums in the same order every time. Per tile the forward
    writes the score product straight into E's rows, takes exp in place
    and multiplies the tile by [v | 1], whose last column is r. With
    dropout the tile's mask is drawn into a tile-sized buffer (the same
    draws as one whole-array draw), the tile times the mask is multiplied
    by v * keep_scale, and r is the tile's row sums, taken before the
    mask.

    The shift is a bound, not the row max: c_i = |qs_i| max_j |k_j| for
    qs = q * scale. By Cauchy-Schwarz |S_ij| <= c_i, so S_ij - c_i lies
    in [-2 c_i, 0] (up to rounding). It enters the score product as one
    more column, E = exp([qs | -c] [k | 1]^T), so there is no subtract
    pass, and while max c_i <= _SHIFT_BOUND_LIMIT no score can be
    non-finite, so there is no finiteness scan either. Otherwise (a large
    bound, or a NaN or inf in q or k, which makes the bound NaN or inf)
    it falls back to the unshifted scores: it checks each tile for
    finiteness, raising NumericsError on a non-finite score, and shifts
    each row by its exact max.

    grads(g) gives all three of (dv, dq, dk) for context gradient g.
    The softmax backward's row term, rowsum(dP * P), comes from the n x dh
    context (as in FlashAttention's backward), so each tile of dS is its
    product and one multiply by E's tile, made in one tile-sized buffer;
    dq's rows are written per tile, and dv and dk^T are summed over tiles.
    grads holds no n x n array of its own, and the context is read-only
    like E.

    E, and with dropout its boolean mask, come from _POOL: an array that
    no graph refers to any more (its backward has run, or an eval forward
    was dropped) is handed to the next call of the same shape, so a
    step's n x n memory stays mapped across steps. Every entry of both is
    overwritten, so reuse changes no bits.
    """
    n, m = q.shape[0], k.shape[0]
    dh = v.shape[1]
    keep_scale = _keep_scale(p)
    rows = _tile_rows(m)
    tiles = [slice(i, i + rows) for i in range(0, n, rows)]
    scale = float(scale)
    qs = q * scale
    # a NaN or inf here (0 * inf, an overflowing square) only sends the
    # kernel to the checked fallback
    with np.errstate(over="ignore", invalid="ignore"):
        shift = np.sqrt((qs * qs).sum(axis=1, keepdims=True))
        shift *= np.sqrt((k * k).sum(axis=1)).max()
    bound = shift.max() <= _SHIFT_BOUND_LIMIT
    if bound:
        lhs, rhs = np.hstack((qs, -shift)), np.hstack((k, np.ones((m, 1))))
    else:
        lhs, rhs = qs, k
    weights = _POOL.take((n, m))
    if p:
        rng = np.random.default_rng(seed)
        keep = _POOL.take((n, m), bool)
        buf = np.empty((min(rows, n), m))
        vs = v * keep_scale
        context, row_sums = np.empty((n, dh)), np.empty((n, 1))
    else:
        keep = None
        vo = np.hstack((v, np.ones((m, 1))))
        out = np.empty((n, dh + 1))
    for s in tiles:
        tile = weights[s]
        np.matmul(lhs[s], rhs.T, out=tile)
        if not bound:
            if not np.isfinite(tile).all():
                raise NumericsError("softmax on non-finite input")
            tile -= tile.max(axis=1, keepdims=True)
        np.exp(tile, out=tile)
        if keep is None:
            np.matmul(tile, vo, out=out[s])
            continue
        d = buf[: len(tile)]
        rng.random(out=d)
        np.greater_equal(d, p, out=keep[s])
        _masked(tile, keep[s], d)
        np.matmul(d, vs, out=context[s])
        tile.sum(axis=1, keepdims=True, out=row_sums[s])
    if keep is None:
        row_sums = out[:, dh:].copy()
        context = out[:, :dh] / row_sums
    else:
        context /= row_sums
    weights.flags.writeable = False
    # grads reads the context: a caller's edit would corrupt dq and dk
    context.flags.writeable = False

    def grads(g):
        gs = g / row_sums
        # dS = (dP - rowsum(dP * P)) * P for P = E / r and dP = dropout(g
        # v^T) is (B - delta) * E for B = dropout(gs v^T), where delta =
        # rowsum(B * E) / r equals rowsum(gs * context): the context
        # already holds the dropout and the division by r, so no n x n pass
        # makes delta. Without dropout delta enters the dS product as one
        # more column, as the shift does in the forward; with dropout it is
        # subtracted after the mask
        delta = (gs * context).sum(axis=1, keepdims=True)
        dq = np.empty((n, k.shape[1]))
        dkt = np.empty((k.shape[1], m))
        if keep is None:
            lhs = np.hstack((gs, -delta))
        else:
            # dropout(E) = (E * keep) * keep_scale: the scale goes to gs
            gs *= keep_scale
        dv = np.empty((m, dh))
        buf = np.empty((min(rows, n), m))
        for t, s in enumerate(tiles):
            tile = weights[s]
            ds = buf[: len(tile)]
            dropped = tile if keep is None else _masked(tile, keep[s], ds)
            _sum_product(dv, dropped.T, gs[s], t == 0)
            if keep is None:
                np.matmul(lhs[s], vo.T, out=ds)
            else:
                np.matmul(gs[s], v.T, out=ds)
                ds *= keep[s]
                ds -= delta[s]
            ds *= tile
            np.matmul(ds, k, out=dq[s])
            # (qs^T dS)^T rather than dS^T qs: the product and layout the
            # unfused matmul-then-transpose backward passes on
            _sum_product(dkt, qs[s].T, ds, t == 0)
        dq *= scale
        return dv, dq, dkt.T

    return context, weights, row_sums, grads


def _tile_rows(cols: int) -> int:
    """Rows in one of _attend's tiles of an n x cols array."""
    return max(1, _ATTEND_TILE_BYTES // (8 * cols))


def _masked(tile: np.ndarray, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = tile * keep, with the mask copied in first: a float multiply
    after the copy is faster than numpy's mixed bool-float multiply."""
    np.copyto(out, keep)
    out *= tile
    return out


def _sum_product(acc: np.ndarray, a: np.ndarray, b: np.ndarray, first: bool):
    """acc = a @ b for the first tile, acc += a @ b for later ones."""
    if first:
        np.matmul(a, b, out=acc)
    else:
        acc += a @ b


def attention_head(
    x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
    scale: float, p: float, seed: int,
) -> Tensor:
    """One attention head as one node: dropout(softmax_rows((q * scale)
    k^T), p, seed) v wo for q, k, v = x wq, x wk, x wv (see _attend).

    The softmax differs from the Tensor composition of those ops in the
    last bits: _attend shifts each row of scores by the Cauchy-Schwarz
    bound |qs_i| max_j |k_j| inside the score product (by the exact row
    max, after a finiteness check, when that bound passes
    _SHIFT_BOUND_LIMIT or is not finite), keeps E = exp(S - c) and its row
    sums r, and divides the context, not the n x n weights, by r. It walks
    E in row tiles of about _ATTEND_TILE_BYTES, and without dropout r is
    the last column of each tile's product with [v | 1]. Its backward
    likewise takes the softmax's row term rowsum(dP * P) from the context,
    rowsum((g / r) * context), and without dropout folds it into each
    tile's dS product as one more column; dv and dk are summed over the
    tiles. The products around it are the composition's, and
    backward passes the gradients to wo, then x and wv, x and wk, x and
    wq, the order in which the unfused nodes did.
    """
    xd = x.data
    if not (
        wq.data.shape == wk.data.shape
        and wq.data.shape[0] == wv.data.shape[0] == xd.shape[1]
        and wo.data.shape[0] == wv.data.shape[1]
    ):
        raise NumericsError(
            f"attention head shapes x {xd.shape}, q {wq.data.shape}, "
            f"k {wk.data.shape}, v {wv.data.shape}, o {wo.data.shape} incompatible"
        )
    context, _, _, grads = _attend(xd @ wq.data, xd @ wk.data, xd @ wv.data, scale, p, seed)

    def backward(g):
        dctx = g @ wo.data.T
        if wo.requires_grad:
            _acc(wo, context.T @ g)
        dv, dq, dk = grads(dctx)
        for d, w in ((dv, wv), (dk, wk), (dq, wq)):
            if x.requires_grad:
                _acc(x, d @ w.data.T)
            if w.requires_grad:
                _acc(w, xd.T @ d)

    return _make(context @ wo.data, (x, wq, wk, wv, wo), backward)


def masked_cross_entropy(logits: Tensor, labels, mask) -> Tensor:
    """Mean cross-entropy of logits rows selected by a boolean mask.

    Fused with log-softmax for stability; the backward rule is
    (softmax - onehot) / count on masked rows, zero elsewhere.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n, c = logits.data.shape
    if labels.shape != (n,) or mask.shape != (n,):
        raise DataError("labels and mask must have one entry per logits row")
    count = int(mask.sum())
    if count == 0:
        raise DataError("cross-entropy over an empty mask")
    if labels[mask].min() < 0 or labels[mask].max() >= c:
        raise DataError(f"masked labels outside [0, {c})")
    if not np.isfinite(logits.data).all():
        raise NumericsError("cross-entropy on non-finite logits")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -logp[mask, labels[mask]].sum() / count

    def backward(g):
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        grad *= mask[:, None] / count
        _acc(logits, grad * g[0, 0])

    return _make(np.array([[loss]]), (logits,), backward)


def _released(g):
    raise NumericsError("backward through a graph that an earlier backward released")


def backward(loss: Tensor, params: ParamSet) -> np.ndarray:
    """Gradient of a scalar loss for the parameters, as one float64
    buffer laid out like ``params.flat`` (``params.like(g)`` reads it by
    name). Parameters with no path to the loss get zeros. .grad fields on
    the graph and the parameters are scratch state owned by this call.

    The graph is consumed: once a node's gradient has been passed to its
    parents, every tensor not in params drops its gradient, backward
    rule and parent links, so activations are freed as the sweep goes. A
    second backward through a released node raises NumericsError.
    """
    if loss.data.shape != (1, 1):
        raise NumericsError(f"loss must be scalar, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            topo.append(node)
            stack.pop()

    # the parameters too: one this loss does not reach reads zeros, not
    # an earlier backward's gradient
    for node in (*topo, *params.values()):
        node.grad = None
    loss.grad = np.ones((1, 1))
    kept = {id(p) for p in params.values()}
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if id(node) not in kept:
            node.grad = None
            if node._parents:
                node._backward = _released
                node._parents = ()

    grad = np.zeros(params.flat.size)
    for name, p in params.items():
        if p.grad is not None:
            grad[params.spans[name]] = p.grad.ravel()
    return grad
