"""Spectral graph transformer over eigenvalue tokens.

Pipeline: encode each Laplacian eigenvalue sinusoidally, project to the
model width, run a stack of transformer blocks integrated with an
explicit Runge-Kutta scheme while accumulating a normalized residual
history, decode per-eigenvalue filter channels, and classify nodes by
applying the filtered spectra to features through a convolution head.

All learnable state lives in a ParamSet; functions here are pure given
(params, seed).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Tensor,
    attention_head,
    dropout,
    layer_norm_affine,
    linear,
    masked_cross_entropy,
)
from .errors import ConfigError
from .fileio import atomic_writer
from .graphs import _INDEX_MAX, GraphDataset
from .optim import ParamSet
from .seeding import DROPOUT, INIT, derive_seed, rng_for
from .spectral import SpectralBasis

# Classical explicit tableaus; row i of A holds the coefficients that
# weight earlier stages when forming stage i's evaluation point.
RK_WEIGHTS = {
    1: (1.0,),
    2: (0.5, 0.5),
    4: (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
}
RK_STAGE_COEFFS = {
    1: ((),),
    2: ((), (1.0,)),
    4: ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
}

ACTIVATIONS = ("relu", "gelu", "tanh")

# Largest encoding temperature. Every basis passes the band check, which
# admits eigenvalues up to 2 + 1e-8 * n: below 4 for any n whose dense
# n x n basis fits in memory, so epsilon * eigenvalue stays finite.
EPSILON_MAX = float(np.finfo(np.float64).max) / 4.0


@dataclass
class ModelConfig:
    feature_dim: int
    classes: int
    d: int = 16
    heads: int = 2
    layers: int = 2
    rk_order: int = 2
    epsilon: float = 100.0
    hidden: int = 64
    dropout: float = 0.0
    activation: str = "relu"
    learn_rk_weights: bool = True

    def __post_init__(self):
        # past numpy's index range a size overflows in init_params, or
        # param_shapes' loop runs until memory gives out
        for name in ("feature_dim", "classes", "d", "heads", "layers", "hidden"):
            if getattr(self, name) > _INDEX_MAX:
                label = "width d" if name == "d" else name
                raise ConfigError(f"{label} past numpy's index limit {_INDEX_MAX}")
        if self.feature_dim < 1 or self.classes < 2:
            raise ConfigError("need feature_dim >= 1 and classes >= 2")
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigError(f"width d={self.d} must be even (sin/cos pairing)")
        if self.heads < 1:
            raise ConfigError(f"heads={self.heads} must be >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d={self.d}")
        if self.layers < 1:
            raise ConfigError("need at least one block")
        if self.rk_order not in RK_WEIGHTS:
            raise ConfigError(f"rk_order={self.rk_order} not one of 1, 2, 4")
        if not 0.0 < self.epsilon <= EPSILON_MAX:
            raise ConfigError(
                f"encoding temperature epsilon={self.epsilon} must be in "
                f"(0, {EPSILON_MAX!r}]"
            )
        if self.hidden < 1:
            raise ConfigError("head hidden width must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation {self.activation!r} not in {ACTIVATIONS}")

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def channels(self) -> int:
        """Filter channels: the identity channel plus one per head."""
        return self.heads + 1


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Single source of truth for parameter names, shapes, and order."""
    d, dh, c = config.d, config.head_dim, config.channels
    inner = 4 * d
    shapes: dict[str, tuple[int, int]] = {
        "input_proj/w": (d + 1, d),
        "input_proj/b": (1, d),
    }
    for l in range(config.layers):
        shapes[f"layer{l}/ln_hist/gain"] = (1, d)
        shapes[f"layer{l}/ln_hist/bias"] = (1, d)
        shapes[f"layer{l}/ln1/gain"] = (1, d)
        shapes[f"layer{l}/ln1/bias"] = (1, d)
        for h in range(config.heads):
            shapes[f"layer{l}/attn/q{h}"] = (d, dh)
            shapes[f"layer{l}/attn/k{h}"] = (d, dh)
            shapes[f"layer{l}/attn/v{h}"] = (d, dh)
            shapes[f"layer{l}/attn/o{h}"] = (dh, d)
        shapes[f"layer{l}/attn/b"] = (1, d)
        shapes[f"layer{l}/ln2/gain"] = (1, d)
        shapes[f"layer{l}/ln2/bias"] = (1, d)
        shapes[f"layer{l}/ffn/w1"] = (d, inner)
        shapes[f"layer{l}/ffn/b1"] = (1, inner)
        shapes[f"layer{l}/ffn/w2"] = (inner, d)
        shapes[f"layer{l}/ffn/b2"] = (1, d)
        shapes[f"layer{l}/rk_w"] = (1, config.rk_order)
    shapes["final_ln/gain"] = (1, d)
    shapes["final_ln/bias"] = (1, d)
    shapes["decoder/w1"] = (d, d)
    shapes["decoder/b1"] = (1, d)
    shapes["decoder/w2"] = (d, c)
    shapes["decoder/b2"] = (1, c)
    shapes["head/w_in"] = (config.feature_dim, config.hidden)
    shapes["head/b_in"] = (1, config.hidden)
    for m in range(c):
        shapes[f"head/mix{m}"] = (config.hidden, config.hidden)
    shapes["head/w_out"] = (config.hidden, config.classes)
    shapes["head/b_out"] = (1, config.classes)
    return shapes


def count_parameters(config: ModelConfig) -> int:
    return sum(r * c for r, c in param_shapes(config).values())


def init_params(config: ModelConfig, seed: int) -> ParamSet:
    """Glorot-uniform weights, zero biases, unit layer-norm gains, and
    classical RK combination weights (learnable unless frozen).
    """
    rng = rng_for(seed, INIT)
    tensors = {}
    for name, (rows, cols) in param_shapes(config).items():
        leaf = name.rsplit("/", 1)[-1]
        if leaf == "rk_w":
            data = np.array([RK_WEIGHTS[config.rk_order]])
            t = Tensor(data, requires_grad=config.learn_rk_weights)
        elif leaf == "gain":
            t = Tensor(np.ones((rows, cols)), requires_grad=True)
        elif leaf.startswith("b"):
            t = Tensor(np.zeros((rows, cols)), requires_grad=True)
        else:
            bound = math.sqrt(6.0 / (rows + cols))
            t = Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)
        tensors[name] = t
    # built in one go: each add() would copy the whole buffer again
    return ParamSet(tensors)


def eigen_encode(eigenvalues: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Lift each eigenvalue g to [g, sin/cos pairs of eps*g scaled by
    10000^(2i/d)]; returns an (n, d+1) array of constants.
    """
    g = np.asarray(eigenvalues, dtype=np.float64).reshape(-1, 1)
    half = config.d // 2
    i = np.arange(half)
    angles = config.epsilon * g / np.power(10000.0, 2.0 * i / config.d)
    out = np.empty((g.shape[0], config.d + 1))
    out[:, 0] = g[:, 0]
    out[:, 1::2] = np.sin(angles)
    out[:, 2::2] = np.cos(angles)
    return out


def transformer_layer_f(
    z: Tensor,
    params: ParamSet,
    layer: int,
    config: ModelConfig,
    seeds: Iterator[int] | None = None,
) -> Tensor:
    """One evaluation of the block's vector field: pre-norm multi-head
    self-attention over the eigen-tokens, then a pre-norm two-layer
    feed-forward. No internal skip connections; the integrator adds the
    input back outside this function. Dropout draws its seeds from
    ``seeds``; None is eval mode (no dropout).
    """
    if z.shape[1] != config.d:
        raise ConfigError(f"token width {z.shape[1]} != configured d={config.d}")
    p = lambda key: params[f"layer{layer}/{key}"]
    drop = 0.0 if seeds is None else config.dropout

    zn = layer_norm_affine(z, p("ln1/gain"), p("ln1/bias"))
    scale = 1.0 / math.sqrt(config.head_dim)
    mixed = None
    for h in range(config.heads):
        out = attention_head(
            zn, p(f"attn/q{h}"), p(f"attn/k{h}"), p(f"attn/v{h}"), p(f"attn/o{h}"),
            scale, drop, next(seeds) if drop else 0,
        )
        mixed = out if mixed is None else mixed + out
    mixed = mixed + p("attn/b")

    ff_in = layer_norm_affine(mixed, p("ln2/gain"), p("ln2/bias"))
    hidden = linear(ff_in, p("ffn/w1"), p("ffn/b1")).gelu()
    out = linear(hidden, p("ffn/w2"), p("ffn/b2"))
    if drop:
        out = dropout(out, drop, next(seeds))
    return out


def rk_increment(z: Tensor, f, order: int, weights: Tensor) -> Tensor:
    """Sum of weighted stage slopes, sum_i w_i k_i, where each stage is
    evaluated at z shifted by the tableau combination of earlier stages.
    """
    if order not in RK_STAGE_COEFFS:
        raise ConfigError(f"unsupported integration order {order}")
    if weights.shape != (1, order):
        raise ConfigError(
            f"stage weights shape {weights.shape} != (1, {order})"
        )
    slopes: list[Tensor] = []
    for coeffs in RK_STAGE_COEFFS[order]:
        point = z
        for j, a in enumerate(coeffs):
            if a != 0.0:
                point = point + slopes[j].scale(a)
        slopes.append(f(point))
    total = None
    for i, k in enumerate(slopes):
        term = k * weights.column(i)
        total = term if total is None else total + term
    return total


def rk_block(z: Tensor, f, order: int, weights: Tensor) -> Tensor:
    """One integration step: z plus the weighted stage increments."""
    return z + rk_increment(z, f, order, weights)


def residual_history_update(
    x_prev: Tensor, y_prev: Tensor, gain: Tensor, bias: Tensor
) -> tuple[Tensor, Tensor]:
    """Advance the layer history: add the block increment to the raw
    running sum, and return (normalized view, raw sum). The normalized
    view feeds the next block; the raw sum is the state that keeps
    accumulating.
    """
    if x_prev.shape != y_prev.shape:
        raise ConfigError(
            f"history shapes differ: {x_prev.shape} vs {y_prev.shape}"
        )
    raw = x_prev + y_prev
    return layer_norm_affine(raw, gain, bias), raw


def decode_eigenvalues(z_final: Tensor, params: ParamSet, config: ModelConfig) -> Tensor:
    """Two-layer gelu MLP mapping final token states to M filter
    channels; values are unconstrained reals.
    """
    hidden = linear(z_final, params["decoder/w1"], params["decoder/b1"]).gelu()
    return linear(hidden, params["decoder/w2"], params["decoder/b2"])


def spectral_conv_head(
    basis: SpectralBasis,
    gamma_new: Tensor,
    features: np.ndarray,
    params: ParamSet,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Filtered spectral convolution over node features.

    With H0 = act(X W_in), channel 0 fixed at 1 and mixers M_m, logits
    read out H0 + U (U^T H0 M_0 + sum_{m>=1} (gamma_m o U^T H0) M_m), that
    is sum_m U diag(gamma_m) U^T H0 M_m plus H0, with one U^T and one U
    product. Returns (logits, channels with column 0 set to 1 as data).
    """
    if gamma_new.shape != (basis.n, config.channels):
        raise ConfigError(
            f"filter channels {gamma_new.shape} != ({basis.n}, {config.channels})"
        )
    if features.shape != (basis.n, config.feature_dim):
        raise ConfigError(
            f"features {features.shape} != ({basis.n}, {config.feature_dim})"
        )
    x = Tensor(features)
    h0 = linear(x, params["head/w_in"], params["head/b_in"])
    h0 = getattr(h0, config.activation)()

    u = Tensor(basis.eigenvectors)
    projected = u.T @ h0  # U^T h0, shared by every channel's filter
    # filtered terms first (the same sums): backward then reaches the decoder
    # last, after the head's n x hidden gradients are freed
    mixed = projected @ params["head/mix0"]
    for m in range(1, config.channels):
        mixed = (gamma_new.column(m) * projected) @ params[f"head/mix{m}"] + mixed
    logits = linear(u @ mixed + h0, params["head/w_out"], params["head/b_out"])
    return logits, Tensor(np.column_stack([np.ones(basis.n), gamma_new.data[:, 1:]]))


def forward(
    dataset: GraphDataset,
    basis: SpectralBasis,
    config: ModelConfig,
    params: ParamSet,
    dropout_seed: int | None = None,
) -> tuple[Tensor, Tensor]:
    """Full pipeline from eigenvalues to logits.

    Returns (logits n x C, filter channels n x M); the head reads logits
    out of H0 + U (U^T H0 M_0 + sum_{m>=1} (gamma_m o U^T H0) M_m).
    Pure given (params, dropout_seed). A None seed is eval mode: no
    dropout, whatever config.dropout says.
    """
    if basis.n != dataset.n:
        raise ConfigError(f"basis over {basis.n} nodes, dataset has {dataset.n}")
    if dataset.feature_dim != config.feature_dim:
        raise ConfigError(
            f"dataset features {dataset.feature_dim} != config {config.feature_dim}"
        )
    if dataset.num_classes > config.classes:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes, config allows {config.classes}"
        )
    # deterministic per-call dropout seeds for this forward pass
    seeds = None
    if dropout_seed is not None:
        seeds = (derive_seed(dropout_seed, DROPOUT, i) for i in itertools.count())

    encoded = Tensor(eigen_encode(basis.eigenvalues, config))
    raw = linear(encoded, params["input_proj/w"], params["input_proj/b"])
    normalized = layer_norm_affine(
        raw, params["layer0/ln_hist/gain"], params["layer0/ln_hist/bias"]
    )
    for layer in range(config.layers):
        f = lambda z: transformer_layer_f(z, params, layer, config, seeds)
        increment = rk_increment(
            normalized, f, config.rk_order, params[f"layer{layer}/rk_w"]
        )
        if layer + 1 < config.layers:
            gain = params[f"layer{layer + 1}/ln_hist/gain"]
            bias = params[f"layer{layer + 1}/ln_hist/bias"]
        else:
            gain = params["final_ln/gain"]
            bias = params["final_ln/bias"]
        normalized, raw = residual_history_update(raw, increment, gain, bias)

    gamma_dec = decode_eigenvalues(normalized, params, config)
    return spectral_conv_head(basis, gamma_dec, dataset.features, params, config)


def loss_and_metrics(
    logits: Tensor, labels: np.ndarray, mask: np.ndarray
) -> tuple[Tensor, float]:
    """Masked mean cross-entropy and masked argmax accuracy."""
    loss = masked_cross_entropy(logits, labels, mask)
    mask = np.asarray(mask, dtype=bool)
    predicted = logits.data[mask].argmax(axis=1)
    accuracy = float(np.mean(predicted == np.asarray(labels)[mask]))
    return loss, accuracy


def write_filter_table(
    path: str | Path, eigenvalues: np.ndarray, gamma_channels: np.ndarray
) -> Path:
    """Export (original eigenvalue, per-channel filtered values) rows
    as a plain text table for external plotting.
    """
    path = Path(path)
    n, m = gamma_channels.shape
    header = "gamma_original " + " ".join(f"channel{i}" for i in range(m))
    table = np.column_stack([np.asarray(eigenvalues), gamma_channels])
    with atomic_writer(path) as fh:
        np.savetxt(fh, table, fmt="%.17g", header=header, comments="")
    return path
