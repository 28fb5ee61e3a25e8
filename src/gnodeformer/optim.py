"""Named parameter collections, the Adam optimizer, and binary
parameter checkpoints.

ParamSet keeps insertion order, so gradients, Adam moments, checkpoints
and federated averaging all agree on one canonical parameter layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericsError
from .fileio import atomic_writer

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")

CHECKPOINT_MAGIC = b"gnodeformer-params v1\n"

# Adam moment decay rates and denominator floor (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# largest gradient entry Adam takes: above it g * g, or v / bc2 at t = 1,
# overflows the second moment to inf, and nan or inf fail it too
MAX_GRAD = float(np.sqrt(np.finfo(np.float64).max))


class ParamSet:
    """Ordered name -> Tensor map with a canonical flat layout.

    Every tensor's data is a view of one float64 buffer, ``flat``, laid out
    in insertion order; ``spans`` gives each name its slice. Gradients, Adam
    moments and FedAvg sums are buffers of the same layout, so whole-set
    arithmetic runs as a few vector operations, and ``like`` reads any such
    buffer by name. Parameters change in place; rebinding a tensor's
    ``data`` would detach it from the buffer.
    """

    def __init__(self, items: dict[str, Tensor] | None = None):
        self._items: dict[str, Tensor] = dict(items or {})
        for name in self._items:
            if not _NAME_RE.match(name):
                raise ConfigError(f"bad parameter name {name!r}")
        # one tensor bound under two names would be a view of only the
        # second span, leaving the first one orphaned
        seen: dict[int, str] = {}
        for name, tensor in self._items.items():
            if id(tensor) in seen:
                raise ConfigError(
                    f"duplicate parameter: one tensor named {seen[id(tensor)]!r} and {name!r}"
                )
            seen[id(tensor)] = name
        parts = [t.data.ravel() for t in self._items.values()]
        self._bind(np.concatenate(parts) if parts else np.zeros(0))

    def _bind(self, flat: np.ndarray):
        """Make ``flat`` the buffer and rebind every tensor as a view of it."""
        spans, offset = {}, 0
        for name, tensor in self._items.items():
            spans[name] = slice(offset, offset + tensor.data.size)
            offset += tensor.data.size
        if offset != flat.size:
            raise ConfigError(f"layout of {offset} entries over a buffer of {flat.size}")
        self.flat, self.spans = flat, spans
        for name, tensor in self._items.items():
            tensor.data = flat[spans[name]].reshape(tensor.data.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items)

    def items(self):
        return self._items.items()

    def values(self):
        return self._items.values()

    def layout(self) -> list[tuple[str, tuple[int, int]]]:
        """(name, shape) per parameter, in layout order."""
        return [(name, t.data.shape) for name, t in self._items.items()]

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())

    def like(self, flat: np.ndarray) -> "ParamSet":
        """A set with this one's names, shapes and requires_grad flags whose
        tensors are views of ``flat`` (not copied)."""
        out = ParamSet()
        out._items = {
            name: Tensor(t.data, requires_grad=t.requires_grad)
            for name, t in self._items.items()
        }
        out._bind(flat)
        return out


@dataclass
class AdamConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"learning rate {self.lr} must be positive and finite")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight decay {self.weight_decay} must be finite and >= 0")


@dataclass(eq=False)  # array fields: no elementwise __eq__
class OptimizerState:
    """Adam step count and moments.

    The moments are flat buffers laid out like the parameters'
    ``ParamSet.flat``; ``params.like(state.m_flat)`` reads them by name.
    """

    config: AdamConfig
    m_flat: np.ndarray
    v_flat: np.ndarray
    t: int = 0

    def copy(self) -> "OptimizerState":
        return OptimizerState(self.config, self.m_flat.copy(), self.v_flat.copy(), self.t)


def init_optimizer(params: ParamSet, config: AdamConfig) -> OptimizerState:
    size = params.flat.size
    return OptimizerState(config, np.zeros(size), np.zeros(size))


def adam_step(params: ParamSet, g: np.ndarray, state: OptimizerState):
    """One in-place Adam update with bias correction for the gradient
    ``g``, a buffer laid out like ``params.flat``; epsilon is added after
    the square root. Weight decay is decoupled from the moments and leaves
    tensors that take no gradient as they are.

    The update runs over the flat parameter and moment buffers; per entry
    it is the same arithmetic as a per-tensor update, so the bits agree.
    Before anything mutates, a gradient entry that is not finite or is
    above MAX_GRAD in magnitude raises NumericsError naming its
    parameter, so a rejected step leaves parameters and state untouched.
    """
    cfg = state.config
    if g.shape != params.flat.shape:
        raise ConfigError(
            f"gradient shape {g.shape} != flat parameter shape {params.flat.shape}"
        )
    if not np.abs(g).max(initial=0.0) <= MAX_GRAD:
        # the per-parameter search runs only to name the culprit
        bad = next(name for name, span in params.spans.items()
                   if not np.abs(g[span]).max(initial=0.0) <= MAX_GRAD)
        kind = "overflowing" if np.isfinite(g[params.spans[bad]]).all() else "non-finite"
        raise NumericsError(f"{kind} gradient for {bad!r}; step aborted")

    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    m, v = state.m_flat, state.v_flat
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    update = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    if cfg.weight_decay:
        decay = cfg.lr * cfg.weight_decay * params.flat
        for name, tensor in params.items():
            if not tensor.requires_grad:
                decay[params.spans[name]] = 0.0
        update = update + decay
    params.flat -= update
    return params, state


# ---------------------------------------------------------------------------
# Checkpoints: magic line, entry count, then per entry a text line
# "name rows cols" followed by rows*cols little-endian float64 bytes.
# ---------------------------------------------------------------------------


def save_checkpoint(params: ParamSet, path: str | Path) -> Path:
    path = Path(path)
    with atomic_writer(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(f"{len(params)}\n".encode())
        for name, tensor in params.items():
            rows, cols = tensor.data.shape
            fh.write(f"{name} {rows} {cols}\n".encode())
            fh.write(tensor.data.astype("<f8").tobytes())
    return path


def load_checkpoint(path: str | Path) -> ParamSet:
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise DataError(
                f"{path}: not a parameter checkpoint (header {magic!r})"
            )
        try:
            n_entries = int(fh.readline())
        except ValueError as exc:
            raise DataError(f"{path}: bad entry count") from exc
        if n_entries < 0:
            raise DataError(f"{path}: negative entry count {n_entries}")
        entries: dict[str, Tensor] = {}
        for _ in range(n_entries):
            line = fh.readline()
            try:
                header = line.decode()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: entry header {line!r} is not UTF-8") from exc
            parts = header.split()
            if len(parts) != 3:
                raise DataError(f"{path}: malformed entry header {header!r}")
            name = parts[0]
            try:
                rows, cols = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}: non-integer shape in {header!r}") from exc
            if rows < 0 or cols < 0:
                raise DataError(f"{path}: negative shape in {header!r}")
            nbytes = rows * cols * 8
            # checked before reading, so a forged shape cannot ask for a huge buffer
            if nbytes > size - fh.tell():
                raise DataError(f"{path}: truncated data for {name!r}")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise DataError(f"{path}: truncated data for {name!r}")
            # read-only until ParamSet copies it into the set's buffer
            data = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
            if not _NAME_RE.match(name):
                raise DataError(f"{path}: bad parameter name {name!r}")
            if name in entries:
                raise DataError(f"{path}: duplicate parameter name {name!r}")
            entries[name] = Tensor(data, requires_grad=True)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after last entry")
    return ParamSet(entries)
