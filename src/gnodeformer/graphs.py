"""Graph datasets: representation, normalized Laplacian, SBM generation,
disk format, and train/val/test mask splitting.

A graph is its edge list: undirected, unweighted, without self-loops.
Everything is 64-bit; only the normalized Laplacian is dense.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_writer, parse_pairs, write_lines
from .optim import MAX_GRAD
from .seeding import MASKS, SBM, rng_for

log = logging.getLogger(__name__)

META_KEYS = ("n", "f", "c", "name")

# train/val/test shares of every split the program makes
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)

# largest feature magnitude that the SBM generator and the loader accept.
# Every gradient grows at most linearly with the feature scale: features
# enter the model once, through the head's first product, and the loss's
# gradient for the logits stays within [-1, 1] at any scale. So a gradient
# entry is the feature scale times a factor set by the weights, the basis
# and the graph's size, and Adam refuses one past optim.MAX_GRAD. The
# bound sqrt(MAX_GRAD), about 1.16e77, leaves that factor the other half
# of the exponent range. With no bound, a 30-node SBM trained at signal
# 1e153 and overflowed at 1e154, next to MAX_GRAD's 1.34e154: a factor
# near 1, far inside that half
FEATURE_SCALE_MAX = float(np.sqrt(MAX_GRAD))


@dataclass
class GraphDataset:
    """One node-classification graph, checked on construction.

    edges is an (m, 2) int64 array holding each undirected edge once as
    a (u, v) row with u < v, rows in ascending order; any edge list is
    brought to that form on construction. features is (n, F) and finite,
    labels is (n,) ints in [0, C), and the three masks are disjoint
    boolean vectors over nodes. A violation raises DataError.
    """

    n: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DataError(f"edges: expected two node ids per line, got {edges.shape[-1]}")
        bad = edges[(edges < 0) | (edges >= self.n)]
        if bad.size:
            raise DataError(f"edges: node id {bad[0]} outside [0, {self.n})")
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        loops = lo == hi
        if loops.any():
            log.warning(
                "%s: dropping %d self-loops", self.name, np.unique(lo[loops]).size
            )
        # one key per edge: np.unique merges reversed and repeated rows and sorts
        keys = np.unique(lo[~loops] * self.n + hi[~loops])
        self.edges = np.stack(divmod(keys, self.n), axis=1)

        if self.features.shape[0] != self.n:
            raise DataError(
                f"feature matrix has {self.features.shape[0]} rows, expected {self.n}"
            )
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            node, column = bad[0]
            raise DataError(
                f"features hold a non-finite value at node {node}, column {column}"
            )
        if self.labels.shape != (self.n,):
            raise DataError("labels must be one integer per node")
        if self.labels.min(initial=0) < 0 or (
            self.n > 0 and self.labels.max() >= self.num_classes
        ):
            raise DataError(f"labels must lie in [0, {self.num_classes})")
        masks = (self.train_mask, self.val_mask, self.test_mask)
        for m in masks:
            if m.shape != (self.n,) or m.dtype != np.bool_:
                raise DataError("masks must be boolean vectors over nodes")
        if (sum(m.astype(int) for m in masks) > 1).any():
            raise DataError("train/val/test masks overlap")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)


_INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass
class SbmConfig:
    """Stochastic block model: one block per class.

    Connectivity is Bernoulli with probability p_in inside a block and
    p_out across blocks; p_in > p_out gives a homophilic graph and
    p_in < p_out a heterophilic one. Node features are the node's class
    mean scaled by signal plus unit Gaussian noise.
    """

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    feature_dim: int = 16
    signal: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if len(self.block_sizes) == 0:
            raise ConfigError("SBM needs at least one node")
        if any(b <= 0 for b in self.block_sizes):
            raise ConfigError("block sizes must be positive")
        # past numpy's index range an array size is an OverflowError or a
        # ValueError; the sum of positive sizes bounds each of them
        if sum(self.block_sizes) > _INDEX_MAX:
            raise ConfigError(f"SBM blocks sum past numpy's index limit {_INDEX_MAX}")
        for p in (self.p_in, self.p_out):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"edge probability {p} outside [0, 1]")
        if not 0.0 <= self.signal < np.inf:
            raise ConfigError(f"feature signal {self.signal} must be finite and >= 0")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim {self.feature_dim} must be >= 1")
        if self.feature_dim > _INDEX_MAX:
            raise ConfigError(f"feature_dim past numpy's index limit {_INDEX_MAX}")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")


def build_normalized_laplacian(dataset: GraphDataset) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} for the dataset's edges, as a dense matrix.

    Isolated nodes get a zero inverse-sqrt degree, so their row equals
    the identity row and the spectrum stays within [0, 2].
    """
    n = dataset.n
    u, v = dataset.edges.T
    deg = np.bincount(dataset.edges.ravel(), minlength=n).astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    # exactly symmetric: both entries of an edge get one product; every
    # entry off the edges and the diagonal stays +0.0
    lap = np.zeros((n, n))
    lap[u, v] = lap[v, u] = -(inv_sqrt[u] * inv_sqrt[v])
    lap.flat[:: n + 1] = 1.0
    return lap


def generate_sbm(config: SbmConfig) -> GraphDataset:
    """Sample a graph from the block model. Deterministic given the seed."""
    sizes = np.asarray(config.block_sizes, dtype=int)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    rng = rng_for(config.seed, SBM)
    prob = np.where(labels[:, None] == labels[None, :], config.p_in, config.p_out)
    edges = np.argwhere(np.triu(rng.random((n, n)) < prob, k=1))

    means = rng.standard_normal((len(sizes), config.feature_dim))
    noise = rng.standard_normal((n, config.feature_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        features = config.signal * means[labels] + noise
    scale = np.abs(features).max()
    if not scale <= FEATURE_SCALE_MAX:
        raise ConfigError(
            f"feature signal {config.signal!r} overflows the SBM features: their "
            f"scale {scale:.3g} passes the feature scale bound {FEATURE_SCALE_MAX:.3g}"
        )

    train, val, test = split_masks(labels, config.seed)
    return GraphDataset(
        n=n,
        edges=edges,
        features=features,
        labels=labels,
        num_classes=len(sizes),
        train_mask=train,
        val_mask=val,
        test_mask=test,
        name=f"sbm{n}",
    )


def split_masks(labels: np.ndarray, seed: int) -> tuple[np.ndarray, ...]:
    """Split nodes into train/val/test masks by SPLIT_FRACTIONS.

    Stratified per class when every class has at least 3 nodes,
    otherwise a plain shuffle. Bucket sizes follow largest-remainder
    rounding, so each class lands within one node of its target share.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot split an empty label set")

    rng = rng_for(seed, MASKS)
    n = labels.size
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]

    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() >= 3:
        groups = [np.flatnonzero(labels == c) for c in classes]
    else:
        groups = [np.arange(n)]

    for idx in groups:
        idx = rng.permutation(idx)
        sizes = _largest_remainder(len(idx), SPLIT_FRACTIONS)
        start = 0
        for mask, size in zip(masks, sizes):
            mask[idx[start : start + size]] = True
            start += size
    return masks[0], masks[1], masks[2]


def _largest_remainder(total: int, fractions) -> list[int]:
    exact = [total * f for f in fractions]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    for _ in range(total - sum(sizes)):
        i = int(np.argmax(remainders))
        sizes[i] += 1
        remainders[i] = -1.0
    return sizes


# ---------------------------------------------------------------------------
# Disk format: a directory with four text files.
#
#   meta      exactly four lines, "n=<int>", "f=<int>", "c=<int>", "name=<text>"
#   edges     one undirected edge per line, "<u> <v>" with 0-based node ids
#   features  n lines of f space-separated decimal reals
#   labels    n lines, one integer in [0, c) each
#
# Masks are not stored; load_dataset splits them from the seed it is
# given. Writing is deterministic: edges are sorted with u < v and floats
# use %.17g so a load/save round trip is exact. Each file is written
# atomically; the directory as a whole is not.
# ---------------------------------------------------------------------------


def save_dataset(dataset: GraphDataset, path: str | Path) -> Path:
    path = Path(path)
    meta = (dataset.n, dataset.feature_dim, dataset.num_classes, dataset.name)
    write_lines(path / "meta", (f"{k}={v}" for k, v in zip(META_KEYS, meta)))
    for name, rows, fmt in (
        ("edges", dataset.edges, "%d"),
        ("features", dataset.features, "%.17g"),
        ("labels", dataset.labels[:, None], "%d"),
    ):
        with atomic_writer(path / name) as fh:
            np.savetxt(fh, rows, fmt=fmt)
    return path


def load_dataset(path: str | Path, mask_seed: int) -> GraphDataset:
    """Read a dataset directory and split its masks with ``mask_seed``.
    Any fault in its files is a DataError."""
    path = Path(path)
    meta = _read_meta(path / "meta")
    n, feat_dim, num_classes = meta["n"], meta["f"], meta["c"]
    for fname in ("edges", "features", "labels"):
        if not (path / fname).exists():
            raise DataError(f"missing dataset file: {path / fname}")

    features = _read_table(path / "features", np.float64, ndmin=2)
    labels = _read_table(path / "labels", np.int64, ndmin=1)
    if n == 0:
        raise DataError("dataset has no nodes")
    if features.shape != (n, feat_dim):
        raise DataError(
            f"{path / 'features'}: feature matrix {features.shape}, meta says ({n}, {feat_dim})"
        )
    if labels.shape != (n,):
        raise DataError(f"{path / 'labels'}: {labels.shape[0]} rows, meta says {n}")

    # a non-finite value (inf, or nan, which compares false) is
    # GraphDataset's to report
    scale = np.abs(features)
    past = np.argwhere((scale > FEATURE_SCALE_MAX) & (scale < np.inf))
    if past.size:
        node, column = past[0]
        raise DataError(
            f"{path / 'features'}: feature scale {scale[node, column]:.3g} at "
            f"node {node}, column {column} passes the bound {FEATURE_SCALE_MAX:.3g}"
        )

    edges = _read_table(path / "edges", np.int64, ndmin=2)
    train, val, test = split_masks(labels, mask_seed)
    try:
        return GraphDataset(
            n=n,
            edges=edges,
            features=features,
            labels=labels,
            num_classes=num_classes,
            train_mask=train,
            val_mask=val,
            test_mask=test,
            name=meta["name"],
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_table(path: Path, dtype, ndmin: int) -> np.ndarray:
    """A numeric text file, where any fault is a DataError naming it. No
    comment syntax: a '#' is a malformed value, never a skipped line."""
    try:
        with warnings.catch_warnings():
            # a file without rows is an empty table: an edgeless graph, or
            # a row count that the caller refuses
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, dtype=dtype, ndmin=ndmin, comments=None)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_meta(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"missing meta file: {path}")
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not text: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    what = f"{path}: meta file"
    values = parse_pairs(lines, what, DataError)
    for key in META_KEYS:
        if key not in values:
            raise DataError(f"{what} missing key {key!r}")
    meta = {"name": values["name"].strip()}
    for key in ("n", "f", "c"):
        try:
            meta[key] = int(values[key])
        except ValueError as exc:
            raise DataError(f"{what}: {exc}") from exc
        if meta[key] < 0:
            raise DataError(f"{what}: {key}={meta[key]} is negative")
    # a client subgraph may have fewer nodes than classes; a dataset may not
    if meta["c"] > meta["n"]:
        raise DataError(f"{path}: c={meta['c']} classes exceed n={meta['n']} nodes")
    return meta


def homophily_ratio(dataset: GraphDataset) -> float:
    """Fraction of edges whose endpoints share a label; nan if no edges."""
    us, vs = dataset.edges.T
    if us.size == 0:
        return float("nan")
    return float(np.mean(dataset.labels[us] == dataset.labels[vs]))
