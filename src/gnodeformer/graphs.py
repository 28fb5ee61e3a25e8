"""Graph datasets: representation, normalized Laplacian, SBM generation,
disk format, and train/val/test mask splitting.

Everything is dense and 64-bit. Graphs are undirected, unweighted, and
stored without self-loops.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .seeding import MASKS, SBM, rng_for

log = logging.getLogger(__name__)

META_KEYS = ("n", "f", "c", "name")

# train/val/test shares of every split the program makes
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass
class GraphDataset:
    """One node-classification graph.

    adjacency is a symmetric 0/1 float matrix with zero diagonal,
    features is (n, F), labels is (n,) ints in [0, C), and the three
    masks are disjoint boolean vectors over nodes.
    """

    n: int
    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    val_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    test_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "graph"

    def __post_init__(self):
        if self.train_mask is None:
            self.train_mask = np.zeros(self.n, dtype=bool)
        if self.val_mask is None:
            self.val_mask = np.zeros(self.n, dtype=bool)
        if self.test_mask is None:
            self.test_mask = np.zeros(self.n, dtype=bool)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjacency.sum()) // 2

    def validate(self) -> "GraphDataset":
        """Check all structural invariants; raise DataError on violation.

        An asymmetric adjacency is rejected. Self-loops are dropped with a
        warning.
        """
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.shape != (self.n, self.n):
            raise DataError(f"adjacency shape {a.shape} does not match n={self.n}")
        if not np.isfinite(a).all():
            raise DataError("adjacency contains non-finite entries")
        if not np.array_equal(a, a.T):
            raise DataError("adjacency is not symmetric")
        if not np.isin(a, (0.0, 1.0)).all():
            raise DataError("adjacency entries must be 0 or 1")
        if np.trace(a) != 0:
            log.warning("%s: dropping %d self-loops", self.name, int(np.trace(a)))
            np.fill_diagonal(a, 0.0)
        self.adjacency = a

        if self.features.shape[0] != self.n:
            raise DataError(
                f"feature matrix has {self.features.shape[0]} rows, expected {self.n}"
            )
        if self.labels.shape != (self.n,):
            raise DataError("labels must be one integer per node")
        if self.labels.min(initial=0) < 0 or (
            self.n > 0 and self.labels.max() >= self.num_classes
        ):
            raise DataError(f"labels must lie in [0, {self.num_classes})")
        for m in (self.train_mask, self.val_mask, self.test_mask):
            if m.shape != (self.n,) or m.dtype != np.bool_:
                raise DataError("masks must be boolean vectors over nodes")
        overlap = (
            self.train_mask.astype(int) + self.val_mask.astype(int) + self.test_mask.astype(int)
        )
        if (overlap > 1).any():
            raise DataError("train/val/test masks overlap")
        return self


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
        if len(self.block_sizes) == 0 or sum(self.block_sizes) == 0:
            raise ConfigError("SBM needs at least one node")
        if any(b <= 0 for b in self.block_sizes):
            raise ConfigError("block sizes must be positive")
        for p in (self.p_in, self.p_out):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"edge probability {p} outside [0, 1]")
        if not 0.0 <= self.signal < np.inf:
            raise ConfigError(f"feature signal {self.signal} must be finite and >= 0")


def build_normalized_laplacian(dataset: GraphDataset) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} for the dataset's adjacency.

    Isolated nodes get a zero inverse-sqrt degree, so their row equals
    the identity row and the spectrum stays within [0, 2].
    """
    a = dataset.adjacency
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    # exactly symmetric, since validate() admits only a symmetric 0/1 A
    # (and a client's is an induced submatrix of one): entry (i, j) is
    # (d_i^-1/2 a_ij) d_j^-1/2, that is 0 or d_i^-1/2 d_j^-1/2, and
    # floating-point products commute, so it has the bits of entry (j, i)
    lap = inv_sqrt[:, None] * a
    lap *= inv_sqrt[None, :]
    # 0.0 - x, not -x: zeros stay +0.0, so the bytes (and cache digest) hold
    np.subtract(0.0, lap, out=lap)
    lap.flat[:: dataset.n + 1] += 1.0
    return lap


def generate_sbm(config: SbmConfig) -> GraphDataset:
    """Sample a graph from the block model. Deterministic given the seed."""
    sizes = np.asarray(config.block_sizes, dtype=int)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)

    rng = rng_for(config.seed, SBM)
    prob = np.where(labels[:, None] == labels[None, :], config.p_in, config.p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adjacency = (upper | upper.T).astype(np.float64)

    means = rng.standard_normal((len(sizes), config.feature_dim))
    noise = rng.standard_normal((n, config.feature_dim))
    features = config.signal * means[labels] + noise

    ds = GraphDataset(
        n=n,
        adjacency=adjacency,
        features=features,
        labels=labels.astype(np.int64),
        num_classes=len(sizes),
        name=f"sbm{n}",
    )
    ds.train_mask, ds.val_mask, ds.test_mask = split_masks(
        ds.labels, SPLIT_FRACTIONS, config.seed
    )
    return ds.validate()


def split_masks(
    labels: np.ndarray,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split nodes into train/val/test masks.

    Stratified per class when every class has at least 3 nodes,
    otherwise a plain shuffle. Bucket sizes follow largest-remainder
    rounding, so each class lands within one node of its target share.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot split an empty label set")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions {fractions} must sum to 1")

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
        sizes = _largest_remainder(len(idx), fractions)
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
# Masks are not stored; they are derived at training time from the run
# seed. Writing is deterministic: edges are sorted with u < v and floats
# use %.17g so a load/save round trip is exact.
# ---------------------------------------------------------------------------


def save_dataset(dataset: GraphDataset, path: str | Path) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "meta", "w") as fh:
        fh.write(f"n={dataset.n}\n")
        fh.write(f"f={dataset.feature_dim}\n")
        fh.write(f"c={dataset.num_classes}\n")
        fh.write(f"name={dataset.name}\n")
    np.savetxt(path / "edges", np.argwhere(np.triu(dataset.adjacency, k=1)), fmt="%d")
    np.savetxt(path / "features", dataset.features, fmt="%.17g")
    np.savetxt(path / "labels", dataset.labels[:, None], fmt="%d")
    return path


def load_dataset(path: str | Path) -> GraphDataset:
    """Read a dataset directory; all invariants are validated on load."""
    path = Path(path)
    meta = _read_meta(path / "meta")
    n, feat_dim, num_classes = meta["n"], meta["f"], meta["c"]
    for fname in ("edges", "features", "labels"):
        if not (path / fname).exists():
            raise DataError(f"missing dataset file: {path / fname}")

    # no comment syntax in any of the three files (comments=None): a '#'
    # is a malformed value, never a skipped line or a cut-off row
    try:
        features = np.loadtxt(path / "features", dtype=np.float64, ndmin=2, comments=None)
        labels = np.loadtxt(path / "labels", dtype=np.int64, ndmin=1, comments=None)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if n == 0:
        raise DataError("dataset has no nodes")
    # checked before the n x n allocation, so a forged n cannot request it
    if features.shape != (n, feat_dim):
        raise DataError(
            f"feature matrix is {features.shape}, meta says ({n}, {feat_dim})"
        )
    if labels.shape != (n,):
        raise DataError(f"labels file has {labels.shape[0]} rows, meta says {n}")

    try:
        with warnings.catch_warnings():
            # a file without rows is an edgeless graph, not a mistake
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            edges = np.loadtxt(path / "edges", dtype=np.int64, ndmin=2, comments=None)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path / 'edges'}: {exc}") from None
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.shape[1] != 2:
        raise DataError(f"edges: expected two node ids per line, got {edges.shape[1]}")
    bad = edges[(edges < 0) | (edges >= n)]
    if bad.size:
        raise DataError(f"edges: node id {bad[0]} outside [0, {n})")
    # self-loops land on the diagonal, which validate() clears with a warning
    adjacency = np.zeros((n, n), dtype=np.float64)
    adjacency[edges[:, 0], edges[:, 1]] = 1.0
    adjacency[edges[:, 1], edges[:, 0]] = 1.0

    ds = GraphDataset(
        n=n,
        adjacency=adjacency,
        features=features,
        labels=labels,
        num_classes=num_classes,
        name=meta["name"],
    )
    return ds.validate()


def _read_meta(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"missing meta file: {path}")
    values: dict = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"meta line without '=': {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not text: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    for key in META_KEYS:
        if key not in values:
            raise DataError(f"meta file missing key {key!r}")
    meta = {"name": values["name"]}
    for key in ("n", "f", "c"):
        try:
            meta[key] = int(values[key])
        except ValueError as exc:
            raise DataError(f"meta file: {exc}") from exc
        if meta[key] < 0:
            raise DataError(f"meta file: {key}={meta[key]} is negative")
    return meta


def homophily_ratio(dataset: GraphDataset) -> float:
    """Fraction of edges whose endpoints share a label; nan if no edges."""
    us, vs = np.nonzero(np.triu(dataset.adjacency, k=1))
    if us.size == 0:
        return float("nan")
    return float(np.mean(dataset.labels[us] == dataset.labels[vs]))
