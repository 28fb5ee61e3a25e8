"""Symmetric eigendecomposition with a deterministic sign convention,
filtered-basis reconstruction, and an on-disk decomposition cache.

The decomposition is a preprocessing step: gradients never flow through
it. Inputs here are trusted numeric intermediates, so violations raise
NumericsError rather than data errors.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericsError
from .fileio import atomic_writer

log = logging.getLogger(__name__)

SYMMETRY_ATOL = 1e-12
ORTHO_TOL = 1e-8
RECON_TOL = 1e-8


@dataclass
class SpectralBasis:
    """Eigenvalues in ascending order; eigenvector column k pairs with
    eigenvalue k. Columns are orthonormal and sign-fixed so the
    decomposition of a given matrix is bit-identical across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def validate(self, matrix: np.ndarray | None = None, unit_band: bool = False):
        """Check invariants; raise NumericsError on violation.

        unit_band additionally requires eigenvalues in [0, 2] up to
        1e-8 * n slack, which holds for normalized Laplacians but not
        for arbitrary symmetric input.
        """
        vals, vecs = self.eigenvalues, self.eigenvectors
        if vals.shape != (self.n,) or vecs.shape != (self.n, self.n):
            raise NumericsError("basis shapes inconsistent")
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise NumericsError("basis contains non-finite entries")
        if (np.diff(vals) < 0).any():
            raise NumericsError("eigenvalues not ascending")
        gram_err = np.abs(vecs.T @ vecs - np.eye(self.n)).max()
        if gram_err > ORTHO_TOL:
            raise NumericsError(f"eigenvector columns not orthonormal ({gram_err:.2e})")
        if unit_band:
            slack = 1e-8 * self.n
            if vals.min() < -slack or vals.max() > 2.0 + slack:
                raise NumericsError(
                    f"eigenvalues [{vals.min():.3e}, {vals.max():.3e}] "
                    "outside the normalized-Laplacian band [0, 2]"
                )
        if matrix is not None:
            scale = np.linalg.norm(matrix)
            err = np.linalg.norm(vecs @ (vals[:, None] * vecs.T) - matrix)
            if err > RECON_TOL * max(scale, 1.0):
                raise NumericsError(f"reconstruction error {err:.2e} too large")
        return self


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude component is
    positive; magnitude ties resolve to the lowest index (argmax picks
    the first maximum).
    """
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(matrix: np.ndarray, unit_band: bool = False) -> SpectralBasis:
    """Full eigendecomposition of a real symmetric matrix.

    Input must be symmetric within 1e-12 absolute and finite. Output is
    ascending with sign-fixed orthonormal columns, validated against
    the input before returning.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise NumericsError("matrix contains non-finite entries")
    asym = np.abs(matrix - matrix.T).max(initial=0.0)
    if asym > SYMMETRY_ATOL:
        raise NumericsError(f"matrix asymmetric by {asym:.2e} (> {SYMMETRY_ATOL})")

    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from exc

    basis = SpectralBasis(eigenvalues=vals, eigenvectors=_fix_signs(vecs))
    return basis.validate(matrix, unit_band=unit_band)


def reconstruct_basis(basis: SpectralBasis, new_eigenvalues: np.ndarray) -> np.ndarray:
    """U diag(g) U^T for a replacement eigenvalue vector g."""
    g = np.asarray(new_eigenvalues, dtype=np.float64)
    if g.shape != (basis.n,):
        raise ConfigError(
            f"expected {basis.n} eigenvalues, got shape {g.shape}"
        )
    out = basis.eigenvectors @ (g[:, None] * basis.eigenvectors.T)
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# Cache: one file per Laplacian, keyed by a content hash.
# Layout (little-endian): n (u64), eigenvalues (n f64), eigenvectors
# (n*n f64, column-major).
# ---------------------------------------------------------------------------


def matrix_digest(matrix: np.ndarray) -> str:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *matrix.shape))
    h.update(matrix.tobytes())
    return h.hexdigest()


def save_basis(basis: SpectralBasis, path: str | Path) -> Path:
    path = Path(path)
    with atomic_writer(path) as fh:
        fh.write(struct.pack("<Q", basis.n))
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(np.asfortranarray(basis.eigenvectors.astype("<f8")).tobytes(order="F"))
    return path


def load_basis(path: str | Path) -> SpectralBasis:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 8:
        raise NumericsError(f"cache file {path} truncated")
    (n,) = struct.unpack_from("<Q", raw, 0)
    expected = 8 + 8 * n + 8 * n * n
    if len(raw) != expected:
        raise NumericsError(
            f"cache file {path} has {len(raw)} bytes, expected {expected}"
        )
    vals = np.frombuffer(raw, dtype="<f8", count=n, offset=8).copy()
    vecs = (
        np.frombuffer(raw, dtype="<f8", count=n * n, offset=8 + 8 * n)
        .reshape((n, n), order="F")
        .copy()
    )
    return SpectralBasis(eigenvalues=vals, eigenvectors=vecs)


def load_or_compute(
    matrix: np.ndarray,
    cache_dir: str | Path | None = None,
    unit_band: bool = False,
) -> SpectralBasis:
    """Return the decomposition of matrix, reusing a cached copy when
    its content hash matches. A corrupt or invalid cache entry is
    recomputed and rewritten, not trusted.
    """
    if cache_dir is None:
        return sym_eig(matrix, unit_band=unit_band)
    path = Path(cache_dir) / f"{matrix_digest(matrix)}.eig"
    if path.exists():
        try:
            return load_basis(path).validate(matrix, unit_band=unit_band)
        except NumericsError as exc:
            log.warning("discarding bad cache entry %s: %s", path, exc)
    basis = sym_eig(matrix, unit_band=unit_band)
    save_basis(basis, path)
    return basis
