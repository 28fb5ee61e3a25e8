"""Symmetric eigendecomposition with a deterministic sign convention,
and an on-disk cache of normalized-Laplacian decompositions whose every
read checks the matrix digest, the payload checksum and the [0, 2] band.

The decomposition is a preprocessing step: gradients never flow through
it. Inputs here are trusted numeric intermediates, so violations raise
NumericsError rather than data errors.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError
from .fileio import atomic_writer

log = logging.getLogger(__name__)

SYMMETRY_ATOL = 1e-12
ORTHO_TOL = 1e-8
RECON_TOL = 1e-8
PROBES = 4  # Gaussian probe vectors in the randomized cache-hit check


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

    def validate(self, matrix: np.ndarray, unit_band: bool = False):
        """Check invariants, and that the basis reconstructs ``matrix``;
        raise NumericsError on violation.

        unit_band additionally requires eigenvalues in [0, 2] up to
        1e-8 * n slack, which holds for normalized Laplacians but not
        for arbitrary symmetric input. Costs two dense n^3 products.
        """
        self._check_values(unit_band)
        vals, vecs = self.eigenvalues, self.eigenvectors
        # in place: each check reuses its product instead of n x n temporaries
        gram = vecs.T @ vecs
        gram.flat[:: self.n + 1] -= 1.0
        gram_err = np.abs(gram, out=gram).max()
        if gram_err > ORTHO_TOL:
            raise NumericsError(f"eigenvector columns not orthonormal ({gram_err:.2e})")
        scale = np.linalg.norm(matrix)
        recon = vecs @ (vals[:, None] * vecs.T)
        recon -= matrix
        err = np.linalg.norm(recon)
        if err > RECON_TOL * max(scale, 1.0):
            raise NumericsError(f"reconstruction error {err:.2e} too large")
        return self

    def probe_check(self, matrix: np.ndarray, seed: int, unit_band: bool = False):
        """O(n^2) randomized form of validate(matrix, unit_band).

        For a matrix E and Gaussian probes X (n x PROBES) drawn from
        ``seed``, the root mean square of the columns of E X estimates
        the Frobenius norm of E. The check bounds that estimate for
        E = U^T U - I by ORTHO_TOL and for E = U diag(vals) U^T - matrix
        by RECON_TOL * max(||matrix||_F, 1).
        """
        self._check_values(unit_band)
        vals, vecs = self.eigenvalues, self.eigenvectors
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != vecs.shape:
            raise NumericsError(
                f"basis of size {self.n} for a matrix of shape {matrix.shape}"
            )
        x = np.random.default_rng(seed).standard_normal((self.n, PROBES))
        ortho = np.linalg.norm(vecs.T @ (vecs @ x) - x) / np.sqrt(PROBES)
        if ortho > ORTHO_TOL:
            raise NumericsError(f"eigenvector columns not orthonormal (probe {ortho:.2e})")
        scale = np.linalg.norm(matrix)
        err = np.linalg.norm(vecs @ (vals[:, None] * (vecs.T @ x)) - matrix @ x)
        err /= np.sqrt(PROBES)
        if err > RECON_TOL * max(scale, 1.0):
            raise NumericsError(f"reconstruction error {err:.2e} too large (probe)")
        return self

    def _check_values(self, unit_band: bool) -> None:
        """Shapes, finiteness, ascending order and the unit band: O(n^2)."""
        vals, vecs = self.eigenvalues, self.eigenvectors
        if vals.shape != (self.n,) or vecs.shape != (self.n, self.n):
            raise NumericsError("basis shapes inconsistent")
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise NumericsError("basis contains non-finite entries")
        if (np.diff(vals) < 0).any():
            raise NumericsError("eigenvalues not ascending")
        if unit_band:
            slack = 1e-8 * self.n
            if vals.min() < -slack or vals.max() > 2.0 + slack:
                raise NumericsError(
                    f"eigenvalues [{vals.min():.3e}, {vals.max():.3e}] "
                    "outside the normalized-Laplacian band [0, 2]"
                )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns of ``vectors`` in place so each one's largest-magnitude
    component is positive, and return it; magnitude ties resolve to the
    lowest index (argmax picks the first maximum).
    """
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def sym_eig(matrix: np.ndarray, unit_band: bool = False) -> SpectralBasis:
    """Full eigendecomposition of a real symmetric matrix.

    Input must be symmetric within 1e-12 absolute and finite. Output is
    ascending with sign-fixed orthonormal columns, validated against
    the input before returning; unit_band adds validate's [0, 2] band
    check, which load_or_compute always asks for.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise NumericsError("matrix contains non-finite entries")
    diff = matrix - matrix.T
    asym = np.abs(diff, out=diff).max(initial=0.0)
    del diff  # not held through eigh and validate
    if asym > SYMMETRY_ATOL:
        raise NumericsError(f"matrix asymmetric by {asym:.2e} (> {SYMMETRY_ATOL})")

    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from exc

    basis = SpectralBasis(eigenvalues=vals, eigenvectors=_fix_signs(vecs))
    return basis.validate(matrix, unit_band=unit_band)


# ---------------------------------------------------------------------------
# Cache: one file per normalized Laplacian, named by its matrix_digest.
# Layout v3 (little-endian): an 80-byte header of CACHE_MAGIC (8 bytes),
# n (u64), the raw 32-byte matrix_digest of the decomposed Laplacian and
# the SHA-256 of the payload (32 bytes); then the payload: eigenvalues
# (n f64) and eigenvectors (n*n f64, row-major, as eigh returns them).
# ---------------------------------------------------------------------------

CACHE_MAGIC = b"GNFEIG\x00\x03"
_HEADER = struct.Struct("<8sQ32s32s")


def matrix_digest(matrix: np.ndarray) -> str:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *matrix.shape))
    h.update(matrix)
    return h.hexdigest()


def save_basis(basis: SpectralBasis, path: str | Path, digest: str) -> Path:
    """Write ``basis`` as the cache entry of the matrix whose
    matrix_digest is ``digest``."""
    path = Path(path)
    vals = np.ascontiguousarray(basis.eigenvalues, dtype="<f8")
    vecs = np.ascontiguousarray(basis.eigenvectors, dtype="<f8")
    checksum = hashlib.sha256(vals)
    checksum.update(vecs)
    header = _HEADER.pack(CACHE_MAGIC, basis.n, bytes.fromhex(digest), checksum.digest())
    with atomic_writer(path) as fh:
        fh.write(header)
        fh.write(vals)
        fh.write(vecs)
    return path


def load_basis(path: str | Path, digest: str) -> SpectralBasis:
    """Read the cache entry of the matrix whose matrix_digest is
    ``digest``; raise NumericsError unless its tag, length, recorded
    digest and payload checksum hold. The eigenvalues and eigenvectors
    are views of the one buffer the file is read into.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise NumericsError(f"cache file {path} truncated")
        magic, n, stored, checksum = _HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise NumericsError(
                f"cache file {path} has tag {magic!r}, expected {CACHE_MAGIC!r}"
            )
        count = n * (n + 1)
        expected = _HEADER.size + 8 * count
        if size != expected:
            raise NumericsError(
                f"cache file {path} has {size} bytes, expected {expected}"
            )
        if stored != bytes.fromhex(digest):
            raise NumericsError(
                f"cache file {path} decomposes matrix {stored.hex()[:16]}, "
                f"not {digest[:16]}"
            )
        payload = np.fromfile(fh, dtype="<f8", count=count)
    if payload.size != count:
        raise NumericsError(f"cache file {path} truncated")
    if hashlib.sha256(payload).digest() != checksum:
        raise NumericsError(f"cache file {path} fails its payload checksum")
    vecs = payload[n:].reshape(n, n)
    return SpectralBasis(eigenvalues=payload[:n], eigenvectors=vecs)


def load_or_compute(matrix: np.ndarray, cache_dir: str | Path) -> SpectralBasis:
    """Return the decomposition of the normalized Laplacian ``matrix``,
    reusing the copy cached in ``cache_dir`` when its content hash matches.

    A hit must pass load_basis's checksum and digest checks and the
    O(n^2) probe_check, with probes seeded from the digest; any other
    entry is recomputed with the full O(n^3) validation and rewritten.
    Both paths require the eigenvalues in the band [0, 2].
    """
    digest = matrix_digest(matrix)
    path = Path(cache_dir) / f"{digest}.eig"
    if path.exists():
        try:
            seed = int.from_bytes(bytes.fromhex(digest)[:8], "little")
            return load_basis(path, digest).probe_check(matrix, seed, unit_band=True)
        except NumericsError as exc:
            log.warning("discarding bad cache entry %s: %s", path, exc)
    basis = sym_eig(matrix, unit_band=True)
    save_basis(basis, path, digest)
    return basis
