import hashlib
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnodeformer import spectral
from gnodeformer.errors import NumericsError
from gnodeformer.graphs import build_normalized_laplacian
from gnodeformer.spectral import (
    CACHE_MAGIC,
    SpectralBasis,
    load_basis,
    load_or_compute,
    matrix_digest,
    save_basis,
    sym_eig,
)
from tests.helpers import reconstruct_basis
from tests.test_graphs import make_dataset, triangle

SQ2 = 1.0 / np.sqrt(2.0)


def path2_laplacian():
    return np.array([[1.0, -1.0], [-1.0, 1.0]])


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    flat = draw(
        hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(min_value=-1.0, max_value=1.0, width=64),
        )
    )
    return (flat + flat.T) / 2.0


class TestSymEig:
    def test_path2_pairs(self):
        basis = sym_eig(path2_laplacian())
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(basis.eigenvectors[:, 0], [SQ2, SQ2], atol=1e-12)
        np.testing.assert_allclose(basis.eigenvectors[:, 1], [SQ2, -SQ2], atol=1e-12)

    def test_identity(self):
        basis = sym_eig(np.eye(3))
        np.testing.assert_allclose(basis.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)

    def test_k3_eigenvalues(self):
        lap = build_normalized_laplacian(triangle())
        basis = sym_eig(lap, unit_band=True)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((20, 20))
        m = (m + m.T) / 2.0
        a = sym_eig(m)
        b = sym_eig(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_leading_component_positive(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((15, 15))
        basis = sym_eig((m + m.T) / 2.0)
        for k in range(15):
            col = basis.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericsError, match="asymmetric"):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericsError, match="non-finite"):
            sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NumericsError, match="square"):
            sym_eig(np.zeros((2, 3)))

    def test_unit_band_enforced(self):
        with pytest.raises(NumericsError, match="band"):
            sym_eig(np.diag([5.0, 0.0]), unit_band=True)

    @given(symmetric_matrices())
    def test_invariants_on_random_symmetric(self, m):
        basis = sym_eig(m)
        n = m.shape[0]
        assert (np.diff(basis.eigenvalues) >= 0).all()
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-8
        recon = basis.eigenvectors @ (
            basis.eigenvalues[:, None] * basis.eigenvectors.T
        )
        assert np.linalg.norm(recon - m) <= 1e-8 * max(np.linalg.norm(m), 1.0)

    @given(symmetric_matrices())
    def test_trace_preserved(self, m):
        basis = sym_eig(m)
        scale = max(abs(np.trace(m)), 1.0)
        assert abs(basis.eigenvalues.sum() - np.trace(m)) <= 1e-8 * scale

    def test_set_up_holds_four_square_arrays(self):
        # traced above the input: eigh's output, whose signs are flipped in
        # place, and validate's Gram matrix, scaled U^T and reconstruction.
        # eigh's own copy of the input and its LAPACK workspace are
        # malloc'd by numpy's linalg module and not traced. A flipped copy
        # of the vectors, or a temporary held through eigh, passes the bound
        n = 600
        lap = path_laplacian(n)
        tracemalloc.start()
        try:
            sym_eig(lap, unit_band=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * n * n * 8, peak / (n * n * 8)

    def test_laplacian_band_holds_on_sbm(self):
        from gnodeformer.graphs import SbmConfig, generate_sbm

        ds = generate_sbm(SbmConfig(block_sizes=(20, 20), p_in=0.2, p_out=0.05, seed=1))
        basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
        assert basis.eigenvalues.min() >= -1e-8 * ds.n
        assert basis.eigenvalues.max() <= 2.0 + 1e-8 * ds.n


class TestReconstruct:
    def test_identity_filter_recovers_input(self):
        lap = build_normalized_laplacian(triangle())
        basis = sym_eig(lap)
        np.testing.assert_allclose(
            reconstruct_basis(basis, basis.eigenvalues), lap, atol=1e-12
        )

    def test_zero_filter(self):
        basis = sym_eig(path2_laplacian())
        np.testing.assert_array_equal(
            reconstruct_basis(basis, np.zeros(2)), np.zeros((2, 2))
        )

    def test_spectral_flip_on_path(self):
        # replacing gamma with 2 - gamma turns [[1,-1],[-1,1]] into [[1,1],[1,1]]
        basis = sym_eig(path2_laplacian())
        flipped = reconstruct_basis(basis, 2.0 - basis.eigenvalues)
        np.testing.assert_allclose(flipped, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)


def path_laplacian(n=8):
    # a path graph's normalized Laplacian has n distinct eigenvalues
    adjacency = np.eye(n, k=1) + np.eye(n, k=-1)
    return build_normalized_laplacian(make_dataset(adjacency))


def flip_byte(path, offset, mask=0xFF):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= mask
    path.write_bytes(bytes(raw))


def move_one_eigenvalue(basis):
    vals = basis.eigenvalues.copy()
    vals[1] += 1e-6
    return SpectralBasis(vals, basis.eigenvectors)


def swap_first_and_last_columns(basis):
    vecs = basis.eigenvectors.copy()
    vecs[:, [0, -1]] = vecs[:, [-1, 0]]
    return SpectralBasis(basis.eigenvalues, vecs)


def column_major_payload(basis):
    return (
        basis.eigenvalues.astype("<f8").tobytes()
        + basis.eigenvectors.astype("<f8").tobytes(order="F")
    )


def v1_entry(basis, digest):
    """The pre-checksum layout: n (u64), eigenvalues, column-major eigenvectors."""
    return basis.n.to_bytes(8, "little") + column_major_payload(basis)


def v2_entry(basis, digest):
    """Layout v2: today's header under tag 2, with its digest and a right
    checksum, then eigenvalues and column-major eigenvectors."""
    payload = column_major_payload(basis)
    head = b"GNFEIG\x00\x02" + basis.n.to_bytes(8, "little") + bytes.fromhex(digest)
    return head + hashlib.sha256(payload).digest() + payload


class TestProbeCheck:
    def test_accepts_exact_decomposition(self):
        lap = path_laplacian()
        basis = sym_eig(lap, unit_band=True)
        assert basis.probe_check(lap, seed=3, unit_band=True) is basis

    @pytest.mark.parametrize("forge", [move_one_eigenvalue, swap_first_and_last_columns])
    def test_rejects_wrong_basis_that_is_well_formed(self, forge):
        lap = path_laplacian()
        forged = forge(sym_eig(lap, unit_band=True))
        with pytest.raises(NumericsError, match="reconstruction"):
            forged.probe_check(lap, seed=3, unit_band=True)

    def test_rejects_non_orthonormal_columns(self):
        lap = path_laplacian()
        basis = sym_eig(lap)
        skewed = SpectralBasis(basis.eigenvalues, basis.eigenvectors * 1.001)
        with pytest.raises(NumericsError, match="orthonormal"):
            skewed.probe_check(lap, seed=3)

    def test_rejects_other_size(self):
        basis = sym_eig(path_laplacian(8))
        with pytest.raises(NumericsError, match="size 8"):
            basis.probe_check(path_laplacian(6), seed=3)

    def test_cheap_checks_still_apply(self):
        lap = path_laplacian()
        basis = sym_eig(lap)
        vals = basis.eigenvalues.copy()
        vals[0] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            SpectralBasis(vals, basis.eigenvectors).probe_check(lap, seed=3)
        descending = basis.eigenvalues[::-1].copy()
        with pytest.raises(NumericsError, match="ascending"):
            SpectralBasis(descending, basis.eigenvectors).probe_check(lap, seed=3)
        with pytest.raises(NumericsError, match="band"):
            SpectralBasis(basis.eigenvalues * 5, basis.eigenvectors).probe_check(
                5 * lap, seed=3, unit_band=True
            )

    @given(symmetric_matrices())
    def test_passes_whatever_sym_eig_returns(self, m):
        sym_eig(m).probe_check(m, seed=0)


class TestCache:
    def lap(self):
        ds = make_dataset(np.ones((5, 5)) - np.eye(5))
        return build_normalized_laplacian(ds)

    def test_save_load_bit_exact(self, tmp_path):
        lap = self.lap()
        basis = sym_eig(lap)
        path = save_basis(basis, tmp_path / "k5.eig", matrix_digest(lap))
        back = load_basis(path, matrix_digest(lap))
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert np.array_equal(back.eigenvectors, basis.eigenvectors)

    def test_file_layout(self, tmp_path):
        # 80-byte header: tag, n as u64, raw matrix digest, payload SHA-256;
        # then eigenvalues and row-major eigenvectors; the 3-node path's
        # eigenvector matrix is not symmetric, so the two layouts differ
        lap = path_laplacian(3)
        basis = sym_eig(lap)
        assert not np.array_equal(basis.eigenvectors, basis.eigenvectors.T)
        raw = save_basis(basis, tmp_path / "p3.eig", matrix_digest(lap)).read_bytes()
        assert len(raw) == 80 + 3 * 8 + 9 * 8
        assert raw[:8] == CACHE_MAGIC == b"GNFEIG\x00\x03"
        assert int.from_bytes(raw[8:16], "little") == 3
        assert raw[16:48] == bytes.fromhex(matrix_digest(lap))
        assert raw[48:80] == hashlib.sha256(raw[80:]).digest()
        vals = np.frombuffer(raw, dtype="<f8", count=3, offset=80)
        np.testing.assert_array_equal(vals, basis.eigenvalues)
        vecs = np.frombuffer(raw, dtype="<f8", count=9, offset=104)
        np.testing.assert_array_equal(vecs, basis.eigenvectors.flatten())

    def test_save_uses_unique_temp_file(self, tmp_path):
        stale = tmp_path / "k5.eig.tmp"
        stale.write_bytes(b"another writer")
        lap = self.lap()
        basis = sym_eig(lap)
        digest = matrix_digest(lap)
        back = load_basis(save_basis(basis, tmp_path / "k5.eig", digest), digest)
        assert stale.read_bytes() == b"another writer"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["k5.eig", "k5.eig.tmp"]
        assert np.array_equal(back.eigenvectors, basis.eigenvectors)

    def test_load_or_compute_hits_cache(self, tmp_path):
        lap = self.lap()
        first = load_or_compute(lap, tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].name == f"{matrix_digest(lap)}.eig"
        mtime = files[0].stat().st_mtime_ns
        second = load_or_compute(lap, tmp_path)
        assert files[0].stat().st_mtime_ns == mtime
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_miss_then_hit_bitwise_equal(self, tmp_path, monkeypatch):
        lap = path_laplacian(30)
        miss = load_or_compute(lap, tmp_path)
        monkeypatch.setattr(
            "gnodeformer.spectral.sym_eig",
            lambda *a, **k: pytest.fail("a hit must not solve"),
        )
        hit = load_or_compute(lap, tmp_path)
        assert np.array_equal(hit.eigenvalues, miss.eigenvalues)
        assert np.array_equal(hit.eigenvectors, miss.eigenvectors)
        # one layout on both paths, so products downstream round alike
        assert miss.eigenvectors.flags.c_contiguous
        assert hit.eigenvectors.flags.c_contiguous

    def test_hit_skips_full_validation(self, tmp_path, monkeypatch):
        lap = path_laplacian()
        load_or_compute(lap, tmp_path)
        monkeypatch.setattr(
            SpectralBasis, "validate",
            lambda *a, **k: pytest.fail("a hit must not run the O(n^3) validate"),
        )
        load_or_compute(lap, tmp_path)

    def test_corrupt_cache_recomputed(self, tmp_path, caplog):
        lap = self.lap()
        load_or_compute(lap, tmp_path)
        path = next(tmp_path.iterdir())
        path.write_bytes(b"\x00" * 16)
        with caplog.at_level("WARNING"):
            basis = load_or_compute(lap, tmp_path)
        assert "bad cache entry" in caplog.text
        basis.validate(lap)
        # the rewritten entry is valid again
        load_basis(path, matrix_digest(lap)).validate(lap)

    @pytest.mark.parametrize(
        "offset, match",
        [
            (0, "tag"),  # magic
            (8, "bytes, expected"),  # n
            (16, "decomposes matrix"),  # matrix digest
            (48, "checksum"),  # payload checksum
            (80, "checksum"),  # first eigenvalue
            (80 + 8 * 8 + 5 * 8, "checksum"),  # an eigenvector entry
        ],
    )
    def test_flipped_byte_recomputed(self, tmp_path, caplog, offset, match):
        lap = path_laplacian()
        good = load_or_compute(lap, tmp_path)
        path = tmp_path / f"{matrix_digest(lap)}.eig"
        flip_byte(path, offset)
        self.assert_discarded_and_rewritten(lap, path, good, caplog, match)

    def test_low_order_bit_flip_caught_by_checksum(self, tmp_path, caplog):
        # flipping the last mantissa bit of one eigenvector entry leaves a
        # basis that the full validation accepts; only the checksum sees it
        lap = path_laplacian()
        good = load_or_compute(lap, tmp_path)
        path = tmp_path / f"{matrix_digest(lap)}.eig"
        flip_byte(path, 80 + 8 * 8, mask=0x01)
        vecs = good.eigenvectors.copy()
        vecs[0, 0] = np.frombuffer(path.read_bytes(), "<f8", count=1, offset=80 + 8 * 8)[0]
        assert vecs[0, 0] != good.eigenvectors[0, 0]
        SpectralBasis(good.eigenvalues, vecs).validate(lap, unit_band=True)
        self.assert_discarded_and_rewritten(lap, path, good, caplog, "checksum")

    @pytest.mark.parametrize("entry", [v1_entry, v2_entry], ids=["v1", "v2"])
    def test_old_layout_entry_recomputed(self, tmp_path, caplog, entry):
        lap = path_laplacian()
        good = sym_eig(lap, unit_band=True)
        digest = matrix_digest(lap)
        path = tmp_path / f"{digest}.eig"
        path.write_bytes(entry(good, digest))
        self.assert_discarded_and_rewritten(lap, path, good, caplog, "tag")

    @pytest.mark.parametrize("same_size", [False, True])
    def test_entry_of_another_matrix_recomputed(self, tmp_path, caplog, same_size):
        lap = path_laplacian()
        # the same-size other is the complete graph on the path's 8 nodes
        k8 = np.ones((8, 8)) - np.eye(8)
        other = build_normalized_laplacian(make_dataset(k8)) if same_size else self.lap()
        load_or_compute(other, tmp_path)
        path = tmp_path / f"{matrix_digest(lap)}.eig"
        shutil.copy(tmp_path / f"{matrix_digest(other)}.eig", path)
        good = sym_eig(lap, unit_band=True)
        self.assert_discarded_and_rewritten(lap, path, good, caplog, "decomposes matrix")

    @pytest.mark.parametrize("forge", [move_one_eigenvalue, swap_first_and_last_columns])
    def test_forged_entry_with_right_checksum_recomputed(self, tmp_path, caplog, forge):
        lap = path_laplacian()
        good = sym_eig(lap, unit_band=True)
        digest = matrix_digest(lap)
        path = save_basis(forge(good), tmp_path / f"{digest}.eig", digest)
        load_basis(path, digest)  # tag, digest and checksum all hold
        self.assert_discarded_and_rewritten(lap, path, good, caplog, "reconstruction")

    def test_entry_outside_the_band_recomputed(self, tmp_path, caplog):
        # tag, digest and checksum hold, but the eigenvalues are 5x too large
        lap = path_laplacian()
        good = sym_eig(lap, unit_band=True)
        digest = matrix_digest(lap)
        scaled = SpectralBasis(5 * good.eigenvalues, good.eigenvectors)
        path = save_basis(scaled, tmp_path / f"{digest}.eig", digest)
        self.assert_discarded_and_rewritten(
            lap, path, good, caplog, "normalized-Laplacian band"
        )

    @staticmethod
    def assert_discarded_and_rewritten(lap, path, good, caplog, match):
        with caplog.at_level("WARNING"):
            basis = load_or_compute(lap, path.parent)
        assert "discarding bad cache entry" in caplog.text
        assert match in caplog.text
        assert np.array_equal(basis.eigenvalues, good.eigenvalues)
        assert np.array_equal(basis.eigenvectors, good.eigenvectors)
        assert path.read_bytes()[:8] == CACHE_MAGIC
        back = load_basis(path, matrix_digest(lap)).validate(lap, unit_band=True)
        assert np.array_equal(back.eigenvectors, good.eigenvectors)
        caplog.clear()
        load_or_compute(lap, path.parent)
        assert "bad cache entry" not in caplog.text

    def test_digest_distinguishes_matrices(self):
        assert matrix_digest(np.eye(3)) != matrix_digest(2 * np.eye(3))
        assert matrix_digest(np.zeros((2, 3))) != matrix_digest(np.zeros((3, 2)))

    def test_digest_ignores_memory_layout(self):
        m = path_laplacian() + np.triu(np.ones((8, 8)))
        assert matrix_digest(m) == matrix_digest(np.asfortranarray(m))

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "bad.eig"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(NumericsError, match="truncated"):
            load_basis(p, "00" * 32)

    def test_forged_size_rejected_before_allocation(self, tmp_path):
        p = tmp_path / "big.eig"
        p.write_bytes(CACHE_MAGIC + (4_000_000_000).to_bytes(8, "little") + bytes(64))
        with pytest.raises(NumericsError, match="bytes, expected"):
            load_basis(p, "00" * 32)

    def test_short_payload_read_rejected(self, tmp_path, monkeypatch):
        # a file cut after its size was read: the payload read comes up short
        lap = path_laplacian(3)
        digest = matrix_digest(lap)
        path = save_basis(sym_eig(lap), tmp_path / "e.eig", digest)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        stat = SimpleNamespace(st_size=size)
        monkeypatch.setattr(spectral, "os", SimpleNamespace(fstat=lambda fd: stat))
        with pytest.raises(NumericsError, match="truncated"):
            load_basis(path, digest)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes_load_or_reject(self, raw):
        self.assert_load_or_reject(raw)

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(min_value=0, max_value=80 + 8 * 12 - 1),
                      st.integers(min_value=1, max_value=255)),
            max_size=4,
        ),
        cut=st.integers(min_value=0, max_value=80 + 8 * 12),
        tail=st.binary(max_size=16),
    )
    def test_damaged_entry_load_or_reject(self, edits, cut, tail):
        lap = path_laplacian(3)
        with tempfile.TemporaryDirectory() as tmp:
            good = save_basis(sym_eig(lap), Path(tmp) / "e.eig", matrix_digest(lap))
            raw = bytearray(good.read_bytes())
        for offset, mask in edits:
            raw[offset] ^= mask
        self.assert_load_or_reject(bytes(raw[:cut]) + tail)

    @staticmethod
    def assert_load_or_reject(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.eig"
            path.write_bytes(raw)
            try:
                # the digest the bytes record, so every other check is reached
                basis = load_basis(path, raw[16:48].ljust(32, b"\0").hex())
            except NumericsError:
                return
        assert basis.eigenvectors.shape == (basis.n, basis.n)
