import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnodeformer.errors import ConfigError, NumericsError
from gnodeformer.graphs import build_normalized_laplacian
from gnodeformer.spectral import (
    SpectralBasis,
    load_basis,
    load_or_compute,
    matrix_digest,
    reconstruct_basis,
    save_basis,
    sym_eig,
)
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

    def test_output_symmetric(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10))
        basis = sym_eig((m + m.T) / 2.0)
        out = reconstruct_basis(basis, rng.standard_normal(10))
        np.testing.assert_array_equal(out, out.T)

    def test_length_mismatch(self):
        basis = sym_eig(np.eye(3))
        with pytest.raises(ConfigError, match="3 eigenvalues"):
            reconstruct_basis(basis, np.zeros(4))


class TestCache:
    def lap(self):
        ds = make_dataset(np.ones((5, 5)) - np.eye(5))
        return build_normalized_laplacian(ds)

    def test_save_load_bit_exact(self, tmp_path):
        basis = sym_eig(self.lap())
        path = save_basis(basis, tmp_path / "k5.eig")
        back = load_basis(path)
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert np.array_equal(back.eigenvectors, basis.eigenvectors)

    def test_file_layout(self, tmp_path):
        # n as u64, then eigenvalues, then column-major eigenvectors
        basis = sym_eig(path2_laplacian())
        raw = save_basis(basis, tmp_path / "p2.eig").read_bytes()
        assert len(raw) == 8 + 2 * 8 + 4 * 8
        assert int.from_bytes(raw[:8], "little") == 2
        vals = np.frombuffer(raw, dtype="<f8", count=2, offset=8)
        np.testing.assert_array_equal(vals, basis.eigenvalues)
        vecs = np.frombuffer(raw, dtype="<f8", count=4, offset=24)
        np.testing.assert_array_equal(vecs, basis.eigenvectors.flatten(order="F"))

    def test_save_uses_unique_temp_file(self, tmp_path):
        stale = tmp_path / "k5.eig.tmp"
        stale.write_bytes(b"another writer")
        basis = sym_eig(self.lap())
        back = load_basis(save_basis(basis, tmp_path / "k5.eig"))
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
        load_basis(path).validate(lap)

    def test_digest_distinguishes_matrices(self):
        assert matrix_digest(np.eye(3)) != matrix_digest(2 * np.eye(3))
        assert matrix_digest(np.zeros((2, 3))) != matrix_digest(np.zeros((3, 2)))

    def test_no_cache_dir_computes(self):
        basis = load_or_compute(path2_laplacian(), None)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "bad.eig"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(NumericsError, match="truncated"):
            load_basis(p)
