import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnodeformer.errors import ConfigError, DataError
from gnodeformer.graphs import (
    GraphDataset,
    SbmConfig,
    build_normalized_laplacian,
    generate_sbm,
    homophily_ratio,
    load_dataset,
    save_dataset,
    split_masks,
)
from gnodeformer.spectral import matrix_digest
from tests.helpers import dense_adjacency, no_masks, reference_normalized_laplacian


def make_dataset(adjacency, labels=None, num_classes=None, features=None, masks=None):
    """A dataset from a dense symmetric 0/1 adjacency matrix."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 1
    if features is None:
        features = np.eye(n)
    return GraphDataset(
        n=n,
        edges=np.argwhere(np.triu(adjacency, k=1)),
        features=np.asarray(features, dtype=np.float64),
        labels=labels,
        num_classes=num_classes,
        **(masks or no_masks(n)),
    )


def triangle():
    return make_dataset(np.ones((3, 3)) - np.eye(3))


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(bits, dtype=np.float64).reshape(n, n), k=1)
    return make_dataset(upper + upper.T)


class TestNormalizedLaplacian:
    def test_triangle_matrix(self):
        # complete graph on 3 nodes: diagonal 1, off-diagonal -1/2
        lap = build_normalized_laplacian(triangle())
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(lap, expected, atol=1e-15)

    def test_triangle_eigenvalues(self):
        # K_n spectrum is {0, n/(n-1) x (n-1)}; for n=3 that is {0, 1.5, 1.5}
        lap = build_normalized_laplacian(triangle())
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(lap)), [0.0, 1.5, 1.5], atol=1e-12
        )

    def test_single_edge(self):
        lap = build_normalized_laplacian(make_dataset([[0, 1], [1, 0]]))
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(lap)), [0.0, 2.0], atol=1e-12
        )

    def test_star_eigenvalues(self):
        a = np.zeros((4, 4))
        a[0, 1:] = 1
        a[1:, 0] = 1
        lap = build_normalized_laplacian(make_dataset(a))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(lap)), [0.0, 1.0, 1.0, 2.0], atol=1e-12
        )

    def test_isolated_node_row_is_identity(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1
        lap = build_normalized_laplacian(make_dataset(a))
        np.testing.assert_array_equal(lap[2], [0.0, 0.0, 1.0])
        assert np.isfinite(lap).all()

    def test_empty_graph_is_identity(self):
        lap = build_normalized_laplacian(make_dataset(np.zeros((4, 4))))
        np.testing.assert_array_equal(lap, np.eye(4))

    @given(random_graphs())
    def test_spectrum_in_unit_band(self, ds):
        lap = build_normalized_laplacian(ds)
        np.testing.assert_array_equal(lap, lap.T)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 2.0 + 1e-10

    def test_digest_is_pinned(self):
        # eigen-cache entries are named by this digest: a change to the
        # Laplacian's bits would turn every existing cache entry into a miss
        a = np.zeros((8, 8))
        for u, v in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]:
            a[u, v] = a[v, u] = 1.0  # node 7 is isolated
        lap = build_normalized_laplacian(make_dataset(a))
        assert matrix_digest(lap) == (
            "7116802b627f232da4ca710ad0ba5b1f242e524cebd93ae9de052d8bc5b750d5"
        )

    @given(random_graphs())
    def test_matches_dense_formula_bit_for_bit(self, ds):
        lap = build_normalized_laplacian(ds)
        want = reference_normalized_laplacian(dense_adjacency(ds))
        assert lap.tobytes() == want.tobytes()

    @given(random_graphs())
    def test_connected_component_has_zero_eigenvalue(self, ds):
        # any node with an edge contributes a 0 eigenvalue through its component
        lap = build_normalized_laplacian(ds)
        if ds.num_edges > 0:
            assert np.linalg.eigvalsh(lap).min() < 1e-10


def dataset_with_edges(n, edges):
    return GraphDataset(
        n=n,
        edges=edges,
        features=np.eye(n),
        labels=np.zeros(n, dtype=np.int64),
        num_classes=1,
        **no_masks(n),
    )


class TestEdgeList:
    def test_canonical_form(self):
        ds = dataset_with_edges(4, [[3, 1], [0, 2], [1, 3], [2, 0], [0, 1], [1, 3]])
        np.testing.assert_array_equal(ds.edges, [[0, 1], [0, 2], [1, 3]])
        assert ds.edges.dtype == np.int64
        assert ds.num_edges == 3

    @pytest.mark.parametrize("edges, bad", [([[0, 3]], 3), ([[-1, 2]], -1)])
    def test_out_of_range_id_rejected(self, edges, bad):
        with pytest.raises(DataError, match=rf"node id {bad} outside \[0, 3\)"):
            dataset_with_edges(3, edges)


class TestValidate:
    def test_self_loops_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            ds = dataset_with_edges(2, [[0, 0], [0, 1], [1, 1], [1, 1]])
        np.testing.assert_array_equal(ds.edges, [[0, 1]])
        assert "dropping 2 self-loops" in caplog.text

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="labels"):
            make_dataset(np.zeros((2, 2)), labels=[0, 5], num_classes=2)

    def test_overlapping_masks(self):
        masks = no_masks(2)
        masks["train_mask"][:] = True
        masks["val_mask"][0] = True
        with pytest.raises(DataError, match="overlap"):
            make_dataset(np.zeros((2, 2)), masks=masks)

    def test_feature_row_mismatch(self):
        with pytest.raises(DataError, match="feature"):
            make_dataset(np.zeros((3, 3)), features=np.zeros((2, 4)))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_feature(self, value):
        features = np.eye(3)
        features[1, 2] = value
        with pytest.raises(DataError, match="non-finite value at node 1, column 2"):
            make_dataset(np.zeros((3, 3)), features=features)

    def test_masks_are_required(self):
        with pytest.raises(TypeError, match="train_mask"):
            GraphDataset(
                n=2, edges=[], features=np.eye(2),
                labels=np.zeros(2, dtype=np.int64), num_classes=1,
            )

    @pytest.mark.parametrize("dtype, size", [(np.int64, 3), (bool, 2)])
    def test_mask_shape_and_dtype(self, dtype, size):
        masks = no_masks(3)
        masks["test_mask"] = np.zeros(size, dtype=dtype)
        with pytest.raises(DataError, match="boolean vectors"):
            make_dataset(np.zeros((3, 3)), masks=masks)

    def test_replace_checks_again(self):
        ds = make_dataset(np.zeros((3, 3)))
        with pytest.raises(DataError, match="labels"):
            replace(ds, labels=np.array([0, 0, 4]))


class TestSbm:
    def test_deterministic(self):
        cfg = SbmConfig(block_sizes=(20, 20), p_in=0.3, p_out=0.05, seed=7)
        a = generate_sbm(cfg)
        b = generate_sbm(cfg)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.train_mask, b.train_mask)

    def test_seed_changes_graph(self):
        base = dict(block_sizes=(20, 20), p_in=0.3, p_out=0.05)
        a = generate_sbm(SbmConfig(seed=1, **base))
        b = generate_sbm(SbmConfig(seed=2, **base))
        assert not np.array_equal(a.edges, b.edges)

    def test_shapes_and_labels(self):
        ds = generate_sbm(
            SbmConfig(block_sizes=(10, 20, 30), p_in=0.2, p_out=0.02, feature_dim=8)
        )
        assert ds.n == 60
        assert ds.features.shape == (60, 8)
        assert ds.num_classes == 3
        np.testing.assert_array_equal(np.bincount(ds.labels), [10, 20, 30])

    def test_edge_count_near_expectation(self):
        # 3675 within-block pairs at .1 plus 7500 cross pairs at .01:
        # mean 442.5, sd 20.1; allow 5 sd either way
        ds = generate_sbm(
            SbmConfig(block_sizes=(50, 50, 50), p_in=0.1, p_out=0.01, seed=3)
        )
        assert 342 <= ds.num_edges <= 543

    def test_homophilic_vs_heterophilic(self):
        homo = generate_sbm(
            SbmConfig(block_sizes=(50, 50), p_in=0.2, p_out=0.02, seed=5)
        )
        hetero = generate_sbm(
            SbmConfig(block_sizes=(50, 50), p_in=0.02, p_out=0.2, seed=5)
        )
        assert homophily_ratio(homo) > 0.7
        assert homophily_ratio(hetero) < 0.3

    def test_masks_partition_nodes(self):
        ds = generate_sbm(SbmConfig(block_sizes=(50, 50, 50), p_in=0.1, p_out=0.01))
        total = ds.train_mask.astype(int) + ds.val_mask + ds.test_mask
        np.testing.assert_array_equal(total, np.ones(150, dtype=int))
        assert ds.train_mask.sum() == 90
        assert ds.val_mask.sum() == 30
        assert ds.test_mask.sum() == 30

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SbmConfig(block_sizes=(), p_in=0.1, p_out=0.1)
        with pytest.raises(ConfigError):
            SbmConfig(block_sizes=(5,), p_in=1.5, p_out=0.1)
        with pytest.raises(ConfigError):
            SbmConfig(block_sizes=(5, 0), p_in=0.1, p_out=0.1)
        for signal in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="signal"):
                SbmConfig(block_sizes=(5,), p_in=0.1, p_out=0.1, signal=signal)


class TestSplitMasks:
    def test_largest_remainder_exact(self):
        labels = np.zeros(10, dtype=int)
        tr, va, te = split_masks(labels, seed=0)
        assert (tr.sum(), va.sum(), te.sum()) == (6, 2, 2)

    def test_stratified_within_one_node(self):
        labels = np.repeat([0, 1, 2], [30, 50, 20])
        tr, _, _ = split_masks(labels, seed=1)
        for c, size in zip(range(3), (30, 50, 20)):
            got = (labels[tr] == c).sum()
            assert abs(got - 0.6 * size) <= 1

    def test_small_class_falls_back_to_global(self):
        # one class with 2 nodes: still a valid partition of all nodes,
        # sized over all 10 (a per-class split would give 6, 3, 1)
        labels = np.array([0] * 8 + [1] * 2)
        tr, va, te = split_masks(labels, seed=2)
        total = tr.astype(int) + va + te
        np.testing.assert_array_equal(total, np.ones(10, dtype=int))
        assert (tr.sum(), va.sum(), te.sum()) == (6, 2, 2)

    def test_deterministic(self):
        labels = np.repeat([0, 1], 25)
        a = split_masks(labels, seed=9)
        b = split_masks(labels, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_empty_labels_rejected(self):
        with pytest.raises(DataError):
            split_masks(np.array([], dtype=int), seed=0)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10))
    def test_always_a_partition(self, n, seed):
        labels = np.arange(n) % 4
        tr, va, te = split_masks(labels, seed=seed)
        total = tr.astype(int) + va + te
        np.testing.assert_array_equal(total, np.ones(n, dtype=int))


class TestDiskFormat:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_sbm(
            SbmConfig(block_sizes=(15, 15), p_in=0.3, p_out=0.05, feature_dim=6, seed=4)
        )
        ds.name = "roundtrip"
        save_dataset(ds, tmp_path / "g")
        back = load_dataset(tmp_path / "g", 0)
        np.testing.assert_array_equal(back.edges, ds.edges)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.name == "roundtrip"
        assert back.num_classes == ds.num_classes

    def test_save_is_deterministic(self, tmp_path):
        ds = generate_sbm(SbmConfig(block_sizes=(10, 10), p_in=0.3, p_out=0.1, seed=8))
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("meta", "edges", "features", "labels"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_meta_bytes_are_pinned(self, tmp_path):
        # n, f and c differ, so a swapped line shows
        ds = make_dataset(
            np.ones((3, 3)) - np.eye(3), labels=[0, 1, 0], features=np.zeros((3, 5))
        )
        ds.name = "tri"
        save_dataset(ds, tmp_path / "t")
        assert (tmp_path / "t" / "meta").read_bytes() == b"n=3\nf=5\nc=2\nname=tri\n"

    def test_edges_sorted_no_duplicates(self, tmp_path):
        ds = triangle()
        save_dataset(ds, tmp_path / "t")
        lines = (tmp_path / "t" / "edges").read_text().splitlines()
        assert lines == ["0 1", "0 2", "1 2"]

    def test_loader_rejects_bad_node_id(self, tmp_path):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "edges").write_text("0 7\n")
        with pytest.raises(DataError, match="node id"):
            load_dataset(tmp_path / "t", 0)

    def test_loader_prefixes_edge_errors_with_the_directory(self, tmp_path):
        path = save_dataset(triangle(), tmp_path / "t")
        (path / "edges").write_text("0 7\n")
        with pytest.raises(DataError) as exc:
            load_dataset(path, 0)
        assert str(exc.value) == f"{path}: edges: node id 7 outside [0, 3)"

    def test_loader_splits_masks_with_its_seed(self, tmp_path):
        ds = generate_sbm(SbmConfig(block_sizes=(10, 12), p_in=0.3, p_out=0.1, seed=8))
        path = save_dataset(ds, tmp_path / "g")
        for seed in (0, 5):
            back = load_dataset(path, seed)
            want = split_masks(ds.labels, seed)
            got = (back.train_mask, back.val_mask, back.test_mask)
            for mask, expected in zip(got, want):
                np.testing.assert_array_equal(mask, expected)

    def test_loader_rejects_malformed_edge(self, tmp_path):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "edges").write_text("0 1 2\n")
        with pytest.raises(DataError, match="two node ids"):
            load_dataset(tmp_path / "t", 0)

    def test_loader_drops_self_loops(self, tmp_path, caplog):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "edges").write_text("0 0\n2 2\n0 1\n")
        with caplog.at_level("WARNING"):
            ds = load_dataset(tmp_path / "t", 0)
        np.testing.assert_array_equal(ds.edges, [[0, 1]])
        warnings = [r.getMessage() for r in caplog.records if "self-loop" in r.getMessage()]
        assert len(warnings) == 1
        assert "2 self-loop" in warnings[0]

    @pytest.mark.parametrize(
        "text, edges",
        [
            ("0 1\n\n   \n\t\n1 2\n", [(0, 1), (1, 2)]),
            ("0 1\n1 0\n0 1\n", [(0, 1)]),
            (" 0\t1 \r\n1  2\r\n", [(0, 1), (1, 2)]),
            ("", []),
            ("\n  \n", []),
        ],
        ids=["blank_lines", "duplicates", "mixed_whitespace", "empty", "whitespace_only"],
    )
    def test_loader_accepts(self, tmp_path, text, edges):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "edges").write_text(text)
        ds = load_dataset(tmp_path / "t", 0)
        np.testing.assert_array_equal(ds.edges, np.reshape(edges, (-1, 2)))

    def test_unsorted_rows_load_to_canonical_form(self, tmp_path):
        ds = generate_sbm(SbmConfig(block_sizes=(12, 12), p_in=0.4, p_out=0.1, seed=6))
        save_dataset(ds, tmp_path / "canon")
        save_dataset(ds, tmp_path / "messy")
        # every edge reversed, a third of them repeated, shuffled, plus a self-loop
        rows = np.concatenate([ds.edges[:, ::-1], ds.edges[::3], [[5, 5]]])
        rows = np.random.default_rng(0).permutation(rows)
        np.savetxt(tmp_path / "messy" / "edges", rows, fmt="%d")
        canon = load_dataset(tmp_path / "canon", 0)
        messy = load_dataset(tmp_path / "messy", 0)
        np.testing.assert_array_equal(messy.edges, canon.edges)
        assert matrix_digest(build_normalized_laplacian(messy)) == matrix_digest(
            build_normalized_laplacian(canon)
        )

    @pytest.mark.parametrize(
        "text",
        ["# comment\n0 1\n", "0 1 # comment\n", "0 99999999999999999999\n",
         "-1 2\n", "0 1\n2\n", "0 1.0\n"],
        ids=["comment_line", "trailing_comment", "beyond_int64", "negative_id",
             "ragged", "float_id"],
    )
    def test_loader_rejects(self, tmp_path, text):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "edges").write_text(text)
        with pytest.raises(DataError):
            load_dataset(tmp_path / "t", 0)

    @pytest.mark.parametrize("target", ["edges", "features", "labels"])
    @pytest.mark.parametrize("where", ["comment_line", "trailing_comment"])
    def test_hash_is_a_data_error_in_every_file(self, tmp_path, target, where):
        # no file has a comment syntax: '#' never skips a line or cuts a row
        path = save_dataset(triangle(), tmp_path / "t")
        lines = (path / target).read_text().splitlines()
        if where == "comment_line":
            lines.insert(1, "# note")
        else:
            lines[0] += " # 2"
        (path / target).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(path, 0)

    def test_loader_missing_meta_key(self, tmp_path):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "meta").write_text("n=3\nf=3\nname=x\n")
        with pytest.raises(DataError, match="missing key"):
            load_dataset(tmp_path / "t", 0)

    def test_loader_shape_mismatch(self, tmp_path):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "meta").write_text("n=3\nf=9\nc=1\nname=x\n")
        with pytest.raises(DataError, match="feature matrix"):
            load_dataset(tmp_path / "t", 0)

    @pytest.mark.parametrize(
        "meta, match",
        [
            (b"n=3\nf=-1\nc=2\nname=x\n", "f=-1 is negative"),
            (b"n=3\nf=3\nc=-2\nname=x\n", "c=-2 is negative"),
            # a forged n fails the shape check before the edges are read
            (b"n=1000000000\nf=3\nc=2\nname=x\n", "feature matrix"),
            # more classes than nodes fails before any file but meta is read
            (b"n=3\nf=3\nc=4\nname=x\n", "meta: c=4 classes exceed n=3 nodes"),
            (b"n=3\nf=3\nc=" + b"9" * 400 + b"\nname=x\n", "meta: c=9+ classes exceed"),
        ],
        ids=["negative_f", "negative_c", "huge_n", "c_above_n", "huge_c"],
    )
    def test_loader_bad_meta(self, tmp_path, meta, match):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "meta").write_bytes(meta)
        with pytest.raises(DataError, match=match):
            load_dataset(tmp_path / "t", 0)

    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(["meta", "edges"]), raw=st.binary(max_size=120))
    def test_arbitrary_meta_or_edges_load_or_reject(self, target, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = save_dataset(triangle(), Path(tmp) / "t")
            (path / target).write_bytes(raw)
            try:
                ds = load_dataset(path, 0)
            except DataError:
                return
        assert ds.n == 3

    def test_loader_bad_label_value(self, tmp_path):
        save_dataset(triangle(), tmp_path / "t")
        (tmp_path / "t" / "labels").write_text("0\n0\n9\n")
        with pytest.raises(DataError, match="labels"):
            load_dataset(tmp_path / "t", 0)


class TestHomophily:
    def test_all_same_label(self):
        assert homophily_ratio(triangle()) == 1.0

    def test_all_different(self):
        ds = make_dataset([[0, 1], [1, 0]], labels=[0, 1])
        assert homophily_ratio(ds) == 0.0

    def test_no_edges_is_nan(self):
        assert np.isnan(homophily_ratio(make_dataset(np.zeros((3, 3)))))
