import numpy as np
import pytest

from gnodeformer import cli, fileio
from gnodeformer.errors import ConfigError
from gnodeformer.fedsim import RoundRecord, write_metrics_csv
from gnodeformer.fileio import atomic_writer, parse_pairs
from gnodeformer.model import write_filter_table
from gnodeformer.training import EpochRecord


def test_replaces_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "sub" / "f.bin"
    with atomic_writer(target) as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    assert [f.name for f in target.parent.iterdir()] == ["f.bin"]


def test_error_keeps_old_file_and_removes_temp(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_writer(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old"
    assert [f.name for f in tmp_path.iterdir()] == ["f.bin"]


def test_concurrent_writers_use_distinct_temp_files(tmp_path):
    target = tmp_path / "f.bin"
    with atomic_writer(target) as first, atomic_writer(target) as second:
        assert first.name != second.name
        first.write(b"first")
        second.write(b"second")
    # the outer writer renames last
    assert target.read_bytes() == b"first"
    assert [f.name for f in tmp_path.iterdir()] == ["f.bin"]


@pytest.mark.parametrize(
    "entries, pairs",
    [(["a=1", "", "  ", "\t"], {"a": "1"}),
     ([" key \t=", "b= x = y "], {"key": "", "b": " x = y "}),
     (["=v"], {"": "v"})],
    ids=["blank_entries", "key_stripped_value_verbatim", "empty_key"],
)
def test_parse_pairs(entries, pairs):
    assert parse_pairs(entries, "spec", ValueError) == pairs


class _FailsMidway:
    """A file handle that writes half of its first buffer, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def _central_rows(path):
    cli._write_central_csv(path, [EpochRecord(0, 1.0, 0.5, 0.1, 1.0, 0.5)])


def _round_rows(path):
    record = RoundRecord(0, (0,), {0: [EpochRecord(0, 1.0, 0.5, 0.1)]}, 1.0, 0.5, 8)
    write_metrics_csv(path, [record])


def _filter_table(path):
    write_filter_table(path, np.linspace(0.0, 2.0, 3), np.ones((3, 2)))


def _partition_report(path):
    args = cli.build_parser().parse_args([
        "partition-report", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1",
        "--clients", "2", "--seeds", "1", "--out", str(path),
    ])
    args.func(args)


def _gen_data(path):
    args = cli.build_parser().parse_args([
        "gen-data", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1", "--out", str(path.parent),
    ])
    args.func(args)


# gen-data's files, in the order it writes them
DATASET_FILES = ["meta", "edges", "features", "labels"]


@pytest.mark.parametrize(
    "write, error, name",
    [(lambda path: cli.write_manifest(path, {"lr": 0.1, "seed": 3}), OSError,
      "artifact.txt"),
     (_central_rows, OSError, "artifact.txt"), (_round_rows, OSError, "artifact.txt"),
     (_filter_table, OSError, "artifact.txt"),
     # the commands report a failed write as a config error (exit 2)
     (_partition_report, ConfigError, "artifact.txt"),
     *((_gen_data, ConfigError, name) for name in DATASET_FILES)],
    ids=["manifest", "central_csv", "metrics_csv", "filter_table", "partition_report",
         *(f"gen_data_{name}" for name in DATASET_FILES)],
)
def test_text_artifact_failing_midway_keeps_old_file(
    tmp_path, monkeypatch, write, error, name
):
    target = tmp_path / name
    target.write_bytes(b"old")
    real_open = open

    def failing_open(file, *args):
        # only the temporary file of the target fails
        fh = real_open(file, *args)
        return _FailsMidway(fh) if file.name.startswith(f"{name}.") else fh

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(error, match="disk full"):
        write(target)
    assert target.read_bytes() == b"old"
    # the dataset files written before the target are in place
    before = DATASET_FILES[: DATASET_FILES.index(name)] if name in DATASET_FILES else []
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted([*before, name])
