import numpy as np
import pytest

from gnodeformer import cli, fileio
from gnodeformer.errors import ConfigError
from gnodeformer.fedsim import RoundRecord, write_metrics_csv
from gnodeformer.fileio import atomic_writer
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
    record = RoundRecord(0, (0,), {0: [EpochRecord(0, 1.0, 0.5, 0.1)]}, 1.0, 0.5, 8, 8)
    write_metrics_csv(path, [record])


def _filter_table(path):
    write_filter_table(path, np.linspace(0.0, 2.0, 3), np.ones((3, 2)))


def _partition_report(path):
    args = cli.build_parser().parse_args([
        "partition-report", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1",
        "--clients", "2", "--seeds", "1", "--out", str(path),
    ])
    args.func(args)


@pytest.mark.parametrize(
    "write, error",
    [(lambda path: cli.write_manifest(path, {"lr": 0.1, "seed": 3}), OSError),
     (_central_rows, OSError), (_round_rows, OSError), (_filter_table, OSError),
     # the command reports the failed write as a config error (exit 2)
     (_partition_report, ConfigError)],
    ids=["manifest", "central_csv", "metrics_csv", "filter_table", "partition_report"],
)
def test_text_artifact_failing_midway_keeps_old_file(
    tmp_path, monkeypatch, write, error
):
    target = tmp_path / "artifact.txt"
    target.write_bytes(b"old")
    real_open = open
    monkeypatch.setattr(
        fileio, "open", lambda *a: _FailsMidway(real_open(*a)), raising=False
    )
    with pytest.raises(error, match="disk full"):
        write(target)
    assert target.read_bytes() == b"old"
    assert [f.name for f in tmp_path.iterdir()] == ["artifact.txt"]
