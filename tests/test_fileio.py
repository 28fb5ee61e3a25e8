import pytest

from gnodeformer.fileio import atomic_writer


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
