"""Atomic file writes for every run artifact: checkpoints, the eigen
cache, manifests, metrics CSVs, filter tables and partition reports."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_writer(path: str | Path):
    """Yield a binary handle on a new temporary file beside ``path``.

    On a clean exit the file replaces ``path`` in one rename; on an error
    it is removed and ``path`` is left as it was. Each call gets its own
    temporary name, so concurrent writers to one path never share a file
    and the last rename wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
