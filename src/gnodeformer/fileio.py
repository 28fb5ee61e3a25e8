"""One reader for the key=value text of manifests, dataset meta files and
SBM specs, and atomic writes for every file the program makes: binary
through ``atomic_writer``, lines of text through ``write_lines``."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


def parse_pairs(entries, what: str, error: type[Exception]) -> dict[str, str]:
    """key -> value of ``key=value`` entries, skipping blank ones; keys are
    stripped, values kept as written. An entry without '=' or a repeated
    key raises ``error``, whose message names ``what``."""
    pairs: dict[str, str] = {}
    for entry in entries:
        if not entry.strip():
            continue
        if "=" not in entry:
            raise error(f"{what} entry {entry!r} is not key=value")
        key, _, value = entry.partition("=")
        key = key.strip()
        if key in pairs:
            raise error(f"{what} repeats key {key!r}")
        pairs[key] = value
    return pairs


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


def write_lines(path: str | Path, lines) -> None:
    """Write ``lines`` as UTF-8 text, each ended by a newline, atomically."""
    with atomic_writer(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode())
