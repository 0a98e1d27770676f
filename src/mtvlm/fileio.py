"""Whole-file replacement for the files a run writes.

``write_atomic`` writes a temporary file in the target's directory and
renames it over the target with ``os.replace``. A run that is interrupted
or fails mid-write leaves the previous file as it was, never a truncated
one that still parses. (It does not fsync, so it guards against a process
stopping, not against the machine losing power.)

``read_text`` is the matching reader: files are UTF-8 text, and a file
that is not raises the reader's documented error type, naming the file.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path, error: type[Exception]) -> str:
    """``path``'s UTF-8 text; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
