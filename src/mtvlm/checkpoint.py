"""Flat binary checkpoints for parameter sets.

Layout: magic ``URSK``, then a little-endian u32 format version, then one
record per parameter in insertion order:

    u32 name length, UTF-8 name bytes,
    u32 rank, u32 extents[rank],
    little-endian float64 payload (C order).

The format is intentionally dumb: no compression, no alignment games, so a
checkpoint can be audited with ``xxd``. Reading rejects a payload holding
NaN or inf, which no finished training run writes.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError
from .fileio import write_atomic

MAGIC = b"URSK"
VERSION = 1


def write_checkpoint(path: str | Path, state: dict[str, np.ndarray]) -> None:
    """Write ``state``, as ``ParameterSet.state()`` returns it, in its order."""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    for name, p in state.items():
        raw = name.encode("utf-8")
        # asarray, not ascontiguousarray: the latter would write 0-d as (1,)
        arr = np.asarray(p, dtype="<f8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, b"".join(chunks))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ContractError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    view, offset = memoryview(blob), 4

    def take(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(blob):
            raise ContractError(
                f"{path}: truncated checkpoint or trailing bytes at offset {offset}")
        offset += size
        return view[offset - size:offset]

    def u32(count: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count))

    (version,) = u32()
    if version != VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (nlen,) = u32()
        try:
            name = bytes(take(nlen)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: non-UTF-8 parameter name at offset {offset - nlen}") from exc
        (rank,) = u32()
        shape = u32(rank)
        count = math.prod(shape)
        arr = np.frombuffer(take(8 * count), dtype="<f8").copy()
        if name in out:
            raise ContractError(f"{path}: duplicate parameter {name!r}")
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: parameter {name!r} holds NaN or inf")
        out[name] = arr.reshape(shape)
    return out

