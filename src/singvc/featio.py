"""FEAT1 binary container for feature matrices.

Layout: magic "FEAT1" (5 bytes), u8 format version = 1, u32 LE rank,
rank x u32 LE dims, then row-major 32-bit LE floats.  Integer contours are
stored as floats.  Reading rejects NaN and infinite values, which no feature
can hold and which would otherwise surface far from the file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError

MAGIC = b"FEAT1"
VERSION = 1


def write_feat(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<B", VERSION))
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def read_feat(path) -> np.ndarray:
    """Returns float64 (exact widening of the stored f32 payload)."""
    raw = Path(path).read_bytes()

    def need(n: int, offset: int, what: str) -> None:
        if len(raw) < offset + n:
            raise FormatError(f"{path}: truncated {what} at byte {len(raw)} (need {offset + n})")

    need(5, 0, "magic")
    if raw[:5] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:5]!r} at byte 0")
    need(1, 5, "version")
    version = raw[5]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version} at byte 5")
    need(4, 6, "rank")
    (rank,) = struct.unpack_from("<I", raw, 6)
    if rank == 0 or rank > 8:
        raise FormatError(f"{path}: implausible rank {rank} at byte 6")
    need(4 * rank, 10, "dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 10)
    header = 10 + 4 * rank
    count = int(np.prod(dims))
    need(4 * count, header, "payload")
    if len(raw) != header + 4 * count:
        raise FormatError(f"{path}: {len(raw) - header - 4 * count} trailing bytes at byte {header + 4 * count}")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=header)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        index = tuple(int(i) for i in np.unravel_index(bad[0], dims))
        raise InputError(f"{path}: non-finite value {data[bad[0]]} at index {index}")
    return data.reshape(dims).astype(np.float64)
