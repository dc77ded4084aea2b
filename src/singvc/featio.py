"""FEAT1 binary container for feature matrices.

Layout: magic "FEAT1" (5 bytes), u8 format version = 1, u32 LE rank,
rank x u32 LE dims, then row-major 32-bit LE floats.  Integer contours are
stored as floats.  Reading rejects NaN and infinite values, which no feature
can hold and which would otherwise surface far from the file; writing
refuses them too, finite values beyond float32's range included, and
refuses a rank above `MAX_RANK`, which reading takes for damage, and a
dimension above `MAX_DIM`, which a u32 cannot hold; so every file written
can be read back.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError

MAGIC = b"FEAT1"
VERSION = 1
MAX_RANK = 8  # a header's rank above this is damage, so nothing writes one
MAX_DIM = 2**32 - 1  # the largest u32 dimension


def _first_non_finite(path, data: np.ndarray, dims) -> None:
    """An `InputError` naming the file and the index of the first value of
    the flat payload `data` that is NaN or infinite, if there is one."""
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        index = tuple(int(i) for i in np.unravel_index(bad[0], dims))
        raise InputError(f"{path}: non-finite value {data[bad[0]]} at index {index}")


def as_payload(path, array) -> np.ndarray:
    """`array` as the float32 payload of a FEAT1 file at `path`; a rank
    above `MAX_RANK`, a dimension above `MAX_DIM`, or a value that is not
    finite as float32, is an `InputError` naming the file."""
    with np.errstate(over="ignore"):  # an overflow shows up as inf, checked next
        arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim > MAX_RANK:
        raise InputError(f"{path}: rank {arr.ndim} is above FEAT1's largest, {MAX_RANK}")
    if max(arr.shape, default=0) > MAX_DIM:
        raise InputError(f"{path}: dimension {max(arr.shape)} of shape {arr.shape} is above "
                         f"FEAT1's largest, {MAX_DIM}")
    _first_non_finite(path, arr.reshape(-1), arr.shape)
    return arr


def write_feat(path, array) -> None:
    """Writes `array` as float32; a rank above `MAX_RANK`, a dimension
    above `MAX_DIM`, or a value that is not finite as float32, is an
    `InputError`, raised before a directory or the file is made."""
    arr = as_payload(path, array)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
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
    if rank == 0 or rank > MAX_RANK:
        raise FormatError(f"{path}: implausible rank {rank} at byte 6")
    need(4 * rank, 10, "dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 10)
    header = 10 + 4 * rank
    count = math.prod(dims)
    need(4 * count, header, "payload")
    if len(raw) != header + 4 * count:
        raise FormatError(f"{path}: {len(raw) - header - 4 * count} trailing bytes at byte {header + 4 * count}")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=header)
    _first_non_finite(path, data, dims)
    return data.reshape(dims).astype(np.float64)
