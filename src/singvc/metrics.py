"""Objective conversion metrics: DTW alignment, mel-cepstrum distortion, and
F0 Pearson correlation.

Conventions: cepstra are the orthonormal DCT-II of denormalized log-mel
frames, 13 coefficients kept; coefficient 0 (frame energy) is excluded from
MCD and from its alignment; MCD is averaged over the aligned pairs of the
optimal path, which `mcd` also returns, and FPC is computed on two F0
arrays in Hz over the frames voiced in both, the arrays indexed with that
same path, so one alignment serves both metrics.

DTW fills its (N+1)×(M+1) cost table one anti-diagonal k = i + j at a time.
In the flat C-order table a diagonal and its up, left and diagonal
neighbours are stride-M slices of diagonals k−1 and k−2, so each diagonal
is two `np.minimum` and one `np.add` into views, and every cell is still
`local + min(up, left, diag)`, the same double a per-cell loop gives. The
local Euclidean costs are written into the table first, ceil(N / D) rows at
a time, so the [rows, M, D] difference stays near N·M doubles; memory is
O(N·M). The backtrack breaks ties diagonal first, then up, then left.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, MetricUndefinedError

MCD_COEFFS = 13
_MCD_SCALE = 10.0 / math.log(10.0)


def mel_to_cepstrum(log_mel: np.ndarray) -> np.ndarray:
    """[frames, MCD_COEFFS]: orthonormal DCT-II over the mel axis, first
    MCD_COEFFS kept (all N when there are fewer mel bins).

    Coefficient k of an N-bin frame x is
    s_k * sum_n x[n] * cos(pi * k * (2n + 1) / 2N), with s_0 = sqrt(1/N) and
    s_k = sqrt(2/N) above; only the kept rows of the transform are formed,
    as an [N, MCD_COEFFS] basis applied in one product."""
    log_mel = np.asarray(log_mel, dtype=np.float64)
    n = log_mel.shape[1]
    k = np.arange(min(MCD_COEFFS, n))
    basis = np.cos(np.pi / (2 * n) * np.outer(2 * np.arange(n) + 1, k))
    basis *= np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    return log_mel @ basis


def _as_frames(x) -> np.ndarray:
    """1-D sequences are frames of scalars."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _check_finite(x: np.ndarray, name: str) -> None:
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise InputError(f"dtw input {name} has a non-finite value at frame {int(bad.argmax())}")


def _local_costs(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = ||a[i] - b[j]||, ceil(N / D) rows of a at a time."""
    ni, dim = a.shape
    rows = -(-ni // max(dim, 1))
    buf = np.empty((rows, b.shape[0], dim))
    for r in range(0, ni, rows):
        block = out[r : r + rows]
        diff = buf[: len(block)]
        np.subtract(a[r : r + rows, None], b[None], out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=2, out=block)
        np.sqrt(block, out=block)


def dtw(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimal-cost monotone alignment under Euclidean frame distance.

    Returns the path as an int64 [n, 2] array of (i, j) pairs from (0, 0)
    to (N-1, M-1), steps in {(1,0), (0,1), (1,1)}, and its cost.
    """
    a = _as_frames(a)
    b = _as_frames(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InputError(f"dtw inputs must be [frames, D] with equal D: {a.shape} vs {b.shape}")
    ni, nj = a.shape[0], b.shape[0]
    if ni == 0 or nj == 0:
        raise InputError("dtw inputs must be non-empty")
    _check_finite(a, "a")
    _check_finite(b, "b")

    acc = np.empty((ni + 1, nj + 1))
    acc[0] = np.inf
    acc[1:, 0] = np.inf
    acc[0, 0] = 0.0
    _local_costs(a, b, acc[1:, 1:])

    # anti-diagonal k holds cells (i, k - i); along it the flat index steps
    # by nj, and up, left and diag sit at offsets -(nj + 1), -1 and -(nj + 2)
    flat = acc.reshape(-1)
    width = nj + 1
    best = np.empty(min(ni, nj))
    for k in range(2, ni + nj + 1):
        i_lo = max(1, k - nj)
        n = min(ni, k - 1) - i_lo + 1
        s = i_lo * width + k - i_lo
        e = s + (n - 1) * nj + 1
        cell, m = flat[s:e:nj], best[:n]
        np.minimum(flat[s - width : e - width : nj], flat[s - 1 : e - 1 : nj], out=m)
        np.minimum(m, flat[s - width - 1 : e - width - 1 : nj], out=m)
        np.add(cell, m, out=cell)

    pairs = [(ni - 1, nj - 1)]
    i, j = ni, nj
    while (i, j) != (1, 1):
        choices = ((acc[i - 1, j - 1], i - 1, j - 1), (acc[i - 1, j], i - 1, j), (acc[i, j - 1], i, j - 1))
        _, i, j = min(choices, key=lambda c: c[0])
        pairs.append((i - 1, j - 1))
    pairs.reverse()
    return np.array(pairs, dtype=np.int64), float(acc[ni, nj])


def mcd(ref: np.ndarray, hyp: np.ndarray) -> tuple[float, np.ndarray]:
    """Mel-cepstrum distortion in dB between two [frames, n_coeffs] cepstra,
    and the DTW path it is averaged over: coefficients 1..12 aligned with
    DTW, (10/ln 10) * sqrt(2 * sum of squared diffs), averaged over the
    path's (ref, hyp) frame pairs.  Fewer than 2 coefficients is an
    `InputError`: without coefficient 0 nothing is left to compare."""
    if ref.shape[1] != hyp.shape[1]:
        raise InputError(f"coefficient count mismatch: {ref.shape[1]} vs {hyp.shape[1]}")
    if ref.shape[1] < 2:
        raise InputError(f"MCD needs at least 2 coefficients, c0 left out; got {ref.shape[1]}")
    r = ref[:, 1:]
    h = hyp[:, 1:]
    path, _ = dtw(r, h)
    sq = ((r[path[:, 0]] - h[path[:, 1]]) ** 2).sum(axis=1)
    return float(_MCD_SCALE * np.mean(np.sqrt(2.0 * sq))), path


def fpc(ref_hz: np.ndarray, hyp_hz: np.ndarray) -> float:
    """Pearson correlation of two F0 contours in Hz over the frames voiced
    in both.

    Inputs are assumed already aligned (equal length).
    """
    if len(ref_hz) != len(hyp_hz):
        raise InputError(f"contour length mismatch: {len(ref_hz)} vs {len(hyp_hz)}")
    both = (ref_hz > 0) & (hyp_hz > 0)
    if both.sum() < 2:
        raise MetricUndefinedError(f"FPC undefined: only {int(both.sum())} jointly voiced frames")
    x = ref_hz[both]
    y = hyp_hz[both]
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc**2).sum() * (yc**2).sum()))
    if denom == 0.0:
        raise MetricUndefinedError("FPC undefined: a contour is constant over jointly voiced frames")
    return float((xc * yc).sum() / denom)
