"""Reverse-mode automatic differentiation over float64 numpy buffers.

The op set is exactly what the denoiser and trainer need: matmul, same-length
1-d convolution, a handful of pointwise nonlinearities, embedding lookup, row
slicing and concatenation, transpose and the reductions.  Each differentiable
op records (inputs, backward closure) on its output; ``backward`` replays the
implicit tape in reverse topological order.  The tape is rebuilt on every
forward pass and consumed by ``backward`` — calling backward twice on the
same graph is a contract violation.  Backward frees each node as it walks the tape: once a
node's closure has run, its activation and gradient are released unless the
caller still holds the tensor, which then keeps its ``.grad``.  ``conv1d``
takes the tensor its output is summed into as an ``addend``, so a conv
output that only a sum reads is not held on the tape as a node of its own,
and it pads its input again in backward instead of holding the padded copy
from the forward.

Conventions deliberately pinned here because tests rely on them:
  * everything is float64;
  * the ReLU subgradient at exactly 0 is 0;
  * swish(x) = x * sigmoid(x).

A batch of segments travels as one slab whose columns (rows, for
``[frames, features]`` tensors) are the segments side by side, with their
``lengths`` passed to the ops that must keep segments apart: ``conv1d``
(padding and parameter gradients), ``add_per_segment`` and ``segment_mse``.
Those ops reduce each segment on its own, add the per-segment results in
segment order and give BLAS one call per segment, so every segment gets the
bits that a graph built for it alone gives.  One product over the whole slab
would not: BLAS may round a column differently depending on the width of the
call (OpenBLAS 0.3.31 on an AVX-512 Xeon sends the last 1-4 columns of a
width that is not a multiple of 8 to a remainder kernel).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """N-d value carrier; participates in the gradient tape when required."""

    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._inputs: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a private buffer in the data's layout: g may be a view (of a
            # transpose, of another node's grad) or broadcast
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Attach the tape node if any input participates in gradients."""
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._backward = backward
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from loss.

    The traversal order is a reverse topological sort of the recorded ops, so
    each op contributes its input gradients exactly once.  Each node leaves
    the tape as soon as it has been processed, so peak memory is what the
    forward held plus the gradients still in flight, not every activation
    and every gradient at once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward is None:
        # backward clears the tape it walks, the loss's node included
        raise ContractError("backward needs a loss with recorded operations: none were "
                            "recorded, or backward already ran on it; rerun the forward pass")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.accumulate(np.ones_like(loss.data))
    # pop, not iterate: a node's consumers came earlier in the walk and have
    # dropped their references to it, so once its closure has run, the next
    # pop drops the last one unless the caller still holds the tensor
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._inputs = ()
        node._backward = None


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            # a one-row a makes this an outer product, whose every element
            # is one product: the same bits as the K = 1 BLAS call, cheaper
            b.accumulate(np.multiply(a.data.T, g) if a.shape[0] == 1 else a.data.T @ g)

    return _record(out, (a, b), grad_fn)


def _spans(lengths, total: int) -> list[tuple[int, int]]:
    """(start, stop) of each segment of a slab `total` wide."""
    starts = list(accumulate(lengths, initial=0))
    if starts[-1] != total or min(lengths) < 1:
        raise ShapeError(f"segment lengths {list(lengths)} do not tile {total} frames")
    return list(zip(starts, starts[1:]))


def _padded(x: np.ndarray, segs, pad: int) -> np.ndarray:
    """x with each segment's block zero-padded by `pad` columns per side, for
    the segments (start, stop, first padded column) of `conv1d`."""
    if not pad:
        return x
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad * len(segs)))
    for a, b, o in segs:
        xp[:, o + pad : o + pad + b - a] = x[:, a:b]
    return xp


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, lengths=None, addend: Tensor | None = None) -> Tensor:
    """Same-length 1-d convolution of [C_in, L] with weight [K, C_out, C_in].

    The weight is stored tap-major so each tap ``weight[tap]`` is a contiguous
    [C_out, C_in] matrix that goes straight to BLAS in the forward
    (``W[tap] @ x``) and both backward products; a [C_out, C_in, K] layout
    makes every tap a strided view.  Taps are adjacent (no dilation), and
    symmetric zero padding of (K-1)/2 per side keeps the output length equal
    to the input length (non-causal).  K must be odd; K=1 is a per-frame
    linear map.

    With ``lengths``, x is a slab of segments side by side (see the module
    docstring).  Each segment is padded on its own, in one buffer, so no
    column sees a neighbouring segment, and each one's weight and bias
    gradients are added to the parameter's in segment order.

    With ``addend`` ([C_out, L]), the output is (conv + bias) + addend, summed
    in the conv's own accumulator: the bits of ``add(conv1d(...), addend)``,
    as IEEE addition commutes, but one tape node, so the tape does not hold
    a conv output that only the sum reads.  The addend's gradient is the
    output's.  The padded copy of x is not kept either: the weight gradient
    pads x again when it runs.
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d expects [C_in,L] and [K,C_out,C_in], got {x.shape}, {weight.shape}")
    k, c_out, c_in = weight.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel size must be odd, got {k}")
    if x.shape[0] != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape} vs weight {weight.shape}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({c_out},)")
    width = x.shape[1]
    if addend is not None and addend.shape != (c_out, width):
        raise ShapeError(f"conv1d addend shape {addend.shape} != ({c_out}, {width})")

    pad = (k - 1) // 2
    # (start, stop, first column of the segment's padded block in xp)
    segs = [(a, b, a + 2 * pad * i) for i, (a, b) in enumerate(_spans(lengths or (width,), width))]
    xp = _padded(x.data, segs, pad)

    acc = np.empty((c_out, width))
    scratch = np.empty(c_out * max(b - a for a, b, _ in segs)) if k > 1 else None
    for a, b, o in segs:
        np.matmul(weight.data[0], xp[:, o : o + b - a], out=acc[:, a:b])
        for tap in range(1, k):
            part = scratch[: c_out * (b - a)].reshape(c_out, b - a)
            acc[:, a:b] += np.matmul(weight.data[tap], xp[:, o + tap : o + tap + b - a], out=part)
    acc += bias.data[:, None]
    if addend is not None:
        acc += addend.data
    out = Tensor(acc)

    def grad_fn(g):
        if weight.requires_grad:
            xp = _padded(x.data, segs, pad)
            gw = np.empty_like(weight.data)
            for a, b, o in segs:
                for tap in range(k):
                    np.matmul(g[:, a:b], xp[:, o + tap : o + tap + b - a].T, out=gw[tap])
                weight.accumulate(gw)
        if bias.requires_grad:
            for a, b, _ in segs:
                bias.accumulate(g[:, a:b].sum(axis=1))
        if x.requires_grad:
            # tap t moves input column j to output column j + pad - t;
            # the products that would land in the padding are dropped
            gx = np.zeros((c_in, width))
            for a, b, _ in segs:
                n = b - a
                for tap in range(k):
                    shift = tap - pad
                    lo, hi = max(shift, 0), n + min(shift, 0)
                    if lo < hi:
                        gx[:, a + lo : a + hi] += (weight.data[tap].T @ g[:, a:b])[:, lo - shift : hi - shift]
            x.accumulate(gx)
        if addend is not None and addend.requires_grad:
            addend.accumulate(g)

    # the addend first: `backward` walks the graph as it walks
    # add(addend, conv), the conv's inputs before the addend's, so gradients
    # that several nodes add into one tensor keep their order and their bits
    inputs = (x, weight, bias) if addend is None else (addend, x, weight, bias)
    return _record(out, inputs, grad_fn)


# ---------------------------------------------------------------------------
# elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of one shape, or a [N, D] matrix plus a [1, D] row added to
    every row (a bias), whose gradient is the column sum."""
    row = a.data.ndim == 2 and b.shape == (1, a.shape[1])
    if a.shape != b.shape and not row:
        raise ShapeError(f"add needs equal shapes or a [1, D] row as b: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g if b.shape == a.shape else g.sum(axis=0, keepdims=True))

    return _record(out, (a, b), grad_fn)


def add_per_segment(x: Tensor, rows, lengths) -> Tensor:
    """Slab x [C, N] plus rows[i] [1, C], added as a column to every column
    of segment i; each row's gradient is the sum over its own segment."""
    segs = _spans(lengths, x.shape[1])
    if len(rows) != len(segs) or any(r.shape != (1, x.shape[0]) for r in rows):
        raise ShapeError(f"add_per_segment needs {len(segs)} rows of shape (1, {x.shape[0]}), "
                         f"got {[r.shape for r in rows]}")
    out = np.empty_like(x.data)
    for r, (a, b) in zip(rows, segs):
        np.add(x.data[:, a:b], r.data.T, out=out[:, a:b])

    def grad_fn(g):
        if x.requires_grad:
            x.accumulate(g)
        for r, (a, b) in zip(rows, segs):
            if r.requires_grad:
                r.accumulate(g[:, a:b].sum(axis=1, keepdims=True).T)

    return _record(Tensor(out), (x, *rows), grad_fn)


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs equal shapes: {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return _record(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _record(out, (a, b), grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)

    def grad_fn(g):
        a.accumulate(g * s)

    return _record(out, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 is 0
    out = Tensor(np.where(mask, a.data, 0.0))

    def grad_fn(g):
        a.accumulate(g * mask)

    return _record(out, (a,), grad_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def grad_fn(g):
        a.accumulate(g * (1.0 - y * y))

    return _record(out, (a,), grad_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below;
    # three buffers: e, the sign mask and the result
    e = np.abs(x, out=np.empty(x.shape))  # an array even when x is 0-d
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def grad_fn(g):
        a.accumulate(g * y * (1.0 - y))

    return _record(out, (a,), grad_fn)


def swish(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)

    def grad_fn(g):
        a.accumulate(g * (s + a.data * s * (1.0 - s)))

    return _record(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# structure

def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of table [V, D]; gradients scatter-add into touched rows."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding indices must be a flat sequence, got shape {idx.shape}")
    v = table.shape[0]
    bad = np.nonzero((idx < 0) | (idx >= v))[0]
    if bad.size:
        pos = int(bad[0])
        raise ShapeError(f"embedding index {int(idx[pos])} out of range [0, {v}) at position {pos}")
    out = Tensor(table.data[idx])

    def grad_fn(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            table.accumulate(gt)

    return _record(out, (table,), grad_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start < stop <= a.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {a.shape}")
    out = Tensor(a.data[start:stop])

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        a.accumulate(ga)

    return _record(out, (a,), grad_fn)


def concat_rows(tensors) -> Tensor:
    """The [n_i, D] tensors stacked along rows; one tensor is returned as is."""
    if len(tensors) == 1:
        return tensors[0]
    if any(t.data.ndim != 2 for t in tensors) or len({t.shape[1] for t in tensors}) != 1:
        raise ShapeError(f"concat_rows needs matrices of one width, got {[t.shape for t in tensors]}")
    out = Tensor(np.concatenate([t.data for t in tensors]))

    def grad_fn(g):
        start = 0
        for t in tensors:
            if t.requires_grad:
                t.accumulate(g[start : start + t.shape[0]])
            start += t.shape[0]

    return _record(out, tuple(tensors), grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.T)

    def grad_fn(g):
        a.accumulate(g.T)

    return _record(out, (a,), grad_fn)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def grad_fn(g):
        a.accumulate(np.full_like(a.data, float(g)))

    return _record(out, (a,), grad_fn)


def tmean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())
    inv_n = 1.0 / a.data.size

    def grad_fn(g):
        a.accumulate(np.full_like(a.data, float(g) * inv_n))

    return _record(out, (a,), grad_fn)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over elements of the squared difference."""
    d = sub(a, b)
    return tmean(mul(d, d))


def segment_mse(a: Tensor, b: Tensor, lengths) -> Tensor:
    """Mean over segments of each segment's `mse`, for [N, D] slabs whose
    rows are the segments; the same bits as `mse` per segment, summed in
    segment order and scaled by 1/segments."""
    if a.shape != b.shape or a.data.ndim != 2:
        raise ShapeError(f"segment_mse needs two matrices of one shape, got {a.shape} and {b.shape}")
    segs = _spans(lengths, a.shape[0])
    diffs = [a.data[s:e] - b.data[s:e] for s, e in segs]
    total = None
    for d in diffs:
        m = (d * d).mean()
        total = m if total is None else total + m
    inv_count = 1.0 / len(segs)
    out = Tensor(total * inv_count)

    def grad_fn(g):
        ga = np.empty_like(a.data) if a.requires_grad else None
        gb = np.empty_like(b.data) if b.requires_grad else None
        for (s, e), d in zip(segs, diffs):
            x = (float(g * inv_count) * (1.0 / d.size)) * d
            gd = x + x  # what mse's mul adds into d, once per factor
            if ga is not None:
                ga[s:e] = gd
            if gb is not None:
                gb[s:e] = -gd
        if ga is not None:
            a.accumulate(ga)
        if gb is not None:
            b.accumulate(gb)

    return _record(out, (a, b), grad_fn)


def identity(n: int) -> Tensor:
    return Tensor(np.eye(n))


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


SQRT_HALF = 1.0 / math.sqrt(2.0)
