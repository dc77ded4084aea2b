"""Reverse-mode automatic differentiation over float64 numpy buffers.

The op set is exactly what the denoiser and trainer need: matmul, same-length
1-d convolution, a handful of pointwise nonlinearities, embedding lookup, row
slicing and concatenation, transpose and the reductions.  The tape is made of
nodes, not tensors: each tensor that requires grad has a ``_Node`` holding its
shape, gradient, input nodes and backward closure, and a differentiable op's
closure captures its input nodes and only the arrays its backward reads
(``conv1d`` its input's data, ``mul`` both factors, ``tanh`` and ``sigmoid``
their output, ``relu`` its mask), never an input tensor.  So an activation
that no backward reads is freed as soon as the forward drops the tensor.
``backward`` replays the tape in reverse topological order.  The tape is
rebuilt on every forward pass and consumed by ``backward`` — calling backward
twice on the same graph is a contract violation.  Backward frees each node as
it walks the tape: once a node's closure has run, the arrays it captured and
its gradient are released unless the caller still holds the tensor, which
then keeps its ``.grad``.

A gradient is a C-ordered buffer owned by its node: nobody else writes it,
whatever the layout of the tensor's data.  An op hands ``_Node.accumulate``
either an array it has just made and keeps no use of (``fresh=True``:
matmul's products, conv1d's gradients, the bias and row sums,
``segment_mse``'s gradients, the pointwise products), which a node without a
gradient adopts as it is when it is C-contiguous, or a view (add's and
sub's ``g``, transpose's ``g.T``, a slice), which a first contribution copies
into a new C-ordered buffer.  Later contributions are added in place, in the
order backward reaches them.  A one-row matmul's later weight contributions
(the step MLP's, one per segment) are added a block of rows at a time,
without the whole outer product.  A gradient's layout changes no bit except
through a reduction over it: an elementwise op on a transpose gives an
F-ordered output, and a sum over that output's gradient (``add``'s row sum,
say) adds in one order over a C-ordered buffer and in another over an
F-ordered one.  No such case occurs in the model: its only F-ordered outputs
are transposes, whose backward is an elementwise copy or add, and every
reduction or BLAS call over a gradient reads the gradient of a C-ordered
output.

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


class _Node:
    """A tensor's place on the tape: its shape and gradient, its input nodes
    and its backward closure, but not its data."""

    __slots__ = ("shape", "grad", "inputs", "backward")

    def __init__(self, shape: tuple[int, ...], inputs: tuple[_Node, ...] = (), backward=None):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.inputs = inputs
        self.backward = backward

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g into the gradient.  ``fresh`` says the caller made g and
        nobody else holds it: a first contribution of the node's shape in C
        order then becomes the gradient as it is, with no copy."""
        if self.grad is not None:
            self.grad += g
        elif fresh and g.shape == self.shape and g.flags.c_contiguous:
            self.grad = g
        else:
            # a private C-ordered buffer: g may be a view (of a transpose, of
            # another node's grad)
            self.grad = np.empty(self.shape)
            np.copyto(self.grad, g)


class Tensor:
    """N-d value carrier; a tensor that requires grad has a tape node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node: _Node | None = _Node(self.data.shape) if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ContractError("a gradient needs a tensor that requires grad")

    @property
    def _backward(self):
        """The closure of the op that made this tensor, None on a leaf."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """The op's output, with a tape node if any input has one."""
    out = Tensor(data)
    nodes = tuple([t._node for t in inputs if t._node is not None])
    if nodes:
        out._node = _Node(out.data.shape, nodes, backward)
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

    topo: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(loss._node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.inputs:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss._node.accumulate(np.ones_like(loss.data), fresh=True)
    # pop, not iterate: a node's consumers came earlier in the walk and have
    # dropped their references to it, so once its closure has run, the next
    # pop drops the last one unless the caller still holds the tensor
    while topo:
        node = topo.pop()
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
        node.inputs = ()
        node.backward = None


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    ad, bd, an, bn = a.data, b.data, a._node, b._node

    def grad_fn(g):
        if an is not None:
            an.accumulate(g @ bd.T, fresh=True)
        if bn is None:
            return
        if ad.shape[0] != 1:
            bn.accumulate(ad.T @ g, fresh=True)
        elif bn.grad is None:
            # a one-row a makes this an outer product, whose every element
            # is one product: the same bits as the K = 1 BLAS call, cheaper
            bn.accumulate(np.multiply(ad.T, g), fresh=True)
        else:
            _add_outer(bn.grad, ad[0], g[0])

    return _record(ad @ bd, (a, b), grad_fn)


OUTER_BLOCK = 32768  # elements of `_add_outer`'s buffer: 256 KiB, which stays in cache


def _add_outer(out: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
    """out += col[:, None] * row, a block of rows at a time through one
    small buffer: the bits of adding the whole product, which for a step-MLP
    weight would be a fresh 2 MB array per segment."""
    rows = max(1, OUTER_BLOCK // row.size)
    buf = np.empty((min(rows, col.size), row.size))
    for i in range(0, col.size, rows):
        part = buf[: min(rows, col.size - i)]
        np.multiply(col[i : i + rows, None], row, out=part)
        out[i : i + rows] += part


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
    as IEEE addition commutes, but one pass over the output and one tape node
    fewer.  The addend's gradient is the output's.  Backward reads x's data
    and the weight; the padded copy of x is not kept: the weight gradient
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
    xd, wd = x.data, weight.data
    xp = _padded(xd, segs, pad)

    acc = np.empty((c_out, width))
    scratch = np.empty(c_out * max(b - a for a, b, _ in segs)) if k > 1 else None
    for a, b, o in segs:
        np.matmul(wd[0], xp[:, o : o + b - a], out=acc[:, a:b])
        for tap in range(1, k):
            part = scratch[: c_out * (b - a)].reshape(c_out, b - a)
            acc[:, a:b] += np.matmul(wd[tap], xp[:, o + tap : o + tap + b - a], out=part)
    acc += bias.data[:, None]
    if addend is not None:
        acc += addend.data
    xn, wn, bn = x._node, weight._node, bias._node
    addn = None if addend is None else addend._node

    def grad_fn(g):
        if wn is not None:
            xp = _padded(xd, segs, pad)
            gw = np.empty(wd.shape)
            for a, b, o in segs:
                for tap in range(k):
                    np.matmul(g[:, a:b], xp[:, o + tap : o + tap + b - a].T, out=gw[tap])
                wn.accumulate(gw, fresh=True)
                if wn.grad is gw:  # adopted: the later segments need a buffer of their own
                    gw = np.empty(wd.shape)
        if bn is not None:
            for a, b, _ in segs:
                bn.accumulate(g[:, a:b].sum(axis=1), fresh=True)
        if xn is not None:
            # tap t moves input column j to output column j + pad - t;
            # the products that would land in the padding are dropped
            gx = np.zeros((c_in, width))
            for a, b, _ in segs:
                n = b - a
                for tap in range(k):
                    shift = tap - pad
                    lo, hi = max(shift, 0), n + min(shift, 0)
                    if lo < hi:
                        gx[:, a + lo : a + hi] += (wd[tap].T @ g[:, a:b])[:, lo - shift : hi - shift]
            xn.accumulate(gx, fresh=True)
        if addn is not None:
            addn.accumulate(g)

    # the addend first: `backward` walks the graph as it walks
    # add(addend, conv), the conv's inputs before the addend's, so gradients
    # that several nodes add into one tensor keep their order and their bits
    inputs = (x, weight, bias) if addend is None else (addend, x, weight, bias)
    return _record(acc, inputs, grad_fn)


# ---------------------------------------------------------------------------
# elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of one shape, or a [N, D] matrix plus a [1, D] row added to
    every row (a bias), whose gradient is the column sum."""
    row = a.data.ndim == 2 and b.shape == (1, a.shape[1])
    if a.shape != b.shape and not row:
        raise ShapeError(f"add needs equal shapes or a [1, D] row as b: {a.shape} + {b.shape}")
    same = a.shape == b.shape
    an, bn = a._node, b._node

    def grad_fn(g):
        if an is not None:
            an.accumulate(g)
        if bn is not None:
            if same:
                bn.accumulate(g)
            else:
                bn.accumulate(g.sum(axis=0, keepdims=True), fresh=True)

    return _record(a.data + b.data, (a, b), grad_fn)


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
    xn, row_nodes = x._node, [r._node for r in rows]

    def grad_fn(g):
        if xn is not None:
            xn.accumulate(g)
        for rn, (a, b) in zip(row_nodes, segs):
            if rn is not None:
                rn.accumulate(g[:, a:b].sum(axis=1).reshape(1, -1), fresh=True)

    return _record(out, (x, *rows), grad_fn)


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs equal shapes: {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    an, bn = a._node, b._node

    def grad_fn(g):
        if an is not None:
            an.accumulate(g)
        if bn is not None:
            bn.accumulate(-g, fresh=True)

    return _record(a.data - b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    ad, bd, an, bn = a.data, b.data, a._node, b._node

    def grad_fn(g):
        if an is not None:
            an.accumulate(g * bd, fresh=True)
        if bn is not None:
            bn.accumulate(g * ad, fresh=True)

    return _record(ad * bd, (a, b), grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    an = a._node

    def grad_fn(g):
        an.accumulate(g * s, fresh=True)

    return _record(a.data * s, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 is 0
    an = a._node

    def grad_fn(g):
        an.accumulate(g * mask, fresh=True)

    return _record(np.where(mask, a.data, 0.0), (a,), grad_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    an = a._node

    def grad_fn(g):
        an.accumulate(g * (1.0 - y * y), fresh=True)

    return _record(y, (a,), grad_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below;
    # the numerator max(x >= 0, e) is 1 where x >= 0 (e <= 1) and e elsewhere
    # (NaN for NaN): the bits of np.where(x >= 0, 1.0, e), without a branch
    # on the sign; three buffers: e, the numerator and the result
    e = np.abs(x, out=np.empty(x.shape))  # an array even when x is 0-d
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.greater_equal(x, 0.0, out=np.empty(x.shape))
    np.maximum(out, e, out=out)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    an = a._node

    def grad_fn(g):
        an.accumulate(g * y * (1.0 - y), fresh=True)

    return _record(y, (a,), grad_fn)


def swish(a: Tensor) -> Tensor:
    ad = a.data
    s = _sigmoid(ad)
    an = a._node

    def grad_fn(g):
        an.accumulate(g * (s + ad * s * (1.0 - s)), fresh=True)

    return _record(ad * s, (a,), grad_fn)


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
    tn = table._node

    def grad_fn(g):
        gt = np.zeros(tn.shape)
        np.add.at(gt, idx, g)
        tn.accumulate(gt, fresh=True)

    return _record(table.data[idx], (table,), grad_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start < stop <= a.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {a.shape}")
    an = a._node

    def grad_fn(g):
        ga = np.zeros(an.shape)
        ga[start:stop] = g
        an.accumulate(ga, fresh=True)

    return _record(a.data[start:stop], (a,), grad_fn)


def concat_rows(tensors) -> Tensor:
    """The [n_i, D] tensors stacked along rows; one tensor is returned as is."""
    if len(tensors) == 1:
        return tensors[0]
    if any(t.data.ndim != 2 for t in tensors) or len({t.shape[1] for t in tensors}) != 1:
        raise ShapeError(f"concat_rows needs matrices of one width, got {[t.shape for t in tensors]}")
    parts = [(t._node, t.shape[0]) for t in tensors]

    def grad_fn(g):
        start = 0
        for node, n in parts:
            if node is not None:
                node.accumulate(g[start : start + n])
            start += n

    return _record(np.concatenate([t.data for t in tensors]), tuple(tensors), grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    an = a._node

    def grad_fn(g):
        an.accumulate(g.T)

    return _record(a.data.T, (a,), grad_fn)


def tsum(a: Tensor) -> Tensor:
    an = a._node

    def grad_fn(g):
        an.accumulate(np.full(an.shape, float(g)), fresh=True)

    return _record(a.data.sum(), (a,), grad_fn)


def tmean(a: Tensor) -> Tensor:
    inv_n = 1.0 / a.data.size
    an = a._node

    def grad_fn(g):
        an.accumulate(np.full(an.shape, float(g) * inv_n), fresh=True)

    return _record(a.data.mean(), (a,), grad_fn)


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
    an, bn = a._node, b._node

    def grad_fn(g):
        ga = None if an is None else np.empty(an.shape)
        gb = None if bn is None else np.empty(bn.shape)
        for (s, e), d in zip(segs, diffs):
            x = (float(g * inv_count) * (1.0 / d.size)) * d
            gd = x + x  # what mse's mul adds into d, once per factor
            if ga is not None:
                ga[s:e] = gd
            if gb is not None:
                gb[s:e] = -gd
        if ga is not None:
            an.accumulate(ga, fresh=True)
        if gb is not None:
            bn.accumulate(gb, fresh=True)

    return _record(total * inv_count, (a, b), grad_fn)


def identity(n: int) -> Tensor:
    return Tensor(np.eye(n))


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


SQRT_HALF = 1.0 / math.sqrt(2.0)
