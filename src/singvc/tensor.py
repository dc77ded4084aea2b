"""Reverse-mode automatic differentiation over float64 numpy buffers.

The op set is exactly what the denoiser and trainer need: matmul, same-length
1-d convolution, a handful of pointwise nonlinearities, embedding lookup, row
slicing, transpose and the two reductions.  Each differentiable op records
(inputs, backward closure) on its output; ``backward`` replays the implicit
tape in reverse topological order.  The tape is rebuilt on every forward pass
and consumed by ``backward`` — calling backward twice on the same graph is a
contract violation.

Conventions deliberately pinned here because tests rely on them:
  * everything is float64;
  * the ReLU subgradient at exactly 0 is 0;
  * swish(x) = x * sigmoid(x).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError, ConfigError


class Tensor:
    """N-d value carrier; participates in the gradient tape when required."""

    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._inputs: tuple[Tensor, ...] = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None


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
    each op contributes its input gradients exactly once.  The visited part of
    the tape is cleared afterwards.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise ContractError("backward called twice on the same tape; rerun the forward pass")
    if loss._backward is None:
        raise ContractError("backward called with no recorded operations")

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
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._inputs = ()
        node._backward = None
    loss._consumed = True


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
            b.accumulate(a.data.T @ g)

    return _record(out, (a, b), grad_fn)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1) -> Tensor:
    """Same-length 1-d convolution of [C_in, L] with weight [C_out, C_in, K].

    Symmetric zero padding of (K-1)*dilation/2 per side keeps the output
    length equal to the input length (non-causal).  K must be odd; K=1 is a
    per-frame linear map.
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d expects [C_in,L] and [C_out,C_in,K], got {x.shape}, {weight.shape}")
    c_out, c_in, k = weight.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd, got {k}")
    if dilation < 1:
        raise ConfigError(f"conv1d dilation must be >= 1, got {dilation}")
    if x.shape[0] != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape} vs weight {weight.shape}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({c_out},)")

    length = x.shape[1]
    pad = (k - 1) * dilation // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad))) if pad else x.data
    acc = np.zeros((c_out, length))
    for tap in range(k):
        acc += weight.data[:, :, tap] @ xp[:, tap * dilation : tap * dilation + length]
    out = Tensor(acc + bias.data[:, None])

    def grad_fn(g):
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for tap in range(k):
                gw[:, :, tap] = g @ xp[:, tap * dilation : tap * dilation + length].T
            weight.accumulate(gw)
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=1))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for tap in range(k):
                gxp[:, tap * dilation : tap * dilation + length] += weight.data[:, :, tap].T @ g
            x.accumulate(gxp[:, pad : pad + length] if pad else gxp)

    return _record(out, (x, weight, bias), grad_fn)


# ---------------------------------------------------------------------------
# elementwise

def _broadcast_ok(a_shape, b_shape) -> bool:
    # equal shapes, or a 2-d column/row vector stretched over the other axis
    if a_shape == b_shape:
        return True
    if len(a_shape) == 2 and len(b_shape) == 2:
        return all(bs in (1, as_) for as_, bs in zip(a_shape, b_shape))
    return False


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum the broadcast axes of g back down to shape."""
    if g.shape == tuple(shape):
        return g
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    return g.sum(axis=axes, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add shapes not broadcastable: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g, b.shape))

    return _record(out, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"sub shapes not broadcastable: {a.shape} - {b.shape}")
    out = Tensor(a.data - b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(-_reduce_to(g, b.shape))

    return _record(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul shapes not broadcastable: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g * a.data, b.shape))

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
    # branch keeps exp bounded for both signs
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        raise IndexError(f"embedding index {int(idx[pos])} out of range [0, {v}) at position {pos}")
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


def identity(n: int) -> Tensor:
    return Tensor(np.eye(n))


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


SQRT_HALF = 1.0 / math.sqrt(2.0)
