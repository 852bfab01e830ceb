"""Dense float64 tensors with recorded-tape reverse-mode differentiation.

Every operation runs in double precision on contiguous row-major numpy
arrays and, when gradients are enabled, records a backward closure on the
output node. ``backward`` replays the tape in a fixed topological order, so
gradient accumulation is deterministic for a given forward pass. It consumes
the tape as it goes: only leaves keep gradients, and a second pass through
a consumed node is a ``ContractError``.

Broadcasting is deliberately narrow: elementwise ops require identical
shapes, and the only broadcast forms are the dedicated helpers (``scale``
by a factor per leading index, ``add_rowvec`` over any leading shape) and
``matmul`` of a stack of matrices by one shared matrix; ``attention`` is
one node over [..., T, D] stacks. Keeping the kernel surface small keeps
shape bugs loud.

A gradient is kept without a copy when it first arrives, so it may alias
another node's gradient. A node owns its gradient, and adds into it in
place, only after a second contribution made it a fresh array.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Sequence

import numpy as np

from ..errors import ContractError, ShapeError

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "pairtrack_grad_enabled", default=True
)


class no_grad:
    """Context manager that disables tape recording (e.g. for evaluation)."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_ENABLED.reset(self._token)
        return False


def _as_f64(values) -> np.ndarray:
    # order="C" keeps data row-major without promoting 0-d arrays to 1-d
    return np.asarray(values, dtype=np.float64, order="C")


class Tensor:
    """A dense real array plus an optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.grad: np.ndarray | None = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward consumed the node
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    """Wrap raw values as a non-differentiable Tensor."""
    return Tensor(values, requires_grad=False)


def _accumulate(t: Tensor, delta: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # no copy: delta may alias another gradient, so t does not own it
        t.grad = np.asarray(delta, dtype=np.float64)
        t._owns_grad = False
    elif t._owns_grad:
        t.grad += delta
    else:
        t.grad = t.grad + delta
        t._owns_grad = True


def _node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf, consuming the tape.

    The loss must be a scalar with a tape. Traversal order is a fixed
    depth-first topological sort, so accumulation order is deterministic. Each
    non-leaf node drops its gradient, parents and closure once the walk passes
    it, so its buffers go free mid-walk; a later backward that reaches a
    consumed node raises ``ContractError`` before it accumulates anything.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: the loss has no tape (built from constants or under no_grad)")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ContractError("backward: the graph reaches a node an earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if id(parent) not in seen:
                stack.append((parent, False))
    _accumulate(loss, np.ones((), dtype=np.float64))
    while topo:  # popping keeps no reference to a passed node, so its buffers can go free
        node = topo.pop()
        if node._backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._parents, node._backward = None, None, None


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise ops (identical shapes)
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient flows to ``a``."""
    _require_same_shape(a, b, "maximum")
    pick_a = a.data >= b.data

    def bw(g):
        _accumulate(a, g * pick_a)
        _accumulate(b, g * (~pick_a))

    return _node(np.maximum(a.data, b.data), (a, b), bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on ties the gradient flows to ``a``."""
    _require_same_shape(a, b, "minimum")
    pick_a = a.data <= b.data

    def bw(g):
        _accumulate(a, g * pick_a)
        _accumulate(b, g * (~pick_a))

    return _node(np.minimum(a.data, b.data), (a, b), bw)


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)

    def bw(g):
        _accumulate(a, g * c)

    return _node(a.data * c, (a,), bw)


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a by s, one factor per leading index: s has a leading part of a's shape.

    A scalar s scales the whole tensor; gradient flows to both.
    """
    if s.shape != a.shape[:s.ndim]:
        raise ShapeError(f"scale: factor shape {s.shape} does not lead {a.shape}")
    factor = s.data.reshape(s.shape + (1,) * (a.ndim - s.ndim))

    def bw(g):
        _accumulate(a, g * factor)
        _accumulate(s, np.sum((g * a.data).reshape(s.shape + (-1,)), axis=-1))

    return _node(a.data * factor, (a, s), bw)


def reciprocal(a: Tensor) -> Tensor:
    out_data = 1.0 / a.data

    def bw(g):
        _accumulate(a, -g * out_data * out_data)

    return _node(out_data, (a,), bw)


def pow_const(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out_data = a.data**p

    def bw(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _node(out_data, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), bw)


def absolute(a: Tensor) -> Tensor:
    """Elementwise |x| with subgradient 0 at x = 0."""
    sign = np.sign(a.data)

    def bw(g):
        _accumulate(a, g * sign)

    return _node(np.abs(a.data), (a,), bw)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero where the clip is active."""
    inside = (a.data > lo) & (a.data < hi)

    def bw(g):
        _accumulate(a, g * inside)

    return _node(np.clip(a.data, lo, hi), (a,), bw)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from a single exp(-|x|), which cannot overflow."""
    e = np.abs(x, out=np.empty_like(x))  # one buffer, still an array when x is 0-d
    np.exp(np.negative(e, out=e), out=e)
    # e <= 1, so the numerator is 1 where x >= 0 and e elsewhere, without a branch per entry
    out = np.maximum(e, x >= 0)
    out /= np.add(e, 1.0, out=e)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = _logistic(a.data)

    def bw(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = a.data
    sig = _logistic(x)

    def bw(g):
        d = x * sig
        d *= 1.0 - sig
        d += sig
        d *= g
        _accumulate(a, d)

    return _node(x * sig, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalization
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or along one axis."""
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum: axis {axis} invalid for shape {a.shape}")

    def bw(g):
        g = g if axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _node(np.sum(a.data, axis=axis), (a,), bw)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis % a.ndim]
    return smul(tsum(a, axis), 1.0 / n)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    ax = axis % a.ndim
    out_data = a.data - np.max(a.data, axis=ax, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= np.sum(out_data, axis=ax, keepdims=True)

    def bw(g):
        inner = np.sum(g * out_data, axis=ax, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    original = a.shape

    def bw(g):
        _accumulate(a, g.reshape(original))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a [..., M, N] tensor."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects at least two axes, got shape {a.shape}")

    def bw(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _node(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ContractError("concat: empty tensor list")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat: axis {axis} invalid for ndim {ndim}")
    ax = axis % ndim
    for t in tensors[1:]:
        if t.ndim != ndim:
            raise ShapeError("concat: rank mismatch")
        for d in range(ndim):
            if d != ax and t.shape[d] != tensors[0].shape[d]:
                raise ShapeError(
                    f"concat: shapes {tensors[0].shape} and {t.shape} differ off-axis"
                )
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    parents = tuple(tensors)

    def bw(g):
        for t, start, stop in zip(parents, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[ax] = slice(start, stop)
            _accumulate(t, g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=ax), parents, bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of the last axis of a [..., N] tensor."""
    if a.ndim < 1:
        raise ShapeError("slice_cols expects at least one axis, got a scalar")
    if not 0 <= start < stop <= a.shape[-1]:
        raise ShapeError(f"slice_cols: range [{start}, {stop}) invalid for {a.shape}")

    def bw(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        buf[..., start:stop] = g
        _accumulate(a, buf)

    return _node(np.ascontiguousarray(a.data[..., start:stop]), (a,), bw)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by integer index (duplicates allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather_rows expects a matrix and a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bw(g):
        # a row's first pick is assigned and its later picks are added in pick
        # order; np.add.at alone is an order of magnitude slower on distinct rows
        first = np.unique(idx, return_index=True)[1]
        again = np.ones(idx.size, dtype=bool)
        again[first] = False
        buf = np.zeros(a.shape, dtype=np.float64)
        buf[idx[first]] = g[first]
        np.add.at(buf, idx[again], g[again])
        _accumulate(a, buf)

    return _node(a.data[idx], (a,), bw)


def gather_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row column gather: out[t, k] = a[t, idx[t, k]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError("gather_cols expects a matrix and a [rows, k] index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"gather_cols: index out of range for {a.shape[1]} columns")
    rows = np.arange(a.shape[0])[:, None]

    def bw(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        np.add.at(buf, (np.broadcast_to(rows, idx.shape), idx), g)
        _accumulate(a, buf)

    return _node(a.data[rows, idx], (a,), bw)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-D vector to every row of a [..., D] tensor."""
    if a.ndim < 2 or v.ndim != 1 or v.shape[0] != a.shape[-1]:
        raise ShapeError(f"add_rowvec: got {a.shape} and {v.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(v, np.sum(g.reshape(-1, v.shape[0]), axis=0))

    return _node(a.data + v.data, (a, v), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes of a [..., M, K] ``a``.

    ``b`` is either one [K, N] matrix shared by every leading index of ``a``
    (its gradient sums over them) or [..., K, N] with ``a``'s leading shape.
    """
    if a.ndim < 2 or b.ndim < 2 or (b.ndim > 2 and b.shape[:-2] != a.shape[:-2]):
        raise ShapeError(f"matmul expects stacked matrices, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    if b.ndim > 2:
        def bw_batched(g):
            if a.requires_grad:
                _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

        return _node(a.data @ b.data, (a, b), bw_batched)

    k, n = b.shape
    rows = a.data.reshape(-1, k)  # one matrix product for the whole stack

    def bw(g):
        g_rows = g.reshape(-1, n)
        if a.requires_grad:
            _accumulate(a, (g_rows @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accumulate(b, rows.T @ g_rows)

    return _node((rows @ b.data).reshape(a.shape[:-1] + (n,)), (a, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [..., T, D] stacks, as one node.

    Head h owns columns [h*d, (h+1)*d), d = D / heads; only the weights are kept.
    """
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape or heads < 1 or q.shape[-1] % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    c = 1.0 / np.sqrt(q.shape[-1] // heads)

    def split(t: np.ndarray) -> np.ndarray:  # [..., T, D] -> [..., H, T, d] view
        return t.reshape(t.shape[:-1] + (heads, -1)).swapaxes(-3, -2)

    def merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # a @ b, written as [..., T, D]
        out = np.empty(q.shape)
        np.matmul(a, b, out=split(out))
        return out

    weights = split(q.data * c) @ split(k.data).swapaxes(-1, -2)  # [..., H, T, T]
    weights -= np.max(weights, axis=-1, keepdims=True)  # softmax's arithmetic, in place
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=-1, keepdims=True)

    def bw(g):
        g_h = split(g)
        if v.requires_grad:
            _accumulate(v, merged(weights.swapaxes(-1, -2), g_h))
        d_scores = g_h @ split(v.data).swapaxes(-1, -2)
        d_scores -= np.sum(d_scores * weights, axis=-1, keepdims=True)
        d_scores *= weights
        if q.requires_grad:
            _accumulate(q, merged(d_scores, split(k.data)) * c)
        if k.requires_grad:
            _accumulate(k, merged(d_scores.swapaxes(-1, -2), split(q.data * c)))

    return _node(merged(weights, split(v.data)), (q, k, v), bw)


def routed_matmul(a: Tensor, weights: Sequence[Tensor], expert: np.ndarray) -> Tensor:
    """Per-row weight choice: out[i] = a[i] @ weights[expert[i]].

    Rows are grouped by weight, one matmul per group. A weight that no row
    picks does not run and is not a parent, so its gradient stays None.
    """
    expert = np.asarray(expert, dtype=np.int64)
    if not weights:
        raise ContractError("routed_matmul: empty weight list")
    shapes = {w.shape for w in weights}
    w_shape = weights[0].shape
    if (a.ndim != 2 or expert.shape != (a.shape[0],) or len(shapes) != 1
            or len(w_shape) != 2 or w_shape[0] != a.shape[1]):
        raise ShapeError(
            f"routed_matmul: input {a.shape}, weights {sorted(shapes)}, index {expert.shape}"
        )
    if expert.size and (expert.min() < 0 or expert.max() >= len(weights)):
        raise ShapeError(f"routed_matmul: weight index out of range for {len(weights)} weights")
    groups = [(w, rows) for n, w in enumerate(weights)
              if (rows := np.flatnonzero(expert == n)).size]
    out_data = np.zeros((a.shape[0], w_shape[1]), dtype=np.float64)
    for w, rows in groups:
        out_data[rows] = a.data[rows] @ w.data

    def bw(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        for w, rows in groups:
            buf[rows] = g[rows] @ w.data.T
            _accumulate(w, a.data[rows].T @ g[rows])
        _accumulate(a, buf)

    return _node(out_data, (a,) + tuple(w for w, _ in groups), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the trailing dimension of a [..., d_in] input."""
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be a matrix, got {w.shape}")
    d_in = w.shape[0]
    if x.ndim < 2 or x.shape[-1] != d_in:
        raise ShapeError(f"linear: input {x.shape} is not [..., d_in={d_in}]")
    out = matmul(x, w)
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
        out = add_rowvec(out, b)
    return out
