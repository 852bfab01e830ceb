"""Dense float64 tensors with recorded-tape reverse-mode differentiation.

Every operation runs in double precision on contiguous row-major numpy
arrays and, when gradients are enabled, gives its output a tape entry: a
gradient slot, its parents' gradient slots and a backward closure.
``backward`` replays the tape in a fixed topological order, so gradient
accumulation is deterministic for a given forward pass. It consumes the
tape as it goes: only leaves keep gradients, and a second pass through a
consumed entry is a ``ContractError``.

A parent's gradient slot is its entry, the parent itself when it is a leaf
that requires grad, or None; so an entry never links to an intermediate
Tensor. ``_node`` looks the slots up once, and ``backward`` hands them to
the closure with the gradient. A kernel decides at forward time only which
arrays its closure keeps: those its formula reads, and only when the input
whose gradient reads them needs one. So an intermediate array goes free as
soon as the model code drops its Tensor, unless a backward formula holds it.

Broadcasting is deliberately narrow: elementwise ops require identical
shapes, and the only broadcast forms are the dedicated helpers (``scale``
by a factor per leading index, ``add_rowvec`` over any leading shape) and
``matmul`` of a stack of matrices by one shared matrix; ``routed_matmul``
picks each row's matrix from an [N, K, M] stack, and ``attention`` is one
node over [..., T, D] stacks. Keeping the kernel surface small keeps shape
bugs loud.

A gradient is kept without a copy when it first arrives, so it may alias
another slot's gradient. A slot owns its gradient, and adds into it in
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


class _Entry:
    """A recorded output's place on the tape; it holds no array of the forward pass.

    ``_parents`` holds each parent's gradient slot in parent order: an entry, a
    leaf that requires grad, or None. ``backward`` calls the closure with the
    gradient followed by these slots.
    """

    __slots__ = ("grad", "_owns_grad", "_parents", "_backward")

    def __init__(self, parents: tuple[_Entry | Tensor | None, ...],
                 backward: Callable[..., None]):
        self.grad: np.ndarray | None = None
        self._owns_grad = False
        self._parents: tuple[_Entry | Tensor | None, ...] | None = parents  # None once consumed
        self._backward: Callable[..., None] | None = backward


class Tensor:
    """A dense real array; a leaf keeps its gradient, a recorded output its tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_owns_grad", "_entry")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.grad: np.ndarray | None = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._entry: _Entry | None = None

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


def _accumulate(slot: _Entry | Tensor | None, delta: np.ndarray) -> None:
    if slot is None:
        return
    if slot.grad is None:
        # no copy: delta may alias another gradient, so the slot does not own it
        slot.grad = np.asarray(delta, dtype=np.float64)
        slot._owns_grad = False
    elif slot._owns_grad:
        slot.grad += delta
    else:
        slot.grad = slot.grad + delta
        slot._owns_grad = True


def _node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward: Callable[..., None],
) -> Tensor:
    """``data`` as a Tensor, recorded with ``backward(grad, *slots)`` if a parent needs a gradient.

    The entry stores each parent's gradient slot, so no kernel looks one up.
    """
    out = Tensor(data)
    if _GRAD_ENABLED.get():
        # a parent's gradient slot: its entry, itself as a leaf that trains, or None
        slots = tuple([(p._entry or p) if p.requires_grad else None for p in parents])
        if slots.count(None) != len(slots):
            out.requires_grad = True
            out._entry = _Entry(slots, backward)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf, consuming the tape.

    The loss must be a scalar with a tape. Traversal order is a fixed
    depth-first topological sort of the entries (leaves and constants are its
    sinks), so accumulation order is deterministic. Each closure gets its
    entry's gradient and parent slots. The entry drops its gradient, slots and
    closure once the walk passes it, so the gradient and the arrays its
    closure held go free mid-walk; a later backward that reaches a consumed
    entry raises ``ContractError`` before it accumulates anything.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: the loss has no tape (built from constants or under no_grad)")
    root = loss._entry
    if root is None:  # a leaf loss is its own gradient slot
        _accumulate(loss, np.ones((), dtype=np.float64))
        return
    topo: list[_Entry] = []
    seen: set[int] = set()
    stack: list[tuple[_Entry, bool]] = [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            topo.append(entry)
            continue
        if id(entry) in seen:
            continue
        if entry._parents is None:
            raise ContractError("backward: the graph reaches a node an earlier backward consumed")
        seen.add(id(entry))
        stack.append((entry, True))
        for parent in reversed(entry._parents):
            if type(parent) is _Entry and id(parent) not in seen:
                stack.append((parent, False))
    _accumulate(root, np.ones((), dtype=np.float64))
    while topo:  # popping keeps no reference to a passed entry, so its buffers can go free
        entry = topo.pop()
        if entry.grad is not None:
            entry._backward(entry.grad, *entry._parents)
        entry.grad, entry._parents, entry._backward = None, None, None


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise ops (identical shapes)
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def bw(g, ea, eb):
        _accumulate(ea, g)
        _accumulate(eb, g)

    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def bw(g, ea, eb):
        _accumulate(ea, g)
        _accumulate(eb, -g)

    return _node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bw(g, ea, eb):
        if ea is not None:
            _accumulate(ea, g * b_data)
        if eb is not None:
            _accumulate(eb, g * a_data)

    return _node(a.data * b.data, (a, b), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient flows to ``a``."""
    _require_same_shape(a, b, "maximum")
    pick_a = a.data >= b.data

    def bw(g, ea, eb):
        _accumulate(ea, g * pick_a)
        _accumulate(eb, g * (~pick_a))

    return _node(np.maximum(a.data, b.data), (a, b), bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on ties the gradient flows to ``a``."""
    _require_same_shape(a, b, "minimum")
    pick_a = a.data <= b.data

    def bw(g, ea, eb):
        _accumulate(ea, g * pick_a)
        _accumulate(eb, g * (~pick_a))

    return _node(np.minimum(a.data, b.data), (a, b), bw)


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)

    def bw(g, ea):
        _accumulate(ea, g * c)

    return _node(a.data * c, (a,), bw)


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a by s, one factor per leading index: s has a leading part of a's shape.

    A scalar s scales the whole tensor; gradient flows to both.
    """
    if s.shape != a.shape[:s.ndim]:
        raise ShapeError(f"scale: factor shape {s.shape} does not lead {a.shape}")
    s_shape = s.shape
    factor = s.data.reshape(s_shape + (1,) * (a.ndim - s.ndim))
    kept_factor = factor if a.requires_grad else None
    a_data = a.data if s.requires_grad else None

    def bw(g, ea, es):
        if ea is not None:
            _accumulate(ea, g * kept_factor)
        if es is not None:
            _accumulate(es, np.sum((g * a_data).reshape(s_shape + (-1,)), axis=-1))

    return _node(a.data * factor, (a, s), bw)


def reciprocal(a: Tensor) -> Tensor:
    out_data = 1.0 / a.data

    def bw(g, ea):
        _accumulate(ea, -g * out_data * out_data)

    return _node(out_data, (a,), bw)


def pow_const(a: Tensor, p: float) -> Tensor:
    p = float(p)
    x = a.data

    def bw(g, ea):
        _accumulate(ea, g * p * x ** (p - 1.0))

    return _node(x**p, (a,), bw)


def log(a: Tensor) -> Tensor:
    x = a.data

    def bw(g, ea):
        _accumulate(ea, g / x)

    return _node(np.log(x), (a,), bw)


def absolute(a: Tensor) -> Tensor:
    """Elementwise |x| with subgradient 0 at x = 0."""
    sign = np.sign(a.data)

    def bw(g, ea):
        _accumulate(ea, g * sign)

    return _node(np.abs(a.data), (a,), bw)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero where the clip is active."""
    inside = (a.data > lo) & (a.data < hi)

    def bw(g, ea):
        _accumulate(ea, g * inside)

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

    def bw(g, ea):
        _accumulate(ea, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = a.data
    sig = _logistic(x)

    def bw(g, ea):
        d = x * sig
        d *= 1.0 - sig
        d += sig
        d *= g
        _accumulate(ea, d)

    return _node(x * sig, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalization
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or along one axis."""
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum: axis {axis} invalid for shape {a.shape}")
    shape = a.shape

    def bw(g, ea):
        g = g if axis is None else np.expand_dims(g, axis)
        _accumulate(ea, np.broadcast_to(g, shape).copy())

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

    def bw(g, ea):
        inner = np.sum(g * out_data, axis=ax, keepdims=True)
        _accumulate(ea, out_data * (g - inner))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    original = a.shape

    def bw(g, ea):
        _accumulate(ea, g.reshape(original))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a [..., M, N] tensor."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects at least two axes, got shape {a.shape}")

    def bw(g, ea):
        _accumulate(ea, np.swapaxes(g, -1, -2))

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

    def bw(g, *slots):
        for slot, start, stop in zip(slots, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[ax] = slice(start, stop)
            _accumulate(slot, g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=ax), tuple(tensors), bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of the last axis of a [..., N] tensor."""
    if a.ndim < 1:
        raise ShapeError("slice_cols expects at least one axis, got a scalar")
    if not 0 <= start < stop <= a.shape[-1]:
        raise ShapeError(f"slice_cols: range [{start}, {stop}) invalid for {a.shape}")
    shape = a.shape

    def bw(g, ea):
        buf = np.zeros(shape, dtype=np.float64)
        buf[..., start:stop] = g
        _accumulate(ea, buf)

    return _node(np.ascontiguousarray(a.data[..., start:stop]), (a,), bw)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by integer index (duplicates allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather_rows expects a matrix and a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape

    def bw(g, ea):
        # a row's first pick is assigned and its later picks are added in pick
        # order; np.add.at alone is an order of magnitude slower on distinct rows
        first = np.unique(idx, return_index=True)[1]
        again = np.ones(idx.size, dtype=bool)
        again[first] = False
        buf = np.zeros(shape, dtype=np.float64)
        buf[idx[first]] = g[first]
        np.add.at(buf, idx[again], g[again])
        _accumulate(ea, buf)

    return _node(a.data[idx], (a,), bw)


def gather_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row column gather: out[t, k] = a[t, idx[t, k]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError("gather_cols expects a matrix and a [rows, k] index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"gather_cols: index out of range for {a.shape[1]} columns")
    shape = a.shape
    rows = np.arange(shape[0])[:, None]

    def bw(g, ea):
        buf = np.zeros(shape, dtype=np.float64)
        np.add.at(buf, (np.broadcast_to(rows, idx.shape), idx), g)
        _accumulate(ea, buf)

    return _node(a.data[rows, idx], (a,), bw)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-D vector to every row of a [..., D] tensor."""
    if a.ndim < 2 or v.ndim != 1 or v.shape[0] != a.shape[-1]:
        raise ShapeError(f"add_rowvec: got {a.shape} and {v.shape}")

    def bw(g, ea, ev):
        _accumulate(ea, g)
        _accumulate(ev, np.sum(g.reshape(-1, g.shape[-1]), axis=0))

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
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    if b.ndim > 2:
        def bw_batched(g, ea, eb):
            if ea is not None:
                _accumulate(ea, g @ np.swapaxes(b_data, -1, -2))
            if eb is not None:
                _accumulate(eb, np.swapaxes(a_data, -1, -2) @ g)

        return _node(a.data @ b.data, (a, b), bw_batched)

    k, n = b.shape

    def bw(g, ea, eb):  # g is [..., M, N], so a is [..., M, K]
        g_rows = g.reshape(-1, g.shape[-1])
        if ea is not None:
            _accumulate(ea, (g_rows @ b_data.T).reshape(g.shape[:-1] + b_data.shape[:1]))
        if eb is not None:
            _accumulate(eb, a_data.reshape(-1, a_data.shape[-1]).T @ g_rows)

    # one matrix product for the whole stack
    return _node((a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,)), (a, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [..., T, D] stacks, as one node.

    Head h owns columns [h*d, (h+1)*d), d = D / heads. The tape keeps the
    weights, and the inputs only where a gradient reads them.
    """
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape or heads < 1 or q.shape[-1] % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    c = 1.0 / np.sqrt(q.shape[-1] // heads)
    shape = q.shape
    q_data = q.data if k.requires_grad else None
    k_data = k.data if q.requires_grad else None
    v_data = v.data if q.requires_grad or k.requires_grad else None

    def split(t: np.ndarray) -> np.ndarray:  # [..., T, D] -> [..., H, T, d] view
        return t.reshape(t.shape[:-1] + (heads, -1)).swapaxes(-3, -2)

    def merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # a @ b, written as [..., T, D]
        out = np.empty(shape)
        np.matmul(a, b, out=split(out))
        return out

    weights = split(q.data * c) @ split(k.data).swapaxes(-1, -2)  # [..., H, T, T]
    weights -= np.max(weights, axis=-1, keepdims=True)  # softmax's arithmetic, in place
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=-1, keepdims=True)

    def bw(g, eq, ek, ev):
        g_h = split(g)
        if ev is not None:
            _accumulate(ev, merged(weights.swapaxes(-1, -2), g_h))
        if v_data is None:
            return
        d_scores = g_h @ split(v_data).swapaxes(-1, -2)
        d_scores -= np.sum(d_scores * weights, axis=-1, keepdims=True)
        d_scores *= weights
        if eq is not None:
            _accumulate(eq, merged(d_scores, split(k_data)) * c)
        if ek is not None:
            _accumulate(ek, merged(d_scores.swapaxes(-1, -2), split(q_data * c)))

    return _node(merged(weights, split(v.data)), (q, k, v), bw)


def routed_matmul(a: Tensor, w: Tensor, expert: np.ndarray) -> Tensor:
    """Per-row weight choice from an [N, K, M] stack: out[i] = a[i] @ w[expert[i]].

    Rows are grouped by weight, one matmul per picked weight. A weight that no
    row picks does not run, and its slice of the stack's gradient is zero.
    """
    expert = np.asarray(expert, dtype=np.int64)
    if a.ndim != 2 or w.ndim != 3 or expert.shape != (a.shape[0],) or w.shape[1] != a.shape[1]:
        raise ShapeError(f"routed_matmul: input {a.shape}, weights {w.shape}, index {expert.shape}")
    if expert.size and (expert.min() < 0 or expert.max() >= w.shape[0]):
        raise ShapeError(f"routed_matmul: weight index out of range for {w.shape[0]} weights")
    groups = [(n, rows) for n in range(w.shape[0]) if (rows := np.flatnonzero(expert == n)).size]
    out_data = np.zeros((a.shape[0], w.shape[2]), dtype=np.float64)
    for n, rows in groups:
        out_data[rows] = a.data[rows] @ w.data[n]
    a_shape, w_shape = a.shape, w.shape
    a_data = a.data if w.requires_grad else None
    w_data = w.data if a.requires_grad else None

    def bw(g, ea, ew):
        buf_a = None if ea is None else np.zeros(a_shape, dtype=np.float64)
        buf_w = None if ew is None else np.zeros(w_shape, dtype=np.float64)
        for n, rows in groups:
            if buf_a is not None:
                buf_a[rows] = g[rows] @ w_data[n].T
            if buf_w is not None:
                buf_w[n] = a_data[rows].T @ g[rows]
        _accumulate(ea, buf_a)
        _accumulate(ew, buf_w)

    return _node(out_data, (a, w), bw)


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
