"""Dense float64 tensors with recorded-tape reverse-mode differentiation.

Every operation runs in double precision on contiguous row-major numpy
arrays and, when gradients are enabled, records a backward closure on the
output node. ``backward`` replays the tape in a fixed topological order, so
gradient accumulation is deterministic for a given forward pass.

Broadcasting is deliberately narrow: elementwise ops require identical
shapes, and the only broadcast forms are the dedicated row/column helpers
(``add_rowvec``, ``scale_rows``) and ``linear``'s leading-dimension
flattening. Keeping the kernel surface small keeps shape bugs loud.
"""

from __future__ import annotations

import contextvars
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
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
        # copy: delta may alias an upstream gradient buffer
        t.grad = np.array(delta, dtype=np.float64)
    else:
        t.grad += delta


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
    """Accumulate d(loss)/d(node) into ``grad`` of every reachable node.

    The loss must be a scalar. Traversal order is a fixed depth-first
    topological sort of the recorded tape, so repeated runs on the same
    graph accumulate in the same order.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
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
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if id(parent) not in seen:
                stack.append((parent, False))
    _accumulate(loss, np.ones((), dtype=np.float64))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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


def neg(a: Tensor) -> Tensor:
    return smul(a, -1.0)


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar Tensor (gradient flows to both)."""
    if s.shape != ():
        raise ShapeError(f"scale: scalar factor must have shape (), got {s.shape}")

    def bw(g):
        _accumulate(a, g * s.data)
        _accumulate(s, np.sum(g * a.data))

    return _node(a.data * s.data, (a, s), bw)


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


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), bw)


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


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = a.data
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        _accumulate(a, g * (sig + x * sig * (1.0 - sig)))

    return _node(x * sig, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalization
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or along one axis."""
    if axis is None:
        def bw(g):
            _accumulate(a, np.broadcast_to(g, a.shape).copy())

        return _node(np.sum(a.data), (a,), bw)

    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum: axis {axis} invalid for shape {a.shape}")
    ax = axis % a.ndim

    def bw_axis(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, ax), a.shape).copy())

    return _node(np.sum(a.data, axis=ax), (a,), bw_axis)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis % a.ndim]
    return smul(tsum(a, axis), 1.0 / n)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    ax = axis % a.ndim
    shifted = a.data - np.max(a.data, axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=ax, keepdims=True)

    def bw(g):
        inner = np.sum(g * out_data, axis=ax, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    original = a.shape

    def bw(g):
        _accumulate(a, g.reshape(original))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _node(np.ascontiguousarray(a.data.T), (a,), bw)


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
    if a.ndim != 2:
        raise ShapeError(f"slice_cols expects a matrix, got shape {a.shape}")
    if not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"slice_cols: range [{start}, {stop}) invalid for {a.shape}")

    def bw(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        buf[:, start:stop] = g
        _accumulate(a, buf)

    return _node(np.ascontiguousarray(a.data[:, start:stop]), (a,), bw)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by integer index (duplicates allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather_rows expects a matrix and a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bw(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        np.add.at(buf, idx, g)
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


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of ``a`` by scalar s[i]."""
    if a.ndim != 2 or s.ndim != 1 or s.shape[0] != a.shape[0]:
        raise ShapeError(f"scale_rows: got {a.shape} and {s.shape}")

    def bw(g):
        _accumulate(a, g * s.data[:, None])
        _accumulate(s, np.sum(g * a.data, axis=1))

    return _node(a.data * s.data[:, None], (a, s), bw)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-D vector to every row of a [T, D] matrix."""
    if a.ndim != 2 or v.ndim != 1 or v.shape[0] != a.shape[1]:
        raise ShapeError(f"add_rowvec: got {a.shape} and {v.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(v, np.sum(g, axis=0))

    return _node(a.data + v.data[None, :], (a, v), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


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


def linear(x: Tensor, w, b=None) -> Tensor:
    """Affine map over the trailing dimension, broadcast over leading dims.

    ``w`` and ``b`` may be Tensors or Parameters (anything with ``.tensor``).
    """
    wt = w.tensor if hasattr(w, "tensor") else w
    bt = b.tensor if (b is not None and hasattr(b, "tensor")) else b
    if wt.ndim != 2:
        raise ShapeError(f"linear: weight must be a matrix, got {wt.shape}")
    d_in = wt.shape[0]
    if x.ndim == 0 or x.shape[-1] != d_in:
        raise ShapeError(f"linear: input {x.shape} does not end in d_in={d_in}")
    lead = x.shape[:-1]
    n_lead = int(np.prod(lead)) if lead else 1
    x2 = x if x.ndim == 2 else reshape(x, (n_lead, d_in))
    out = matmul(x2, wt)
    if bt is not None:
        if bt.shape != (wt.shape[1],):
            raise ShapeError(f"linear: bias shape {bt.shape} != ({wt.shape[1]},)")
        out = add_rowvec(out, bt)
    if x.ndim != 2:
        out = reshape(out, lead + (wt.shape[1],))
    return out
