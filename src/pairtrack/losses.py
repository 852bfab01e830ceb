"""Tracking losses: focal center-map loss, GIoU and L1 box terms, total.

Boxes use normalized center-size coordinates (cx, cy, w, h) in [0, 1]
relative to the search region. The box losses run on tape tensors so the
regression gradient reaches the model; ``Box`` values and arrays are
converted to constants on entry.

Every loss takes one sample or a stack of samples and reduces to the
leading shape: a [4] box or an [H, W] map gives a scalar, a [B, 4] stack
of boxes or a [B, H, W] stack of maps gives B values, each equal to the
single-sample loss of its row. The tape a loss records does not depend on B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError, ShapeError
from .numerics import (
    Tensor,
    add,
    constant,
    log,
    mean,
    mul,
    pow_const,
    reciprocal,
    reshape,
    scale,
    select,
    slice_cols,
    sub,
    tsum,
)

PROB_EPS = 1e-6


@dataclass
class Box:
    """Axis-aligned box as normalized center/size; sizes must be nonnegative."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ContractError(f"box sizes must be nonnegative: w={self.w}, h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )

    def area(self) -> float:
        return self.w * self.h

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


LOSS_NAMES = ("cls", "iou", "l1", "eb", "total")


@dataclass
class LossBundle:
    """Component losses plus their weighted total, tensors of one leading shape."""

    cls: Tensor
    iou: Tensor
    l1: Tensor
    eb: Tensor
    total: Tensor

    def values(self) -> dict[str, float]:
        """Floats of a one-sample bundle."""
        return {name: getattr(self, name).item() for name in LOSS_NAMES}


def box_iou(a: Box, b: Box) -> float:
    """Plain-float IoU for metrics; zero-area pairs score 0."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a.area() + b.area() - inter
    return inter / union if union > 0 else 0.0


def _as_box_tensor(value) -> Tensor:
    """Boxes as a [..., 4] tensor; a Box or an array becomes a constant."""
    if isinstance(value, Box):
        return constant(value.as_array())
    t = value if isinstance(value, Tensor) else constant(value)
    if t.ndim < 1 or t.shape[-1] != 4:
        raise ShapeError(f"boxes must be [..., 4], got shape {t.shape}")
    return t


def _ratio(num: Tensor, den: Tensor) -> Tensor:
    """num / den, and 0 with no gradient where den is not positive."""
    empty = ~(den.data > 0)
    if not empty.any():
        return mul(num, reciprocal(den))
    keep = constant(~empty)
    safe = add(mul(den, keep), constant(empty))  # 1 in empty rows keeps 1/den finite
    return mul(mul(num, reciprocal(safe)), keep)


def _area(sides: Tensor) -> Tensor:
    """Width times height of [..., 2] sides, as [..., 1]."""
    return mul(slice_cols(sides, 0, 1), slice_cols(sides, 1, 2))


def giou_loss(pred, gt) -> Tensor:
    """1 - GIoU per box, in [0, 2], over the leading shape of [..., 4] boxes.

    Zero-area cases stay total: IoU counts as 0 when the union is empty,
    and the enclosure penalty as 0 when the enclosing box is empty. The
    ground truth is read as data; no gradient flows to it.
    """
    a = _as_box_tensor(pred)
    gt_t = _as_box_tensor(gt)
    if gt_t.shape != a.shape:
        raise ShapeError(f"giou: pred {a.shape} vs gt {gt_t.shape}")
    # corners as [..., 2] (x, y) pairs; the ground truth needs no tape
    center_a, size_a = slice_cols(a, 0, 2), slice_cols(a, 2, 4)
    half_a = scale(size_a, constant(0.5))
    lo_a, hi_a = sub(center_a, half_a), add(center_a, half_a)
    area_a = _area(size_a)
    b = gt_t.data
    half_b = b[..., 2:] * 0.5
    lo_b, hi_b = constant(b[..., :2] - half_b), constant(b[..., :2] + half_b)
    area_b = constant(b[..., 2:3] * b[..., 3:])
    # a max or min picks the prediction on a tie and the side that is NaN, so NaN reaches the loss
    hi_ok, lo_ok = ~np.isnan(hi_b.data), ~np.isnan(lo_b.data)
    overlap = sub(select(~(hi_a.data > hi_b.data) & hi_ok, hi_a, hi_b),
                  select(~(lo_a.data < lo_b.data) & lo_ok, lo_a, lo_b))
    inter = _area(select(~(overlap.data <= 0), overlap, constant(np.zeros(lo_b.shape))))
    union = sub(add(area_a, area_b), inter)
    c_area = _area(sub(select(~(hi_a.data < hi_b.data) & hi_ok, hi_a, hi_b),
                       select(~(lo_a.data > lo_b.data) & lo_ok, lo_a, lo_b)))
    giou = sub(_ratio(inter, union), _ratio(sub(c_area, union), c_area))
    one = constant(np.ones(giou.shape))
    return reshape(sub(one, giou), a.shape[:-1])


def l1_box_loss(pred, gt) -> Tensor:
    """Mean absolute difference over the four box coordinates, per box."""
    diff = sub(_as_box_tensor(pred), _as_box_tensor(gt))
    return mean(mul(diff, constant(np.sign(diff.data))), axis=-1)  # |x|, subgradient 0 at 0


def weighted_focal(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Center-map focal loss normalized by the number of positive cells, per map.

    ``pred`` and ``gt`` are [..., H, W]. Cells with gt exactly 1 are
    positives; elsewhere the penalty is damped by (1 - gt)^4. Predictions
    are clamped to [1e-6, 1 - 1e-6] before logs.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape != pred.shape or gt.ndim < 2:
        raise ShapeError(f"focal: pred {pred.shape} vs gt {gt.shape}")
    if gt.min() < 0 or gt.max() > 1:
        raise ContractError("focal: gt map must lie in [0, 1]")
    cells = gt.shape[:-2] + (gt.shape[-2] * gt.shape[-1],)
    gt = gt.reshape(cells)
    pos_mask = (gt == 1.0).astype(np.float64)
    n_pos = pos_mask.sum(axis=-1)
    if np.any(n_pos == 0):
        raise ContractError("focal: gt map has no positive location")
    p = reshape(pred, cells)
    interior = (p.data > PROB_EPS) & (p.data < 1.0 - PROB_EPS)  # no gradient on a bound either
    p = select(interior, p, constant(np.clip(p.data, PROB_EPS, 1.0 - PROB_EPS)))
    q = sub(constant(np.ones(cells)), p)
    pos_term = mul(mul(log(p), pow_const(q, 2.0)), constant(pos_mask))
    neg_weight = ((1.0 - gt) ** 4) * (1.0 - pos_mask)
    neg_term = mul(mul(log(q), pow_const(p, 2.0)), constant(neg_weight))
    return mul(add(tsum(pos_term, axis=-1), tsum(neg_term, axis=-1)), constant(-1.0 / n_pos))


def _check_finite(name: str, value: Tensor) -> None:
    if not np.all(np.isfinite(value.data)):
        raise NumericError(f"loss component '{name}' is not finite")


def total_loss(cls: Tensor, iou: Tensor, l1: Tensor, eb: Tensor, *,
               lambda_iou: float, lambda_l1: float, alpha: float) -> LossBundle:
    """Weighted sum: cls + lambda_iou * iou + lambda_l1 * l1 + alpha * eb, elementwise."""
    for name, value in (("cls", cls), ("iou", iou), ("l1", l1), ("eb", eb)):
        _check_finite(name, value)
    total = cls
    for value, weight in ((iou, lambda_iou), (l1, lambda_l1), (eb, alpha)):
        total = add(total, scale(value, constant(weight)))
    _check_finite("total", total)
    return LossBundle(cls=cls, iou=iou, l1=l1, eb=eb, total=total)
