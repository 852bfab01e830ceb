"""Gradient verification suites.

``unit_gradient_suite`` checks every differentiable kernel against central
finite differences on randomized inputs. ``end_to_end_gradient_check``
builds a tiny full model and verifies every trainable parameter's analytic
gradient on the real tracking loss. Large parameters are checked on a
deterministic sample of coordinates; small ones exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..numerics import (
    RngStream,
    Tensor,
    absolute,
    add,
    add_rowvec,
    backward,
    clamp,
    concat,
    constant,
    exp,
    finite_diff_grad,
    gather_cols,
    gather_rows,
    grad_max_rel_error,
    log,
    matmul,
    maximum,
    minimum,
    mul,
    no_grad,
    pow_const,
    reciprocal,
    reshape,
    routed_matmul,
    scale,
    scale_rows,
    sigmoid,
    silu,
    slice_cols,
    smul,
    softmax,
    sub,
    transpose,
    tsum,
)
from .config import RunConfig
from .data import generate_dataset
from .model import Tracker
from .train import forward_track

UNIT_TOL = 1e-4
END_TO_END_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _max_error_over_cases(
    build: Callable[[Tensor], Tensor], shape, low, high,
    n_cases: int, seed0: int,
) -> float:
    worst = 0.0
    for case in range(n_cases):
        rng = RngStream(seed0 + case)
        x0 = rng.uniform(low, high, shape)
        x = Tensor(x0, requires_grad=True)
        out = build(x)
        u = RngStream(seed0 + 10_000 + case).uniform(-1, 1, out.shape)

        def f(values):
            with no_grad():
                return float(np.sum(build(Tensor(values)).data * u))

        backward(tsum(mul(out, constant(u))))
        worst = max(worst, grad_max_rel_error(x.grad, finite_diff_grad(f, x0, h=1e-5)))
    return worst


def unit_gradient_suite(n_cases: int = 20, tol: float = UNIT_TOL) -> list[CheckResult]:
    rng = RngStream(20260809)
    w = rng.uniform(-1, 1, (4, 3))
    rows = rng.uniform(0.5, 2.0, (5,))
    vec = rng.uniform(-1, 1, (4,))
    other = rng.uniform(-2, 2, (5, 4))
    idx_rows = np.array([2, 0, 4, 1])
    idx_cols = np.array([[0, 2], [1, 1], [3, 0], [2, 3], [0, 1]])
    squares = rng.uniform(-1, 1, (2, 4, 4))
    # weight 2 is never picked; x is both the routed input and weight 0
    idx_weights = np.array([1, 0, 0, 1])
    cases: list[tuple[str, Callable, tuple, float, float]] = [
        ("add", lambda x: add(x, constant(other)), (5, 4), -2, 2),
        ("sub", lambda x: sub(x, constant(other)), (5, 4), -2, 2),
        ("mul", lambda x: mul(x, constant(other)), (5, 4), -2, 2),
        ("maximum", lambda x: maximum(x, constant(other)), (5, 4), -2, 2),
        ("minimum", lambda x: minimum(x, constant(other)), (5, 4), -2, 2),
        ("smul", lambda x: smul(x, -1.7), (5, 4), -2, 2),
        ("scale", lambda x: scale(x, constant(np.asarray(0.8))), (5, 4), -2, 2),
        ("reciprocal", lambda x: reciprocal(x), (4, 4), 0.5, 2.0),
        ("pow2", lambda x: pow_const(x, 2.0), (4, 4), -2, 2),
        ("pow4", lambda x: pow_const(x, 4.0), (4, 4), -2, 2),
        ("sqrt", lambda x: pow_const(x, 0.5), (4, 4), 0.5, 4.0),
        ("log", lambda x: log(x), (4, 4), 0.2, 3.0),
        ("exp", lambda x: exp(x), (4, 4), -2, 2),
        ("absolute", lambda x: absolute(x), (4, 4), 0.2, 2.0),
        ("clamp", lambda x: clamp(x, -0.5, 0.5), (4, 4), -2, 2),
        ("sigmoid", lambda x: sigmoid(x), (5, 4), -4, 4),
        ("silu", lambda x: silu(x), (5, 4), -4, 4),
        ("softmax_rows", lambda x: softmax(x, axis=1), (5, 6), -3, 3),
        ("softmax_cols", lambda x: softmax(x, axis=0), (5, 6), -3, 3),
        ("sum_all", lambda x: tsum(x), (5, 4), -2, 2),
        ("sum_axis0", lambda x: tsum(x, axis=0), (5, 4), -2, 2),
        ("mean", lambda x: smul(tsum(x), 1.0 / 20), (5, 4), -2, 2),
        ("reshape", lambda x: reshape(x, (20,)), (5, 4), -2, 2),
        ("transpose", lambda x: transpose(x), (5, 4), -2, 2),
        ("concat", lambda x: concat([x, constant(other)], axis=1), (5, 4), -2, 2),
        ("slice_cols", lambda x: slice_cols(x, 1, 3), (5, 4), -2, 2),
        ("gather_rows", lambda x: gather_rows(x, idx_rows), (5, 4), -2, 2),
        ("routed_matmul", lambda x: routed_matmul(x, [x, *map(constant, squares)], idx_weights),
         (4, 4), -2, 2),
        ("gather_cols", lambda x: gather_cols(x, idx_cols), (5, 4), -2, 2),
        ("scale_rows", lambda x: scale_rows(x, constant(rows)), (5, 4), -2, 2),
        ("add_rowvec", lambda x: add_rowvec(x, constant(vec)), (5, 4), -2, 2),
        ("matmul_left", lambda x: matmul(x, constant(w)), (5, 4), -2, 2),
        ("matmul_right", lambda x: matmul(constant(w.T), x), (4, 6), -2, 2),
    ]
    results = []
    for i, (name, build, shape, low, high) in enumerate(cases):
        err = _max_error_over_cases(build, shape, low, high, n_cases, 1000 * i)
        results.append(CheckResult(name=name, error=err, tol=tol))
    return results


def tiny_config(**overrides) -> RunConfig:
    """Smallest full-featured model: D=16, depth 2, 16 search tokens."""
    base = dict(
        seed=7, channels=1, patch_size=4, template_size=8, search_size=16,
        model_dim=16, depth=2, heads=4, head_hidden=16,
        n_experts=2, top_k=1, reduction_g=4, shared_m=2,
        epsilon_mode="fixed", epsilon_value=0.8, level_taps=(1, 2),
        steps=1, log_interval=1, n_train=2, n_eval=4,
    )
    base.update(overrides)
    return RunConfig(**base)


def _fd_on_coords(f: Callable[[], float], values: np.ndarray, coords, h: float):
    out = np.zeros(len(coords))
    flat = values.reshape(-1)
    for j, c in enumerate(coords):
        orig = flat[c]
        flat[c] = orig + h
        fp = f()
        flat[c] = orig - h
        fm = f()
        flat[c] = orig
        out[j] = (fp - fm) / (2.0 * h)
    return out


def end_to_end_gradient_check(
    tol: float = END_TO_END_TOL, max_coords: int = 16, h: float = 1e-5
) -> list[CheckResult]:
    cfg = tiny_config()
    model = Tracker(cfg)
    sample = generate_dataset(cfg, 1, "gradcheck")[0]

    def loss_value() -> float:
        with no_grad():
            return forward_track(sample, model).bundle.total.item()

    model.store.zero_grad()
    backward(forward_track(sample, model).bundle.total)
    results = []
    for p in model.store:
        if not p.trainable:
            continue
        analytic = p.tensor.grad
        if analytic is None:
            analytic = np.zeros(p.shape)
        size = p.tensor.size
        if size <= 2 * max_coords:
            coords = list(range(size))
        else:
            picker = RngStream(13).child(p.name)
            coords = sorted(set(int(i) for i in picker.integers(0, size, (max_coords,))))
        fd = _fd_on_coords(loss_value, p.data, coords, h)
        err = grad_max_rel_error(analytic.reshape(-1)[coords], fd)
        results.append(CheckResult(name=p.name, error=err, tol=tol))
    return results


def frozen_backbone_check() -> CheckResult:
    """Backbone bytes must be identical before and after a training step."""
    from .train import train

    cfg = tiny_config(steps=3, n_train=2)
    model_before = Tracker(cfg)
    checksum_before = model_before.backbone_checksum()
    result = train(cfg, eval_each_log=False)
    same = result.model.backbone_checksum() == checksum_before
    return CheckResult(name="frozen_backbone", error=0.0 if same else 1.0, tol=0.5)
