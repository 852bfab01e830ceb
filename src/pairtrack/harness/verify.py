"""Gradient verification suites.

``unit_gradient_suite`` checks every differentiable kernel against central
finite differences on randomized inputs. ``end_to_end_gradient_check``
builds a tiny full model and verifies every trainable parameter's analytic
gradient on the real tracking loss with ``finite_diff_grad``. Large matrices,
each expert of a stack among them, are checked on a deterministic sample of
coordinates; small ones exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..numerics import (
    Parameter,
    RngStream,
    Tensor,
    absolute,
    add,
    add_rowvec,
    attention,
    backward,
    clamp,
    concat,
    constant,
    finite_diff_grad,
    gather_cols,
    gather_rows,
    grad_max_rel_error,
    log,
    matmul,
    maximum,
    mean,
    minimum,
    mul,
    no_grad,
    pow_const,
    reciprocal,
    reshape,
    routed_matmul,
    scale,
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
UNIT_CASES = 20  # randomized inputs per kernel
END_TO_END_TOL = 1e-3
END_TO_END_COORDS = 16  # coordinates sampled from a large parameter
FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _max_error_over_cases(
    build: Callable[[Tensor], Tensor], shape, low, high, seed0: int,
) -> float:
    worst = 0.0
    for case in range(UNIT_CASES):
        rng = RngStream(seed0 + case)
        x0 = rng.uniform(low, high, shape)
        x = Tensor(x0, requires_grad=True)
        out = build(x)
        u = RngStream(seed0 + 10_000 + case).uniform(-1, 1, out.shape)

        def f(values):
            with no_grad():
                return float(np.sum(build(Tensor(values)).data * u))

        backward(tsum(mul(out, constant(u))))
        worst = max(worst, grad_max_rel_error(x.grad, finite_diff_grad(f, x0, h=FD_STEP)))
    return worst


def unit_gradient_cases() -> list[tuple[str, Callable[[Tensor], Tensor], tuple, float, float]]:
    """(name, build, input shape, low, high) for every kernel form the unit suite checks."""
    rng = RngStream(20260809)
    w = rng.uniform(-1, 1, (4, 3))
    rows = rng.uniform(0.5, 2.0, (5,))
    vec = rng.uniform(-1, 1, (4,))
    other = rng.uniform(-2, 2, (5, 4))
    idx_rows = np.array([2, 0, 4, 1])
    idx_repeated = np.array([2, 0, 2, 1])  # a repeated row takes the np.add.at path
    idx_cols = np.array([[0, 2], [1, 1], [3, 0], [2, 3], [0, 1]])
    squares = rng.uniform(-1, 1, (2, 4, 4))
    # weight 2 is never picked; x is both the routed input and weight 0
    idx_weights = np.array([1, 0, 0, 1])
    stack = rng.uniform(-1, 1, (2, 5, 4))
    routed_input = rng.uniform(-1, 1, (4, 4))
    return [
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
        ("routed_matmul", lambda x: routed_matmul(
            x, concat([reshape(x, (1, 4, 4)), constant(squares)], axis=0), idx_weights),
         (4, 4), -2, 2),
        ("gather_cols", lambda x: gather_cols(x, idx_cols), (5, 4), -2, 2),
        ("scale_per_row", lambda x: scale(x, constant(rows)), (5, 4), -2, 2),
        ("add_rowvec", lambda x: add_rowvec(x, constant(vec)), (5, 4), -2, 2),
        ("matmul_left", lambda x: matmul(x, constant(w)), (5, 4), -2, 2),
        ("matmul_right", lambda x: matmul(constant(w.T), x), (4, 6), -2, 2),
        ("matmul_stack_left", lambda x: matmul(x, constant(w)), (2, 5, 4), -2, 2),
        ("matmul_stack_shared", lambda x: matmul(constant(stack), x), (4, 3), -2, 2),
        ("matmul_stack_both", lambda x: matmul(x, x), (2, 3, 4, 4), -2, 2),
        ("transpose_axes", lambda x: transpose(x), (2, 3, 4), -2, 2),
        ("add_rowvec_stack", lambda x: add_rowvec(x, constant(vec)), (2, 5, 4), -2, 2),
        ("scale_leading", lambda x: scale(x, constant(rows[:2])), (2, 5, 4), -2, 2),
        ("scale_leading_factor", lambda x: scale(constant(stack), x), (2,), -2, 2),
        ("slice_cols_stack", lambda x: slice_cols(x, 1, 3), (2, 5, 4), -2, 2),
        ("attention", lambda x: attention(x, x, x, 2), (2, 5, 4), -2, 2),
        ("attention_keys", lambda x: attention(constant(stack), x, constant(stack), 2),
         (2, 5, 4), -2, 2),
        ("gather_rows_repeated", lambda x: gather_rows(x, idx_repeated), (4, 3), -2, 2),
        ("scale_scalar_factor", lambda x: scale(constant(other), x), (), -2, 2),
        ("routed_matmul_weights",
         lambda x: routed_matmul(constant(routed_input), x, idx_weights), (3, 4, 2), -2, 2),
    ]


def unit_gradient_suite() -> list[CheckResult]:
    results = []
    for i, (name, build, shape, low, high) in enumerate(unit_gradient_cases()):
        err = _max_error_over_cases(build, shape, low, high, 1000 * i)
        results.append(CheckResult(name=name, error=err, tol=UNIT_TOL))
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


def sampled_coords(p: Parameter) -> list[int]:
    """Flat coordinates of ``p`` the end-to-end check perturbs, matrix by matrix.

    A matrix of at most 2 * END_TO_END_COORDS entries is checked whole, a larger
    one on END_TO_END_COORDS draws keyed by its name: ``name[n]`` in an [N, K, M] stack.
    """
    stack = p.shape[0] if p.ndim == 3 else 1
    size, coords = p.size // stack, []
    for n in range(stack):
        label = f"{p.name}[{n}]" if p.ndim == 3 else p.name
        picks = range(size) if size <= 2 * END_TO_END_COORDS else sorted(
            {int(i) for i in RngStream(13).child(label).integers(0, size, (END_TO_END_COORDS,))})
        coords.extend(n * size + i for i in picks)
    return coords


def end_to_end_gradient_check() -> list[CheckResult]:
    cfg = tiny_config()
    model = Tracker(cfg)
    sample = generate_dataset(cfg, 1, "gradcheck")[0]
    model.store.zero_grad()
    backward(mean(forward_track(sample, model).bundle.total))
    results = []
    for p in model.store:
        if not p.requires_grad:
            continue
        analytic = p.grad
        if analytic is None:
            analytic = np.zeros(p.shape)
        coords = sampled_coords(p)
        start = p.data.flat[coords]

        def loss_at(values):
            p.data.flat[coords] = values
            with no_grad():
                return forward_track(sample, model).bundle.total.item()

        fd = finite_diff_grad(loss_at, start, h=FD_STEP)
        p.data.flat[coords] = start
        err = grad_max_rel_error(analytic.reshape(-1)[coords], fd)
        results.append(CheckResult(name=p.name, error=err, tol=END_TO_END_TOL))
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
