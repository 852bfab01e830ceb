"""Gradient verification suites.

``input_grad_error`` and ``param_grad_errors`` are the only code that compares a
tape gradient with ``finite_diff_grad``: the first for a kernel's input, the second
for parameters under a scalar loss. ``unit_gradient_suite`` checks every
differentiable kernel through the first on randomized inputs.
``end_to_end_gradient_check`` builds a tiny full model and checks every trainable
parameter's gradient on the real tracking loss through the second. Large matrices,
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
    add,
    add_rowvec,
    attention,
    backward,
    concat,
    constant,
    finite_diff_grad,
    gather_rows,
    grad_max_rel_error,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    pow_const,
    reciprocal,
    reshape,
    routed_matmul,
    scale,
    select,
    sigmoid,
    silu,
    slice_cols,
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


def input_grad_error(build: Callable[[Tensor], Tensor], x0: np.ndarray, u: np.ndarray | float,
                     h: float) -> float:
    """Max relative error of the tape gradient of sum(build(x) * u) at x0 against central FD."""
    x = Tensor(x0, requires_grad=True)
    backward(tsum(mul(build(x), constant(u))))

    def f(values):
        with no_grad():
            return float(np.sum(build(Tensor(values)).data * u))

    return grad_max_rel_error(x.grad, finite_diff_grad(f, x0, h=h))


def param_grad_errors(params: list[Parameter], loss: Callable[[], float],
                      coords: Callable[[Parameter], list[int]], h: float) -> list[float]:
    """Per parameter, the max relative error of its tape grad (``None`` counts as zeros)
    against central FD of ``loss()`` over the flat coordinates ``coords(p)``."""
    errors = []
    for p in params:
        picks = coords(p)
        start = p.data.flat[picks]

        def loss_at(values):
            p.data.flat[picks] = values
            with no_grad():
                return loss()

        try:
            fd = finite_diff_grad(loss_at, start, h=h)
        finally:
            p.data.flat[picks] = start
        analytic = np.zeros(p.shape) if p.grad is None else p.grad
        errors.append(grad_max_rel_error(analytic.reshape(-1)[picks], fd))
    return errors


def unit_gradient_cases() -> list[tuple[str, Callable[[Tensor], Tensor], tuple, float, float]]:
    """(name, build, input shape, low, high) for every kernel form the unit suite checks."""
    rng = RngStream(20260809)
    w = rng.uniform(-1, 1, (4, 3))
    rows = rng.uniform(0.5, 2.0, (5,))
    vec = rng.uniform(-1, 1, (4,))
    other = rng.uniform(-2, 2, (5, 4))
    idx_rows = np.array([2, 0, 4, 1])
    idx_repeated = np.array([2, 0, 2, 1])  # a repeated row takes the np.add.at path
    squares = rng.uniform(-1, 1, (2, 4, 4))
    # weight 2 is never picked; x is both the routed input and weight 0
    idx_weights = np.array([0, 0, 1, 1])  # rows sorted by weight
    stack = rng.uniform(-1, 1, (2, 5, 4))
    routed_input = rng.uniform(-1, 1, (4, 4))
    return [
        ("add", lambda x: add(x, constant(other)), (5, 4), -2, 2),
        ("sub", lambda x: sub(x, constant(other)), (5, 4), -2, 2),
        ("mul", lambda x: mul(x, constant(other)), (5, 4), -2, 2),
        ("maximum", lambda x: select(~(x.data < other), x, constant(other)), (5, 4), -2, 2),
        ("minimum", lambda x: select(~(x.data > other), x, constant(other)), (5, 4), -2, 2),
        ("scale_constant", lambda x: scale(x, constant(-1.7)), (5, 4), -2, 2),
        ("gather_rows_index_2d", lambda x: gather_rows(x, np.array([[2, 0], [2, 1]])),
         (4, 3), -2, 2),
        ("reciprocal", lambda x: reciprocal(x), (4, 4), 0.5, 2.0),
        ("pow2", lambda x: pow_const(x, 2.0), (4, 4), -2, 2),
        ("pow4", lambda x: pow_const(x, 4.0), (4, 4), -2, 2),
        ("sqrt", lambda x: pow_const(x, 0.5), (4, 4), 0.5, 4.0),
        ("log", lambda x: log(x), (4, 4), 0.2, 3.0),
        ("absolute", lambda x: mul(x, constant(np.sign(x.data))), (4, 4), 0.2, 2.0),
        ("clamp", lambda x: select((x.data > -0.5) & (x.data < 0.5), x,
                                   constant(np.clip(x.data, -0.5, 0.5))), (4, 4), -2, 2),
        ("sigmoid", lambda x: sigmoid(x), (5, 4), -4, 4),
        ("silu", lambda x: silu(x), (5, 4), -4, 4),
        ("softmax_rows", lambda x: softmax(x, axis=1), (5, 6), -3, 3),
        ("softmax_cols", lambda x: softmax(x, axis=0), (5, 6), -3, 3),
        ("sum_all", lambda x: tsum(x), (5, 4), -2, 2),
        ("sum_axis0", lambda x: tsum(x, axis=0), (5, 4), -2, 2),
        ("mean", lambda x: scale(tsum(x), constant(1.0 / 20)), (5, 4), -2, 2),
        ("reshape", lambda x: reshape(x, (20,)), (5, 4), -2, 2),
        ("transpose", lambda x: transpose(x), (5, 4), -2, 2),
        ("concat", lambda x: concat([x, constant(other)], axis=1), (5, 4), -2, 2),
        ("slice_cols", lambda x: slice_cols(x, 1, 3), (5, 4), -2, 2),
        ("gather_rows", lambda x: gather_rows(x, idx_rows), (5, 4), -2, 2),
        ("routed_matmul", lambda x: routed_matmul(
            x, concat([reshape(x, (1, 4, 4)), constant(squares)], axis=0), idx_weights),
         (4, 4), -2, 2),
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
        ("attention", lambda x: attention(x, 2), (2, 5, 12), -2, 2),
        ("attention_keys", lambda x: attention(
            concat([constant(stack), x, constant(stack)], axis=-1), 2), (2, 5, 4), -2, 2),
        ("gather_rows_repeated", lambda x: gather_rows(x, idx_repeated), (4, 3), -2, 2),
        ("scale_scalar_factor", lambda x: scale(constant(other), x), (), -2, 2),
        ("routed_matmul_weights",
         lambda x: routed_matmul(constant(routed_input), x, idx_weights), (3, 4, 2), -2, 2),
        ("routed_matmul_empty_middle", lambda x: routed_matmul(  # weight 1 is never picked
            x, concat([reshape(x, (1, 4, 4)), constant(squares)], 0), np.array([0, 0, 2, 2])),
         (4, 4), -2, 2),
        ("gather_rows_vector", lambda x: gather_rows(x, np.array([1, 1, 0, 2])), (3,), -2, 2),
        # the sparse MoE's gate: entries t*4 + n of a flattened [3, 4] score matrix, in pair order
        ("gather_rows_gate", lambda x: gather_rows(reshape(x, (12,)), np.array([4, 9, 2, 11])),
         (3, 4), -2, 2),
        ("routed_matmul_input_as_weights", lambda x: routed_matmul(  # x, x^T and I as weights
            x, concat([reshape(s, (1, 4, 4)) for s in (x, transpose(x), constant(np.eye(4)))], 0),
            np.array([0, 0, 1, 2])), (4, 4), -2, 2),
    ]


def unit_gradient_suite() -> list[CheckResult]:
    results = []
    for i, (name, build, shape, low, high) in enumerate(unit_gradient_cases()):
        worst = 0.0
        for seed in range(1000 * i, 1000 * i + UNIT_CASES):
            x0 = RngStream(seed).uniform(low, high, shape)
            with no_grad():
                u = RngStream(seed + 10_000).uniform(-1, 1, build(Tensor(x0)).shape)
            worst = max(worst, input_grad_error(build, x0, u, FD_STEP))
        results.append(CheckResult(name=name, error=worst, tol=UNIT_TOL))
    return results


def tiny_config(**overrides) -> RunConfig:
    """Smallest full-featured model: D=16, depth 2, 16 search tokens."""
    base = dict(
        seed=7, channels=1, patch_size=4, template_size=8, search_size=16,
        model_dim=16, depth=2, heads=4, head_hidden=16,
        n_experts=2, top_k=1, reduction_g=4, shared_m=2,
        epsilon_mode="fixed", epsilon_value=0.8,
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
    params = [p for p in model.store if p.requires_grad]

    def loss():
        return forward_track(sample, model).bundle.total.item()

    errors = param_grad_errors(params, loss, sampled_coords, FD_STEP)
    return [CheckResult(name=p.name, error=e, tol=END_TO_END_TOL) for p, e in zip(params, errors)]


def frozen_backbone_check() -> CheckResult:
    """Backbone bytes must be identical before and after a training step."""
    from .train import train

    cfg = tiny_config(steps=3, n_train=2)
    model_before = Tracker(cfg)
    checksum_before = model_before.backbone_checksum()
    result = train(cfg, eval_each_log=False)
    same = result.model.backbone_checksum() == checksum_before
    return CheckResult(name="frozen_backbone", error=0.0 if same else 1.0, tol=0.5)
