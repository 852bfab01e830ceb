"""Mixture-of-experts adapter: router, balance loss, sparse and shared branches.

The adapter combines two paths on top of a residual connection:

  * a sparse branch where each token picks its top-K of N gated experts
    (down-project, gate, up-project, each one [N, ...] stack; SiLU gating),
    and only picked experts run;
  * an always-on shared branch with one serial down-projection, M parallel
    single-matrix sub-experts W_m (column blocks of one [H, M*H] matrix)
    mixed by a low-dimensional router, and one serial up-projection.

The adapter takes a [..., T, D] stack of token sequences and runs both
branches once over all of its rows. Both branches record a fixed number of
tape nodes whatever N, M and the number of sequences are. The sparse branch
stable-sorts the rows*K (token, pick) pairs by expert and gathers the token
rows in that order, so ``routed_matmul`` runs each expert on one contiguous
segment. Each pair's gate, its token's router score for the picked expert,
is one gather from the flattened [rows*N] scores in that order, and it
scales the [pairs, H] hidden before the up-projection; one gather takes the
outputs back to token order as [rows, K, D], summed over K. The shared
branch computes sum_m r_tm (h_t W_m) directly: one matmul by the stored
[W_1 ... W_M], viewed as [rows, M, H], scaled by the router weights r and
summed over M. The balance loss stays per sequence: f and p are taken over
each sequence's own T tokens, so stacking sequences leaves every term as it
was.

Projections carry no biases so an all-zero adapter is exactly the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .numerics import (
    ParamStore,
    Parameter,
    RngStream,
    Tensor,
    add,
    constant,
    fan_in_uniform,
    gather_rows,
    matmul,
    mul,
    reshape,
    routed_matmul,
    scale,
    silu,
    softmax,
    tsum,
)


@dataclass
class RouterDecision:
    """Per-token routing outcome.

    ``scores`` is the full softmax over experts and ``selected`` the top-K
    expert indices per token (ties broken toward the lowest index).
    """

    scores: Tensor
    selected: np.ndarray


@dataclass
class BalanceStats:
    """Per sequence, off the tape: [..., N] expert pick counts, the f they give, mean scores p."""

    counts: np.ndarray
    f: np.ndarray
    p: np.ndarray


@dataclass
class SpecificExpertParams:
    """The N experts' projections as stacks: [N, D, H] down and gate, [N, H, D] up."""

    w_down: Parameter
    w_gate: Parameter
    w_up: Parameter


@dataclass
class DenseSharedParams:
    """``sub`` is [H, M*H]: column block m is sub-expert W_m."""

    w_down: Parameter
    sub: Parameter
    w_router: Parameter
    w_up: Parameter


@dataclass
class SparseMoEResult:
    output: Tensor
    decision: RouterDecision
    n_expert_evals: int


@dataclass
class AdapterResult:
    """Residual output shaped like the input, one balance term per sequence and its stats."""

    output: Tensor
    balance: Tensor
    stats: BalanceStats


def route(tokens: Tensor, w_router: Tensor, top_k: int) -> RouterDecision:
    """Score [T, D] tokens against a [D, N] router's experts and pick the top-K per token."""
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise ShapeError(f"route expects [T, D] tokens with T >= 1, got {tokens.shape}")
    if w_router.ndim != 2 or w_router.shape[0] != tokens.shape[1]:
        raise ShapeError(
            f"router weight {w_router.shape} incompatible with tokens {tokens.shape}"
        )
    n = w_router.shape[1]
    if not 1 <= top_k < n:
        raise ConfigError(f"top_k must satisfy 1 <= K < N, got K={top_k}, N={n}")
    scores = softmax(matmul(tokens, w_router), axis=1)
    # stable argsort of -scores keeps the lowest expert index first on ties
    order = np.argsort(-scores.data, axis=1, kind="stable")
    return RouterDecision(scores=scores, selected=np.ascontiguousarray(order[:, :top_k]))


def balance_loss(decision: RouterDecision) -> tuple[Tensor, BalanceStats]:
    """Expert-level balance loss: sum_n f_n * p_n, one per sequence.

    The decision covers a [..., T] stack of sequences (scores [..., T, N],
    selected [..., T, K]), and the loss has its leading shape. Per sequence,
    f_n scales the count of tokens assigned to expert n by N/(K*T), and p_n
    is the mean score of expert n. The counts are piecewise constant in the
    scores, so gradient flows only through p.
    """
    t_count, n = decision.scores.shape[-2:]
    if t_count == 0:
        raise ContractError("balance_loss: decision holds no tokens")
    k = decision.selected.shape[-1]
    counts = np.sum(decision.selected[..., None] == np.arange(n), axis=(-3, -2))
    f = counts * (n / (k * t_count))
    p = scale(tsum(decision.scores, axis=-2), constant(1.0 / t_count))
    loss = tsum(mul(constant(f), p), axis=-1)
    return loss, BalanceStats(counts=counts, f=f, p=p.data.copy())


def routed_experts(tokens: Tensor, experts: SpecificExpertParams, expert: np.ndarray,
                   gate: Tensor) -> Tensor:
    """Gated projection (silu(x W_gate) * (x W_down) * gate) W_up, rows sorted by expert[i]."""
    hidden = mul(silu(routed_matmul(tokens, experts.w_gate, expert)),
                 routed_matmul(tokens, experts.w_down, expert))
    return routed_matmul(scale(hidden, gate), experts.w_up, expert)


def sparse_moe(
    tokens: Tensor,
    experts: SpecificExpertParams,
    w_router,
    top_k: int,
) -> SparseMoEResult:
    """Top-K dispatch of [rows, D] tokens over the specific experts.

    Experts that no token selected are never evaluated; the returned
    ``n_expert_evals`` counts (token, expert) pairs actually run.
    """
    n = w_router.shape[1]
    if experts.w_down.shape[0] != n:
        raise ConfigError(
            f"router scores {n} experts, got a stack of {experts.w_down.shape[0]}"
        )
    decision = route(tokens, w_router, top_k)
    rows, k = decision.selected.shape
    # pair p = t*K + i is token t's i-th pick; a stable sort keeps token order per expert
    picks = decision.selected.ravel()
    order = np.argsort(picks, kind="stable")
    token, expert = order // k, picks[order]
    # the gate of pair (t, e) is scores[t, e], entry t*N + e of the flat scores
    gate = gather_rows(reshape(decision.scores, (rows * n,)), token * n + expert)
    sorted_out = routed_experts(gather_rows(tokens, token), experts, expert, gate)
    output = tsum(gather_rows(sorted_out, np.argsort(order).reshape(rows, k)), axis=1)
    return SparseMoEResult(output=output, decision=decision, n_expert_evals=rows * k)


def dense_shared_moe(tokens: Tensor, params: DenseSharedParams) -> Tensor:
    """Serial-parallel shared branch, sum_m r_tm (h_t W_m); all sub-experts always run."""
    h = matmul(tokens, params.w_down)
    r = softmax(matmul(h, params.w_router), axis=1)
    rows, hidden = h.shape
    # columns [m*H, (m+1)*H) of h [W_1 ... W_M] are h W_m
    per_sub = reshape(matmul(h, params.sub), (rows, params.sub.shape[1] // hidden, hidden))
    return matmul(tsum(scale(per_sub, r), axis=1), params.w_up)


class MoEAdapter:
    """One adapter layer: residual sum of the sparse and shared branches.

    Parameters are registered in ``store`` under ``prefix`` so checkpointing
    and parameter counting see them like any other model weights. Each token
    runs through ``top_k`` of ``n_experts`` experts of width ``hidden``.
    """

    def __init__(self, store: ParamStore, prefix: str, rng: RngStream, *, dim: int, hidden: int,
                 n_experts: int, top_k: int, n_shared: int):
        self.top_k = top_k
        d, h = dim, hidden
        self.w_router = store.uniform_init(f"{prefix}.router.w", (d, n_experts), d, rng)
        # drawn expert by expert (down, gate, up), then stacked per projection
        specs = (("w_down", (d, h), d), ("w_gate", (d, h), d), ("w_up", (h, d), h))
        drawn = [[fan_in_uniform(shape, fan_in, rng) for _, shape, fan_in in specs]
                 for _ in range(n_experts)]
        self.experts = SpecificExpertParams(*(
            store.add(f"{prefix}.expert.{name}", np.stack(mats))
            for (name, _, _), mats in zip(specs, zip(*drawn))))
        self.shared = DenseSharedParams(
            w_down=store.uniform_init(f"{prefix}.shared.w_down", (d, h), d, rng),
            sub=store.add(f"{prefix}.shared.sub", np.concatenate(
                [fan_in_uniform((h, h), h, rng) for _ in range(n_shared)], axis=1)),
            w_router=store.uniform_init(f"{prefix}.shared.router.w", (h, n_shared), h, rng),
            w_up=store.uniform_init(f"{prefix}.shared.w_up", (h, d), h, rng),
        )

    def __call__(self, tokens: Tensor) -> AdapterResult:
        """Both branches over a [..., T, D] stack of sequences, as one set of rows."""
        *lead, t_count, d = tokens.shape
        rows = reshape(tokens, (tokens.size // d, d))
        sparse = sparse_moe(rows, self.experts, self.w_router, self.top_k)
        output = add(add(rows, sparse.output), dense_shared_moe(rows, self.shared))
        decision = sparse.decision
        per_sequence = RouterDecision(
            scores=reshape(decision.scores, (*lead, t_count, decision.scores.shape[1])),
            selected=decision.selected.reshape(*lead, t_count, self.top_k),
        )
        balance, stats = balance_loss(per_sequence)
        return AdapterResult(output=reshape(output, tokens.shape), balance=balance, stats=stats)


def adapter_param_count(dim: int, hidden: int, n_experts: int, n_shared: int) -> int:
    """Closed-form parameter count of one adapter layer."""
    specific = n_experts * 3 * dim * hidden
    router = dim * n_experts
    return specific + router + dense_shared_param_count(dim, hidden, n_shared)


def dense_shared_param_count(dim: int, hidden: int, n_shared: int) -> int:
    return 2 * dim * hidden + n_shared * hidden * hidden + hidden * n_shared
