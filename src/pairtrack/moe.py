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
gathers the rows*K (token, pick) pairs into one matrix, token-major, runs
each expert on its pair rows with ``routed_matmul`` on each stack, scales
rows by the router gate, and sums each token's K rows by viewing the pairs
as [rows, K, D] and summing over K. The shared branch computes
sum_m r_tm (h_t W_m) directly: one matmul by the stored [W_1 ... W_M],
viewed as [rows, M, H], scaled by the router weights r and summed over M.
The balance loss stays per sequence: f and p are taken over each
sequence's own T tokens, so stacking sequences leaves every term as it was.

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
    gather_cols,
    gather_rows,
    matmul,
    mul,
    reshape,
    routed_matmul,
    scale,
    silu,
    smul,
    softmax,
    tsum,
)


@dataclass
class MoEConfig:
    """Expert counts and projection factors for one adapter."""

    model_dim: int
    n_experts: int = 4
    top_k: int = 1
    reduction: int = 12
    n_shared: int = 4

    def __post_init__(self):
        if not 1 <= self.top_k < self.n_experts:
            raise ConfigError(
                f"top_k must satisfy 1 <= K < N, got K={self.top_k}, N={self.n_experts}"
            )
        if self.model_dim % self.reduction != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by reduction {self.reduction}"
            )
        if self.model_dim // self.reduction < 1:
            raise ConfigError("hidden dim model_dim // reduction must be >= 1")
        if self.n_shared < 1:
            raise ConfigError("n_shared must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return self.model_dim // self.reduction


@dataclass
class RouterDecision:
    """Per-token routing outcome.

    ``scores`` is the full softmax over experts, ``selected`` the top-K
    expert indices per token (ties broken toward the lowest index), and
    ``gate`` the scores of the selected experts; a decision made only for
    ``balance_loss``, which reads no gate, may leave it None.
    """

    scores: Tensor
    selected: np.ndarray
    gate: Tensor | None = None


@dataclass
class BalanceStats:
    """Assignment fractions f and mean scores p behind the balance loss."""

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
    """Residual output shaped like the input, one balance term per sequence."""

    output: Tensor
    balance: Tensor
    sparse: SparseMoEResult


def route(tokens: Tensor, w_router: Tensor, cfg: MoEConfig) -> RouterDecision:
    """Score tokens against experts and pick the top-K per token."""
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise ShapeError(f"route expects [T, D] tokens with T >= 1, got {tokens.shape}")
    if w_router.shape != (tokens.shape[1], cfg.n_experts):
        raise ShapeError(
            f"router weight {w_router.shape} incompatible with tokens {tokens.shape} "
            f"and N={cfg.n_experts}"
        )
    scores = softmax(matmul(tokens, w_router), axis=1)
    # stable argsort of -scores keeps the lowest expert index first on ties
    order = np.argsort(-scores.data, axis=1, kind="stable")
    selected = np.ascontiguousarray(order[:, : cfg.top_k])
    gate = gather_cols(scores, selected)
    return RouterDecision(scores=scores, selected=selected, gate=gate)


def balance_loss(decision: RouterDecision, cfg: MoEConfig) -> tuple[Tensor, BalanceStats]:
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
    if n != cfg.n_experts:
        raise ContractError(
            f"decision has {n} experts but config expects {cfg.n_experts}"
        )
    k = decision.selected.shape[-1]
    counts = np.sum(decision.selected[..., None] == np.arange(n), axis=(-3, -2))
    f = counts * (n / (k * t_count))
    p = smul(tsum(decision.scores, axis=-2), 1.0 / t_count)
    loss = tsum(mul(constant(f), p), axis=-1)
    return loss, BalanceStats(f=f, p=p.data.copy())


def routed_experts(tokens: Tensor, experts: SpecificExpertParams, expert: np.ndarray) -> Tensor:
    """Gated projection (silu(x W_gate) * (x W_down)) W_up, row i by expert[i]."""
    gated = mul(silu(routed_matmul(tokens, experts.w_gate, expert)),
                routed_matmul(tokens, experts.w_down, expert))
    return routed_matmul(gated, experts.w_up, expert)


def sparse_moe(
    tokens: Tensor,
    experts: SpecificExpertParams,
    w_router,
    cfg: MoEConfig,
) -> SparseMoEResult:
    """Top-K dispatch of [rows, D] tokens over the specific experts.

    Experts that no token selected are never evaluated; the returned
    ``n_expert_evals`` counts (token, expert) pairs actually run.
    """
    if experts.w_down.shape[0] != cfg.n_experts:
        raise ConfigError(
            f"expected {cfg.n_experts} experts, got a stack of {experts.w_down.shape[0]}"
        )
    decision = route(tokens, w_router, cfg)
    rows, k = decision.selected.shape
    # pair row t*K + i holds token t's i-th pick
    pair_token = np.repeat(np.arange(rows), k)
    pair_out = routed_experts(gather_rows(tokens, pair_token), experts, decision.selected.ravel())
    scaled = scale(pair_out, reshape(decision.gate, (rows * k,)))
    output = tsum(reshape(scaled, (rows, k, tokens.shape[1])), axis=1)
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
    and parameter counting see them like any other model weights.
    """

    def __init__(self, store: ParamStore, prefix: str, cfg: MoEConfig, rng: RngStream):
        self.cfg = cfg
        d, h = cfg.model_dim, cfg.hidden_dim
        self.w_router = store.uniform_init(f"{prefix}.router.w", (d, cfg.n_experts), d, rng)
        # drawn expert by expert (down, gate, up), then stacked per projection
        specs = (("w_down", (d, h), d), ("w_gate", (d, h), d), ("w_up", (h, d), h))
        drawn = [[fan_in_uniform(shape, fan_in, rng) for _, shape, fan_in in specs]
                 for _ in range(cfg.n_experts)]
        self.experts = SpecificExpertParams(*(
            store.add(f"{prefix}.expert.{name}", np.stack(mats))
            for (name, _, _), mats in zip(specs, zip(*drawn))))
        self.shared = DenseSharedParams(
            w_down=store.uniform_init(f"{prefix}.shared.w_down", (d, h), d, rng),
            sub=store.add(f"{prefix}.shared.sub", np.concatenate(
                [fan_in_uniform((h, h), h, rng) for _ in range(cfg.n_shared)], axis=1)),
            w_router=store.uniform_init(f"{prefix}.shared.router.w", (h, cfg.n_shared), h, rng),
            w_up=store.uniform_init(f"{prefix}.shared.w_up", (h, d), h, rng),
        )

    def __call__(self, tokens: Tensor) -> AdapterResult:
        """Both branches over a [..., T, D] stack of sequences, as one set of rows."""
        *lead, t_count, d = tokens.shape
        rows = reshape(tokens, (tokens.size // d, d))
        sparse = sparse_moe(rows, self.experts, self.w_router, self.cfg)
        output = add(add(rows, sparse.output), dense_shared_moe(rows, self.shared))
        decision = sparse.decision
        # the balance loss reads no gate, so the per-sequence view leaves it out
        per_sequence = RouterDecision(
            scores=reshape(decision.scores, (*lead, t_count, self.cfg.n_experts)),
            selected=decision.selected.reshape(*lead, t_count, self.cfg.top_k),
        )
        balance, _ = balance_loss(per_sequence, self.cfg)
        return AdapterResult(output=reshape(output, tokens.shape), balance=balance, sparse=sparse)


def adapter_param_count(cfg: MoEConfig) -> int:
    """Closed-form parameter count of one adapter layer."""
    d, h = cfg.model_dim, cfg.hidden_dim
    specific = cfg.n_experts * 3 * d * h
    router = d * cfg.n_experts
    return specific + router + dense_shared_param_count(cfg)


def dense_shared_param_count(cfg: MoEConfig) -> int:
    d, h = cfg.model_dim, cfg.hidden_dim
    return 2 * d * h + cfg.n_shared * h * h + h * cfg.n_shared
