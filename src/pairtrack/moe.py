"""Mixture-of-experts adapter: router, balance loss, sparse and shared branches.

The adapter combines two paths on top of a residual connection:

  * a sparse branch where each token picks its top-K of N gated experts
    (down-project, gate, up-project; SiLU gating), and only picked experts
    run;
  * an always-on shared branch with one serial down-projection, M parallel
    single-matrix sub-experts mixed by a low-dimensional router, and one
    serial up-projection.

Both branches record a fixed number of tape nodes whatever N and M are.
The sparse branch gathers the T*K (token, pick) pairs into one matrix, runs
each expert on its pair rows with ``routed_matmul``, scales rows by the
router gate and sums each token's K rows with a constant one-hot matmul.
The shared branch is one matmul: sum_m r_tm (h_t W_m) = (r_t (x) h_t) [W_1;
...; W_M], with the outer product built from constant 0/1 matrices.

Projections carry no biases so an all-zero adapter is exactly the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .numerics import (
    ParamStore,
    Parameter,
    RngStream,
    Tensor,
    add,
    concat,
    constant,
    gather_cols,
    gather_rows,
    matmul,
    mul,
    reshape,
    routed_matmul,
    scale_rows,
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
    ``gate`` the scores of the selected experts.
    """

    scores: Tensor
    selected: np.ndarray
    gate: Tensor


@dataclass
class BalanceStats:
    """Assignment fractions f and mean scores p behind the balance loss."""

    f: np.ndarray
    p: np.ndarray
    token_count: int


@dataclass
class SpecificExpertParams:
    w_down: Parameter
    w_gate: Parameter
    w_up: Parameter


@dataclass
class DenseSharedParams:
    w_down: Parameter
    sub: list[Parameter]
    w_router: Parameter
    w_up: Parameter


@dataclass
class SparseMoEResult:
    output: Tensor
    balance: Tensor
    decision: RouterDecision
    n_expert_evals: int


def route(tokens: Tensor, w_router, cfg: MoEConfig) -> RouterDecision:
    """Score tokens against experts and pick the top-K per token."""
    wt = w_router.tensor if hasattr(w_router, "tensor") else w_router
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise ShapeError(f"route expects [T, D] tokens with T >= 1, got {tokens.shape}")
    if wt.shape != (tokens.shape[1], cfg.n_experts):
        raise ShapeError(
            f"router weight {wt.shape} incompatible with tokens {tokens.shape} "
            f"and N={cfg.n_experts}"
        )
    scores = softmax(matmul(tokens, wt), axis=1)
    # stable argsort of -scores keeps the lowest expert index first on ties
    order = np.argsort(-scores.data, axis=1, kind="stable")
    selected = np.ascontiguousarray(order[:, : cfg.top_k])
    gate = gather_cols(scores, selected)
    return RouterDecision(scores=scores, selected=selected, gate=gate)


def balance_loss(decision: RouterDecision, cfg: MoEConfig) -> tuple[Tensor, BalanceStats]:
    """Expert-level balance loss: sum_n f_n * p_n.

    f_n scales the count of tokens assigned to expert n by N/(K*T); p_n is
    the mean score of expert n. The counts are piecewise constant in the
    scores, so gradient flows only through p.
    """
    t_count, n = decision.scores.shape
    if t_count == 0:
        raise ContractError("balance_loss: decision holds no tokens")
    if n != cfg.n_experts:
        raise ContractError(
            f"decision has {n} experts but config expects {cfg.n_experts}"
        )
    k = decision.selected.shape[1]
    counts = np.bincount(decision.selected.ravel(), minlength=n).astype(np.float64)
    f = counts * (n / (k * t_count))
    p = smul(tsum(decision.scores, axis=0), 1.0 / t_count)
    loss = tsum(mul(constant(f), p))
    return loss, BalanceStats(f=f, p=p.data.copy(), token_count=t_count)


def routed_experts(
    tokens: Tensor, experts: list[SpecificExpertParams], expert: np.ndarray
) -> Tensor:
    """Gated projection (silu(x W_gate) * (x W_down)) W_up, row i by expert[i]."""
    def project(x: Tensor, name: str) -> Tensor:
        return routed_matmul(x, [getattr(e, name).tensor for e in experts], expert)

    return project(mul(silu(project(tokens, "w_gate")), project(tokens, "w_down")), "w_up")


def specific_expert(tokens: Tensor, params: SpecificExpertParams) -> Tensor:
    """One gated expert applied to every token."""
    return routed_experts(tokens, [params], np.zeros(tokens.shape[0], dtype=np.int64))


def sparse_moe(
    tokens: Tensor,
    experts: list[SpecificExpertParams],
    w_router,
    cfg: MoEConfig,
) -> SparseMoEResult:
    """Top-K dispatch over the specific experts.

    Experts that no token selected are never evaluated; the returned
    ``n_expert_evals`` counts (token, expert) pairs actually run.
    """
    if len(experts) != cfg.n_experts:
        raise ConfigError(
            f"expected {cfg.n_experts} expert parameter sets, got {len(experts)}"
        )
    decision = route(tokens, w_router, cfg)
    balance, _ = balance_loss(decision, cfg)
    t_count, k = decision.selected.shape
    # pair row t*K + i holds token t's i-th pick
    pair_token = np.repeat(np.arange(t_count), k)
    pair_out = routed_experts(gather_rows(tokens, pair_token), experts, decision.selected.ravel())
    scaled = scale_rows(pair_out, reshape(decision.gate, (t_count * k,)))
    combine = constant(np.repeat(np.eye(t_count), k, axis=1))  # sums token t's K rows
    return SparseMoEResult(
        output=matmul(combine, scaled), balance=balance,
        decision=decision, n_expert_evals=t_count * k,
    )


def dense_shared_moe(tokens: Tensor, params: DenseSharedParams) -> Tensor:
    """Serial-parallel shared branch; all sub-experts always run."""
    h = matmul(tokens, params.w_down.tensor)
    r = softmax(matmul(h, params.w_router.tensor), axis=1)
    n_sub, hidden = len(params.sub), h.shape[1]
    # column m*H + j of the outer product r_t (x) h_t is r_tm * h_tj
    spread = np.repeat(np.eye(n_sub), hidden, axis=1)
    tile = np.tile(np.eye(hidden), n_sub)
    outer = mul(matmul(r, constant(spread)), matmul(h, constant(tile)))
    low = matmul(outer, concat([sub.tensor for sub in params.sub], axis=0))
    return matmul(low, params.w_up.tensor)


class MoEAdapter:
    """One adapter layer: residual sum of the sparse and shared branches.

    Parameters are registered in ``store`` under ``prefix`` so checkpointing
    and parameter counting see them like any other model weights.
    """

    def __init__(self, store: ParamStore, prefix: str, cfg: MoEConfig, rng: RngStream):
        self.cfg = cfg
        self.prefix = prefix
        d, h = cfg.model_dim, cfg.hidden_dim
        self.w_router = store.uniform_init(f"{prefix}.router.w", (d, cfg.n_experts), d, rng)
        self.experts = [
            SpecificExpertParams(
                w_down=store.uniform_init(f"{prefix}.expert{n}.w_down", (d, h), d, rng),
                w_gate=store.uniform_init(f"{prefix}.expert{n}.w_gate", (d, h), d, rng),
                w_up=store.uniform_init(f"{prefix}.expert{n}.w_up", (h, d), h, rng),
            )
            for n in range(cfg.n_experts)
        ]
        self.shared = DenseSharedParams(
            w_down=store.uniform_init(f"{prefix}.shared.w_down", (d, h), d, rng),
            sub=[
                store.uniform_init(f"{prefix}.shared.sub{m}", (h, h), h, rng)
                for m in range(cfg.n_shared)
            ],
            w_router=store.uniform_init(f"{prefix}.shared.router.w", (h, cfg.n_shared), h, rng),
            w_up=store.uniform_init(f"{prefix}.shared.w_up", (h, d), h, rng),
        )

    def __call__(self, tokens: Tensor) -> SparseMoEResult:
        """The sparse result, with ``output`` the residual sum of both branches."""
        sparse = sparse_moe(tokens, self.experts, self.w_router, self.cfg)
        shared_out = dense_shared_moe(tokens, self.shared)
        return replace(sparse, output=add(add(tokens, sparse.output), shared_out))


def adapter_param_count(cfg: MoEConfig) -> int:
    """Closed-form parameter count of one adapter layer."""
    d, h = cfg.model_dim, cfg.hidden_dim
    specific = cfg.n_experts * 3 * d * h
    router = d * cfg.n_experts
    return specific + router + dense_shared_param_count(cfg)


def dense_shared_param_count(cfg: MoEConfig) -> int:
    d, h = cfg.model_dim, cfg.hidden_dim
    return 2 * d * h + cfg.n_shared * h * h + h * cfg.n_shared
