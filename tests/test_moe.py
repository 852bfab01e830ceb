"""Router, balance loss, expert branches, and the assembled adapter."""

import math

import numpy as np
import pytest

from pairtrack.errors import ConfigError, ContractError, ShapeError
from pairtrack.moe import (
    MoEAdapter,
    MoEConfig,
    RouterDecision,
    SpecificExpertParams,
    adapter_param_count,
    balance_loss,
    dense_shared_moe,
    dense_shared_param_count,
    route,
    sparse_moe,
    specific_expert,
)
from pairtrack.numerics import (
    ParamStore,
    RngStream,
    Tensor,
    add,
    backward,
    constant,
    finite_diff_grad,
    grad_max_rel_error,
    mul,
    no_grad,
    tsum,
)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _store_with(name, values):
    store = ParamStore()
    return store.add(name, values)


def _make_adapter(d=12, n=4, k=1, g=4, m=2, seed=0):
    cfg = MoEConfig(model_dim=d, n_experts=n, top_k=k, reduction=g, n_shared=m)
    store = ParamStore()
    adapter = MoEAdapter(store, "adapter", cfg, RngStream(seed))
    return adapter, store, cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        MoEConfig(model_dim=12, n_experts=4, top_k=4)
    with pytest.raises(ConfigError):
        MoEConfig(model_dim=13, reduction=12)
    cfg = MoEConfig(model_dim=144)
    assert (cfg.n_experts, cfg.top_k, cfg.reduction, cfg.n_shared) == (4, 1, 12, 4)
    assert cfg.hidden_dim == 12


def test_route_zero_router_uniform_and_tiebreak():
    cfg = MoEConfig(model_dim=4, reduction=4)
    tokens = constant(RngStream(1).uniform(-1, 1, (6, 4)))
    w = _store_with("w", np.zeros((4, 4)))
    decision = route(tokens, w, cfg)
    np.testing.assert_allclose(decision.scores.data, np.full((6, 4), 0.25), atol=1e-15)
    np.testing.assert_array_equal(decision.selected, np.zeros((6, 1), dtype=np.int64))
    np.testing.assert_allclose(decision.gate.data, np.full((6, 1), 0.25), atol=1e-15)


def test_route_scalar_softmax_oracle():
    cfg = MoEConfig(model_dim=4, reduction=4)
    tokens = constant([[1.0, 0.0, 0.0, 0.0]])
    w = _store_with("w", np.eye(4))
    decision = route(tokens, w, cfg)
    e = math.e
    assert decision.selected.tolist() == [[0]]
    assert abs(decision.gate.data[0, 0] - e / (e + 3)) < 1e-14


def test_route_is_deterministic():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    tokens = constant(RngStream(3).uniform(-1, 1, (16, 8)))
    w = _store_with("w", RngStream(4).uniform(-1, 1, (8, 4)))
    first = route(tokens, w, cfg)
    second = route(tokens, w, cfg)
    np.testing.assert_array_equal(first.selected, second.selected)
    np.testing.assert_array_equal(first.scores.data, second.scores.data)


def test_route_shape_error():
    cfg = MoEConfig(model_dim=4, reduction=4)
    with pytest.raises(ShapeError):
        route(constant(np.zeros((3, 5))), _store_with("w", np.zeros((4, 4))), cfg)


def test_balance_loss_perfectly_balanced():
    cfg = MoEConfig(model_dim=4, reduction=4)
    decision = RouterDecision(
        scores=constant(np.full((4, 4), 0.25)),
        selected=np.array([[0], [1], [2], [3]]),
        gate=constant(np.full((4, 1), 0.25)),
    )
    loss, stats = balance_loss(decision, cfg)
    assert abs(loss.item() - 1.0) <= 1e-9
    np.testing.assert_allclose(stats.f, np.ones(4), atol=1e-12)
    np.testing.assert_allclose(stats.p, np.full(4, 0.25), atol=1e-12)


def test_balance_loss_full_collapse_equals_n():
    cfg = MoEConfig(model_dim=4, reduction=4)
    one_hot = np.zeros((4, 4))
    one_hot[:, 0] = 1.0
    decision = RouterDecision(
        scores=constant(one_hot),
        selected=np.zeros((4, 1), dtype=np.int64),
        gate=constant(np.ones((4, 1))),
    )
    loss, stats = balance_loss(decision, cfg)
    assert abs(loss.item() - 4.0) <= 1e-9
    np.testing.assert_allclose(stats.f, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_balance_loss_recount_oracle():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    tokens = constant(RngStream(5).uniform(-1, 1, (64, 8)))
    w = _store_with("w", RngStream(6).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, cfg)
    loss, _ = balance_loss(decision, cfg)
    # independent recomputation from raw counts and column means
    scores = decision.scores.data
    counts = np.array([(decision.selected == n).sum() for n in range(4)], dtype=float)
    expected = float(np.sum((4.0 / (1 * 64) * counts) * scores.mean(axis=0)))
    assert abs(loss.item() - expected) <= 1e-12


def test_balance_loss_permutation_invariant():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    tokens = constant(RngStream(7).uniform(-1, 1, (32, 8)))
    w = _store_with("w", RngStream(8).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, cfg)
    base, _ = balance_loss(decision, cfg)
    perm = np.array([2, 0, 3, 1])
    inverse = np.argsort(perm)
    permuted = RouterDecision(
        scores=constant(decision.scores.data[:, perm]),
        selected=inverse[decision.selected],
        gate=decision.gate,
    )
    shuffled, _ = balance_loss(permuted, cfg)
    assert abs(base.item() - shuffled.item()) <= 1e-12


def test_balance_loss_empty_decision_rejected():
    cfg = MoEConfig(model_dim=4, reduction=4)
    decision = RouterDecision(
        scores=constant(np.zeros((0, 4))),
        selected=np.zeros((0, 1), dtype=np.int64),
        gate=constant(np.zeros((0, 1))),
    )
    with pytest.raises(ContractError):
        balance_loss(decision, cfg)


def test_balance_loss_stats_sums():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    tokens = constant(RngStream(9).uniform(-1, 1, (40, 8)))
    w = _store_with("w", RngStream(10).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, cfg)
    _, stats = balance_loss(decision, cfg)
    assert abs(stats.f.sum() - 4.0) <= 1e-9
    assert abs(stats.p.sum() - 1.0) <= 1e-9
    assert np.all(stats.f >= 0) and np.all(stats.p >= 0)


def _expert_from_arrays(store, prefix, w_down, w_gate, w_up):
    return SpecificExpertParams(
        w_down=store.add(f"{prefix}.w_down", w_down),
        w_gate=store.add(f"{prefix}.w_gate", w_gate),
        w_up=store.add(f"{prefix}.w_up", w_up),
    )


def test_specific_expert_zero_cases():
    store = ParamStore()
    rng = RngStream(11)
    params = _expert_from_arrays(
        store, "e", rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)),
        np.zeros((2, 4)),
    )
    out = specific_expert(constant(rng.uniform(-1, 1, (3, 4))), params)
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    store2 = ParamStore()
    params2 = _expert_from_arrays(
        store2, "e", rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)),
        rng.uniform(-1, 1, (2, 4)),
    )
    out2 = specific_expert(constant(np.zeros((3, 4))), params2)
    np.testing.assert_array_equal(out2.data, np.zeros((3, 4)))


def test_specific_expert_hand_oracle():
    store = ParamStore()
    w_gate = np.array([[0.5, 0.0], [0.0, 0.25], [0.25, 0.0], [0.0, 0.5]])
    w_down = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    w_up = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    params = _expert_from_arrays(store, "e", w_down, w_gate, w_up)
    token = np.array([[1.0, 2.0, -1.0, 0.5]])
    out = specific_expert(constant(token), params)
    # hand computation: g = [0.25, 0.75], d = [0, 2.5]
    g1 = _silu(0.75) * 2.5
    np.testing.assert_allclose(out.data, [[0.0, g1, g1, 0.0]], atol=1e-12)


def test_sparse_moe_identical_experts_symmetry():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    store = ParamStore()
    rng = RngStream(12)
    w_down = rng.uniform(-1, 1, (8, 2))
    w_gate = rng.uniform(-1, 1, (8, 2))
    w_up = rng.uniform(-1, 1, (2, 8))
    experts = [
        _expert_from_arrays(store, f"e{n}", w_down, w_gate, w_up) for n in range(4)
    ]
    w_router = store.add("router", rng.uniform(-1, 1, (8, 4)))
    tokens = constant(rng.uniform(-1, 1, (10, 8)))
    result = sparse_moe(tokens, experts, w_router, cfg)
    single = specific_expert(tokens, experts[0])
    expected = single.data * result.decision.gate.data[:, :1]
    np.testing.assert_allclose(result.output.data, expected, atol=1e-12)


def test_sparse_moe_dense_evaluation_oracle():
    # brute force: evaluate every expert densely in plain numpy, mask to top-K
    def expert_np(x, p):
        return (_silu(x @ p.w_gate.data) * (x @ p.w_down.data)) @ p.w_up.data

    for top_k in (1, 2):
        cfg = MoEConfig(model_dim=8, n_experts=4, top_k=top_k, reduction=4)
        store = ParamStore()
        rng = RngStream(13)
        experts = [
            _expert_from_arrays(
                store, f"e{n}", rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 2)),
                rng.uniform(-1, 1, (2, 8)),
            )
            for n in range(4)
        ]
        w_router = store.add("router", rng.uniform(-1, 1, (8, 4)))
        toks = rng.uniform(-1, 1, (8, 8))
        result = sparse_moe(constant(toks), experts, w_router, cfg)

        scores = result.decision.scores.data
        expected = np.zeros_like(toks)
        for t in range(8):
            for n in result.decision.selected[t]:
                expected[t] += scores[t, n] * expert_np(toks[t : t + 1], experts[n])[0]
        np.testing.assert_allclose(result.output.data, expected, atol=1e-12)
        assert result.n_expert_evals == 8 * top_k


@pytest.mark.parametrize("n_experts", [2, 4, 8])
def test_sparse_moe_dispatch_count_is_exactly_t(n_experts):
    cfg = MoEConfig(model_dim=8, n_experts=n_experts, top_k=1, reduction=4)
    store = ParamStore()
    rng = RngStream(100 + n_experts)
    experts = [
        _expert_from_arrays(
            store, f"e{n}", rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 2)),
            rng.uniform(-1, 1, (2, 8)),
        )
        for n in range(n_experts)
    ]
    w_router = store.add("router", rng.uniform(-1, 1, (8, n_experts)))
    t_count = 23
    result = sparse_moe(constant(rng.uniform(-1, 1, (t_count, 8))), experts, w_router, cfg)
    assert result.n_expert_evals == t_count


def test_sparse_moe_wrong_expert_count():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4)
    with pytest.raises(ConfigError):
        sparse_moe(constant(np.zeros((2, 8))), [], _store_with("w", np.zeros((8, 4))), cfg)


def test_dense_shared_identity_subexperts():
    cfg = MoEConfig(model_dim=8, n_experts=4, reduction=4, n_shared=3)
    adapter, store, _ = _make_adapter(d=8, g=4, m=3, seed=14)
    for m in range(3):
        store.set_values(f"adapter.shared.sub{m}", np.eye(2))
    tokens = constant(RngStream(15).uniform(-1, 1, (6, 8)))
    out = dense_shared_moe(tokens, adapter.shared)
    expected = tokens.data @ adapter.shared.w_down.data @ adapter.shared.w_up.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_dense_shared_zero_up_projection():
    adapter, store, _ = _make_adapter(d=8, g=4, m=2, seed=16)
    store.set_values("adapter.shared.w_up", np.zeros((2, 8)))
    out = dense_shared_moe(constant(RngStream(17).uniform(-1, 1, (5, 8))), adapter.shared)
    np.testing.assert_array_equal(out.data, np.zeros((5, 8)))


def test_dense_shared_hand_oracle():
    from pairtrack.moe import DenseSharedParams

    store = ParamStore()
    w_down = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    params = DenseSharedParams(
        w_down=store.add("d", w_down),
        sub=[store.add("s0", np.eye(2)), store.add("s1", 2.0 * np.eye(2))],
        w_router=store.add("r", np.zeros((2, 2))),
        w_up=store.add("u", np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])),
    )
    out = dense_shared_moe(constant([[1.0, 2.0, 3.0, 4.0]]), params)
    # h = [1, 2]; uniform router; low = 0.5*h + 0.5*2h = 1.5h
    np.testing.assert_allclose(out.data, [[1.5, 3.0, 0.0, 0.0]], atol=1e-14)


def _zero_adapter(store, prefix="adapter"):
    for p in store:
        if p.name.startswith(prefix):
            store.set_values(p.name, np.zeros(p.shape))


def test_adapter_zero_init_identity_is_exact():
    adapter, store, _ = _make_adapter(d=12, g=4, m=2, seed=18)
    _zero_adapter(store)
    tokens = constant(RngStream(19).uniform(-1, 1, (9, 12)))
    result = adapter(tokens)
    assert np.max(np.abs(result.output.data - tokens.data)) == 0.0


def test_adapter_gradients_match_finite_differences():
    adapter, store, _ = _make_adapter(d=8, n=4, g=4, m=2, seed=20)
    toks = RngStream(21).uniform(-1, 1, (7, 8))
    u = RngStream(22).uniform(-1, 1, (7, 8))

    def loss_tensor():
        result = adapter(constant(toks))
        return add(tsum(mul(result.output, constant(u))), result.balance)

    store.zero_grad()
    backward(loss_tensor())
    # router and shared-branch weights are always on the path; individual
    # experts may legitimately see no tokens
    always_active = ("adapter.router.w", "adapter.shared.w_down", "adapter.shared.w_up")
    for name in always_active:
        assert store[name].tensor.grad is not None
    for p in store:
        if p.tensor.grad is None:
            continue
        original = p.data.copy()

        def f(values):
            store.set_values(p.name, values)
            with no_grad():
                out = float(loss_tensor().item())
            store.set_values(p.name, original)
            return out

        fd = finite_diff_grad(f, original, h=1e-5)
        err = grad_max_rel_error(p.tensor.grad, fd)
        assert err <= 1e-4, f"{p.name}: rel err {err:.2e}"


def _recorded_nodes(out):
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


def test_adapter_tape_size_is_independent_of_expert_counts():
    counts = set()
    for n, m in ((2, 1), (4, 4), (8, 2)):
        adapter, _, _ = _make_adapter(d=12, n=n, g=4, m=m, seed=24)
        tokens = Tensor(RngStream(25).uniform(-1, 1, (16, 12)), requires_grad=True)
        counts.add(_recorded_nodes(adapter(tokens).output))
    assert len(counts) == 1, counts


def test_adapter_param_count_matches_walker():
    cfg = MoEConfig(model_dim=144, n_experts=4, top_k=1, reduction=12, n_shared=4)
    store = ParamStore()
    MoEAdapter(store, "adapter", cfg, RngStream(23))
    walker_total = store.count(lambda p: p.name.startswith("adapter"))
    assert walker_total == adapter_param_count(cfg)
    d, h = 144, 12
    explicit = 4 * 3 * d * h + d * 4 + (2 * d * h + 4 * h * h + h * 4)
    assert walker_total == explicit


@pytest.mark.parametrize("d", [48, 144, 768])
def test_dense_shared_parameter_efficiency(d):
    cfg = MoEConfig(model_dim=d, n_experts=4, top_k=1, reduction=12, n_shared=4)
    full_ffn = 2 * d * d  # two-layer D -> D -> D feed-forward expert, weights only
    assert dense_shared_param_count(cfg) < 0.2 * full_ffn
