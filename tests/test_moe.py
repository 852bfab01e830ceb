"""Router, balance loss, expert branches, and the assembled adapter."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrack.errors import ConfigError, ContractError, ShapeError
from pairtrack.harness import RunConfig
from pairtrack.harness.verify import param_grad_errors
from pairtrack.moe import (
    MoEAdapter,
    RouterDecision,
    adapter_param_count,
    balance_loss,
    dense_shared_moe,
    dense_shared_param_count,
    route,
    routed_experts,
    sparse_moe,
)
from pairtrack.numerics import (
    ParamStore,
    RngStream,
    Tensor,
    add,
    backward,
    concat,
    constant,
    gather_rows,
    matmul,
    mul,
    reshape,
    scale,
    silu,
    softmax,
    tsum,
)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _store_with(name, values):
    store = ParamStore()
    return store.add(name, values)


def _make_adapter(d=12, n=4, k=1, g=4, m=2, seed=0):
    store = ParamStore()
    adapter = MoEAdapter(store, "adapter", RngStream(seed), dim=d, hidden=d // g, n_experts=n,
                         top_k=k, n_shared=m)
    return adapter, store


def test_config_validation():
    with pytest.raises(ConfigError, match="got K=4, N=4"):
        RunConfig(n_experts=4, top_k=4)
    with pytest.raises(ConfigError, match="model_dim 76 not divisible by reduction_g 12"):
        RunConfig(model_dim=76, reduction_g=12)
    cfg = RunConfig()
    assert (cfg.n_experts, cfg.top_k, cfg.reduction_g, cfg.shared_m) == (4, 1, 12, 4)


def test_route_zero_router_uniform_and_tiebreak():
    tokens = constant(RngStream(1).uniform(-1, 1, (6, 4)))
    w = _store_with("w", np.zeros((4, 4)))
    decision = route(tokens, w, 1)
    np.testing.assert_allclose(decision.scores.data, np.full((6, 4), 0.25), atol=1e-15)
    np.testing.assert_array_equal(decision.selected, np.zeros((6, 1), dtype=np.int64))
    gate = np.take_along_axis(decision.scores.data, decision.selected, 1)
    np.testing.assert_allclose(gate, np.full((6, 1), 0.25), atol=1e-15)


def test_route_scalar_softmax_oracle():
    tokens = constant([[1.0, 0.0, 0.0, 0.0]])
    w = _store_with("w", np.eye(4))
    decision = route(tokens, w, 1)
    e = math.e
    assert decision.selected.tolist() == [[0]]
    gate = np.take_along_axis(decision.scores.data, decision.selected, 1)
    assert abs(gate[0, 0] - e / (e + 3)) < 1e-14


def test_route_is_deterministic():
    tokens = constant(RngStream(3).uniform(-1, 1, (16, 8)))
    w = _store_with("w", RngStream(4).uniform(-1, 1, (8, 4)))
    first = route(tokens, w, 1)
    second = route(tokens, w, 1)
    np.testing.assert_array_equal(first.selected, second.selected)
    np.testing.assert_array_equal(first.scores.data, second.scores.data)


def test_route_shape_error():
    with pytest.raises(ShapeError):
        route(constant(np.zeros((3, 5))), _store_with("w", np.zeros((4, 4))), 1)


@pytest.mark.parametrize("top_k", [0, 4])
def test_route_rejects_a_k_outside_one_to_n(top_k):
    with pytest.raises(ConfigError, match=f"got K={top_k}, N=4"):
        route(constant(np.zeros((3, 4))), _store_with("w", np.zeros((4, 4))), top_k)


def test_balance_loss_perfectly_balanced():
    decision = RouterDecision(
        scores=constant(np.full((4, 4), 0.25)),
        selected=np.array([[0], [1], [2], [3]]),
    )
    loss, stats = balance_loss(decision)
    assert abs(loss.item() - 1.0) <= 1e-9
    np.testing.assert_allclose(stats.f, np.ones(4), atol=1e-12)
    np.testing.assert_allclose(stats.p, np.full(4, 0.25), atol=1e-12)


def test_balance_loss_full_collapse_equals_n():
    one_hot = np.zeros((4, 4))
    one_hot[:, 0] = 1.0
    decision = RouterDecision(
        scores=constant(one_hot),
        selected=np.zeros((4, 1), dtype=np.int64),
    )
    loss, stats = balance_loss(decision)
    assert abs(loss.item() - 4.0) <= 1e-9
    np.testing.assert_allclose(stats.f, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_balance_loss_recount_oracle():
    tokens = constant(RngStream(5).uniform(-1, 1, (64, 8)))
    w = _store_with("w", RngStream(6).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, 1)
    loss, _ = balance_loss(decision)
    # independent recomputation from raw counts and column means
    scores = decision.scores.data
    counts = np.array([(decision.selected == n).sum() for n in range(4)], dtype=float)
    expected = float(np.sum((4.0 / (1 * 64) * counts) * scores.mean(axis=0)))
    assert abs(loss.item() - expected) <= 1e-12


def test_balance_loss_permutation_invariant():
    tokens = constant(RngStream(7).uniform(-1, 1, (32, 8)))
    w = _store_with("w", RngStream(8).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, 1)
    base, _ = balance_loss(decision)
    perm = np.array([2, 0, 3, 1])
    inverse = np.argsort(perm)
    permuted = RouterDecision(
        scores=constant(decision.scores.data[:, perm]),
        selected=inverse[decision.selected],
    )
    shuffled, _ = balance_loss(permuted)
    assert abs(base.item() - shuffled.item()) <= 1e-12


def test_balance_loss_empty_decision_rejected():
    decision = RouterDecision(
        scores=constant(np.zeros((0, 4))),
        selected=np.zeros((0, 1), dtype=np.int64),
    )
    with pytest.raises(ContractError):
        balance_loss(decision)


def test_balance_loss_stats_sums():
    tokens = constant(RngStream(9).uniform(-1, 1, (40, 8)))
    w = _store_with("w", RngStream(10).uniform(-1, 1, (8, 4)))
    decision = route(tokens, w, 1)
    _, stats = balance_loss(decision)
    assert abs(stats.f.sum() - 4.0) <= 1e-9
    assert abs(stats.p.sum() - 1.0) <= 1e-9
    assert np.all(stats.f >= 0) and np.all(stats.p >= 0)


def _experts_from_arrays(store, per_expert):
    """One stack per projection, by keyword, from per-expert (w_down, w_gate, w_up) arrays."""
    return {name: store.add(f"e.{name}", np.stack(mats))
            for name, mats in zip(("w_down", "w_gate", "w_up"), zip(*per_expert))}


def _random_experts(store, rng, n):
    return _experts_from_arrays(store, [
        (rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (2, 8)))
        for _ in range(n)
    ])


def _one_expert(tokens, params):
    """A stack of one gated expert applied to every token."""
    rows = tokens.shape[0]
    return routed_experts(tokens, np.zeros(rows, dtype=np.int64), constant(np.ones(rows)),
                          **params)


def test_specific_expert_zero_cases():
    store = ParamStore()
    rng = RngStream(11)
    params = _experts_from_arrays(
        store, [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)), np.zeros((2, 4)))],
    )
    out = _one_expert(constant(rng.uniform(-1, 1, (3, 4))), params)
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    store2 = ParamStore()
    params2 = _experts_from_arrays(
        store2, [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)),
                  rng.uniform(-1, 1, (2, 4)))],
    )
    out2 = _one_expert(constant(np.zeros((3, 4))), params2)
    np.testing.assert_array_equal(out2.data, np.zeros((3, 4)))


def test_specific_expert_hand_oracle():
    store = ParamStore()
    w_gate = np.array([[0.5, 0.0], [0.0, 0.25], [0.25, 0.0], [0.0, 0.5]])
    w_down = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    w_up = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    params = _experts_from_arrays(store, [(w_down, w_gate, w_up)])
    token = np.array([[1.0, 2.0, -1.0, 0.5]])
    out = _one_expert(constant(token), params)
    # hand computation: g = [0.25, 0.75], d = [0, 2.5]
    g1 = _silu(0.75) * 2.5
    np.testing.assert_allclose(out.data, [[0.0, g1, g1, 0.0]], atol=1e-12)


def test_sparse_moe_identical_experts_symmetry():
    store = ParamStore()
    rng = RngStream(12)
    w_down = rng.uniform(-1, 1, (8, 2))
    w_gate = rng.uniform(-1, 1, (8, 2))
    w_up = rng.uniform(-1, 1, (2, 8))
    experts = _experts_from_arrays(store, [(w_down, w_gate, w_up)] * 4)
    w_router = store.add("router", rng.uniform(-1, 1, (8, 4)))
    tokens = constant(rng.uniform(-1, 1, (10, 8)))
    result = sparse_moe(tokens, w_router, 1, **experts)
    single = _one_expert(tokens, _experts_from_arrays(ParamStore(), [(w_down, w_gate, w_up)]))
    expected = single.data * np.take_along_axis(
        result.decision.scores.data, result.decision.selected, 1)
    np.testing.assert_allclose(result.output.data, expected, atol=1e-12)


def test_sparse_moe_dense_evaluation_oracle():
    # brute force: evaluate every expert densely in plain numpy, mask to top-K
    def expert_np(x, p, n):
        return (_silu(x @ p["w_gate"].data[n]) * (x @ p["w_down"].data[n])) @ p["w_up"].data[n]

    for top_k in (1, 2):
        store = ParamStore()
        rng = RngStream(13)
        experts = _random_experts(store, rng, 4)
        w_router = store.add("router", rng.uniform(-1, 1, (8, 4)))
        toks = rng.uniform(-1, 1, (8, 8))
        result = sparse_moe(constant(toks), w_router, top_k, **experts)

        scores = result.decision.scores.data
        expected = np.zeros_like(toks)
        for t in range(8):
            for n in result.decision.selected[t]:
                expected[t] += scores[t, n] * expert_np(toks[t : t + 1], experts, n)[0]
        np.testing.assert_allclose(result.output.data, expected, atol=1e-12)
        assert result.n_expert_evals == 8 * top_k


@pytest.mark.parametrize("top_k", [1, 2])
def test_each_pair_gate_is_its_router_score_and_sends_its_gradient_there(top_k, monkeypatch):
    """Pair (t, n)'s gate is scores[t, n] byte for byte, and the gradient the gates send to
    the scores is zero except at each pair's (t, n), which holds that pair's gradient."""
    moe = importlib.import_module("pairtrack.moe")
    store = ParamStore()
    rng = RngStream(31)
    experts = _random_experts(store, rng, 4)
    w_router = store.add("router", rng.uniform(-1, 1, (8, 4)))
    tokens = constant(rng.uniform(-1, 1, (10, 8)))
    decision = route(tokens, w_router, top_k)
    scores = Tensor(decision.scores.data, requires_grad=True)  # a leaf keeps its gradient
    gates, run_experts = [], moe.routed_experts

    def capture_gate(rows, expert, gate, **weights):
        gates.append(gate)
        return run_experts(rows, expert, gate, **weights)

    monkeypatch.setattr(moe, "route", lambda *args: RouterDecision(scores, decision.selected))
    monkeypatch.setattr(moe, "routed_experts", capture_gate)
    sparse_moe(tokens, w_router, top_k, **experts)
    pairs = sorted(((t, n) for t, picks in enumerate(decision.selected) for n in picks),
                   key=lambda pair: pair[1])  # expert order, token order within an expert
    t_idx, n_idx = np.array(pairs).T
    (gate,) = gates
    assert gate.data.tobytes() == scores.data[t_idx, n_idx].tobytes()
    u = rng.uniform(-1, 1, gate.shape)
    backward(tsum(mul(gate, constant(u))))
    expected = np.zeros(scores.shape)
    expected[t_idx, n_idx] = u
    assert scores.grad.tobytes() == expected.tobytes()


def _per_token_loop(tokens, experts, w_router, k):
    """sparse_moe's output as a sum over each token's picks, one token and one expert at a time."""
    scores = softmax(matmul(tokens, w_router), axis=1)
    picks = np.argsort(-scores.data, axis=1, kind="stable")[:, :k]
    flat_scores = reshape(scores, (scores.size,))
    rows = []
    for t, token_picks in enumerate(picks):
        x, total = gather_rows(tokens, np.array([t])), None
        for n in token_picks:
            w_down, w_gate, w_up = (reshape(gather_rows(experts[name], np.array([n])),
                                            experts[name].shape[1:])
                                    for name in ("w_down", "w_gate", "w_up"))
            gate = gather_rows(flat_scores, np.array([t * scores.shape[1] + n]))
            out = matmul(mul(silu(matmul(x, w_gate)), matmul(x, w_down)), w_up)
            term = scale(out, gate)
            total = term if total is None else add(total, term)
        rows.append(total)
    return concat(rows, axis=0)


experts_and_picks = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


# derandomized and without an example database, so a run of the same tests draws the same examples
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(experts_and_picks, st.integers(1, 3), st.integers(1, 6), st.data())
def test_sparse_moe_matches_a_per_token_loop_over_picks(n_and_k, n_seq, t_count, data):
    n, k = n_and_k
    starved = data.draw(st.integers(0, n - 1), label="expert no pair picks")
    rng = RngStream(data.draw(st.integers(0, 2**16), label="seed"))
    store = ParamStore()
    experts = _random_experts(store, rng, n)
    router = rng.uniform(-1, 1, (8, n))
    router[0, starved] = -100.0  # feature 0 is 1 on every row, so no row ranks it in its top K
    w_router = store.add("router", router)
    values = rng.uniform(-1, 1, (n_seq * t_count, 8))  # the rows of n_seq stacked sequences
    values[:, 0] = 1.0
    u = constant(rng.uniform(-1, 1, values.shape))
    results = []
    for build in (lambda x: sparse_moe(x, w_router, k, **experts).output,
                  lambda x: _per_token_loop(x, experts, w_router, k)):
        store.zero_grad()
        tokens = Tensor(values, requires_grad=True)
        out = build(tokens)
        backward(tsum(mul(out, u)))
        results.append({"output": out.data, "tokens": tokens.grad,
                        **{p.name: p.grad for p in store}})
    got, want = results
    assert starved not in sparse_moe(constant(values), w_router, k, **experts).decision.selected
    assert all(not got[name][starved].any() for name in ("e.w_down", "e.w_gate", "e.w_up"))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert np.max(np.abs(got[name] - value)) <= 1e-12 * np.max(np.abs(value)), name


@pytest.mark.parametrize("n_experts", [2, 4, 8])
def test_sparse_moe_dispatch_count_is_exactly_t(n_experts):
    store = ParamStore()
    rng = RngStream(100 + n_experts)
    experts = _random_experts(store, rng, n_experts)
    w_router = store.add("router", rng.uniform(-1, 1, (8, n_experts)))
    t_count = 23
    result = sparse_moe(constant(rng.uniform(-1, 1, (t_count, 8))), w_router, 1, **experts)
    assert result.n_expert_evals == t_count


def test_sparse_moe_wrong_expert_count():
    experts = _random_experts(ParamStore(), RngStream(28), 3)
    with pytest.raises(ConfigError):
        sparse_moe(constant(np.zeros((2, 8))), _store_with("w", np.zeros((8, 4))), 1, **experts)


def test_dense_shared_identity_subexperts():
    adapter, store = _make_adapter(d=8, g=4, m=3, seed=14)
    store.set_values("adapter.shared.sub", np.hstack([np.eye(2)] * 3))
    tokens = constant(RngStream(15).uniform(-1, 1, (6, 8)))
    out = dense_shared_moe(tokens, **adapter.shared)
    expected = tokens.data @ adapter.shared["w_down"].data @ adapter.shared["w_up"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_dense_shared_zero_up_projection():
    adapter, store = _make_adapter(d=8, g=4, m=2, seed=16)
    store.set_values("adapter.shared.w_up", np.zeros((2, 8)))
    out = dense_shared_moe(constant(RngStream(17).uniform(-1, 1, (5, 8))), **adapter.shared)
    np.testing.assert_array_equal(out.data, np.zeros((5, 8)))


def test_dense_shared_hand_oracle():
    store = ParamStore()
    w_down = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    params = dict(
        w_down=store.add("d", w_down),
        sub=store.add("s", np.hstack([np.eye(2), 2.0 * np.eye(2)])),
        w_router=store.add("r", np.zeros((2, 2))),
        w_up=store.add("u", np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])),
    )
    out = dense_shared_moe(constant([[1.0, 2.0, 3.0, 4.0]]), **params)
    # h = [1, 2]; uniform router; low = 0.5*h + 0.5*2h = 1.5h
    np.testing.assert_allclose(out.data, [[1.5, 3.0, 0.0, 0.0]], atol=1e-14)


def test_dense_shared_matches_per_sub_expert_loop_with_a_random_router():
    adapter, store = _make_adapter(d=12, g=4, m=3, seed=23)
    rng = RngStream(24)
    # a router far from uniform, so each token weighs the sub-experts differently
    store.set_values("adapter.shared.router.w", rng.uniform(-3, 3, (3, 3)))
    shared = adapter.shared
    x = rng.uniform(-1, 1, (9, 12))
    h = x @ shared["w_down"].data
    logits = h @ shared["w_router"].data
    r = np.exp(logits - logits.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    assert np.ptp(r, axis=1).min() > 0.05
    hidden = h.shape[1]
    sub = [shared["sub"].data[:, m * hidden:(m + 1) * hidden] for m in range(3)]  # block m is W_m
    low = np.zeros_like(h)
    for m, w_m in enumerate(sub):
        low += r[:, m:m + 1] * (h @ w_m)
    expected = low @ shared["w_up"].data
    out = dense_shared_moe(constant(x), **shared)
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
    # the oracle tells the mixing order apart: other sub-experts per weight give other rows
    swapped = sum(r[:, m:m + 1] * (h @ sub[(m + 1) % 3]) for m in range(3))
    assert np.abs(swapped @ shared["w_up"].data - expected).max() > 1e-6


def test_a_fresh_adapter_holds_the_draws_of_one_matrix_per_expert_and_sub_expert():
    adapter, store = _make_adapter(d=12, n=3, g=4, m=2, seed=29)
    d, h = 12, 3
    rng = RngStream(29)

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    # the order of a layout with one parameter per expert matrix and per sub-expert
    router = draw((d, 3), d)
    experts = [(draw((d, h), d), draw((d, h), d), draw((h, d), h)) for _ in range(3)]
    shared_down = draw((d, h), d)
    subs = [draw((h, h), h) for _ in range(2)]
    shared_router, shared_up = draw((h, 2), h), draw((h, d), h)
    assert [p.name for p in store] == [
        "adapter.router.w", "adapter.expert.w_down", "adapter.expert.w_gate",
        "adapter.expert.w_up", "adapter.shared.w_down", "adapter.shared.sub",
        "adapter.shared.router.w", "adapter.shared.w_up",
    ]
    assert adapter.w_router.data.tobytes() == router.tobytes()
    for n, (w_down, w_gate, w_up) in enumerate(experts):
        assert adapter.experts["w_down"].data[n].tobytes() == w_down.tobytes()
        assert adapter.experts["w_gate"].data[n].tobytes() == w_gate.tobytes()
        assert adapter.experts["w_up"].data[n].tobytes() == w_up.tobytes()
    shared = adapter.shared
    assert shared["w_down"].data.tobytes() == shared_down.tobytes()
    for m, w_m in enumerate(subs):
        assert shared["sub"].data[:, m * h:(m + 1) * h].tobytes() == w_m.tobytes()
    assert shared["w_router"].data.tobytes() == shared_router.tobytes()
    assert shared["w_up"].data.tobytes() == shared_up.tobytes()


def _zero_adapter(store, prefix="adapter"):
    for p in store:
        if p.name.startswith(prefix):
            store.set_values(p.name, np.zeros(p.shape))


def test_adapter_zero_init_identity_is_exact():
    adapter, store = _make_adapter(d=12, g=4, m=2, seed=18)
    _zero_adapter(store)
    tokens = constant(RngStream(19).uniform(-1, 1, (9, 12)))
    result = adapter(tokens)
    assert np.max(np.abs(result.output.data - tokens.data)) == 0.0


def test_adapter_gradients_match_finite_differences():
    adapter, store = _make_adapter(d=8, n=4, g=4, m=2, seed=20)
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
        assert store[name].grad is not None
    params = [p for p in store if p.grad is not None]
    errors = param_grad_errors(params, lambda: loss_tensor().item(),
                               lambda p: list(range(p.size)), 1e-5)
    for p, err in zip(params, errors):
        assert err <= 1e-4, f"{p.name}: rel err {err:.2e}"


def _recorded_nodes(out):
    """The tape entries reachable from ``out``: one per recorded node backward would run."""
    seen, stack = set(), [out._entry]
    while stack:
        entry = stack.pop()
        if id(entry) not in seen:
            seen.add(id(entry))
            stack.extend(s for s in entry._parents if s is not None and not isinstance(s, Tensor))
    return len(seen)


def test_adapter_tape_size_is_independent_of_expert_counts():
    counts = set()
    for n, m in ((2, 1), (4, 4), (8, 2)):
        adapter, _ = _make_adapter(d=12, n=n, g=4, m=m, seed=24)
        tokens = Tensor(RngStream(25).uniform(-1, 1, (16, 12)), requires_grad=True)
        counts.add(_recorded_nodes(adapter(tokens).output))
    assert counts == {25}, counts


def test_adapter_on_stacked_sequences_matches_each_sequence_alone():
    adapter, _ = _make_adapter(d=12, n=4, k=2, g=4, m=2, seed=26)
    stacked = RngStream(27).uniform(-1, 1, (3, 9, 12))
    together = adapter(constant(stacked))
    assert together.output.shape == (3, 9, 12) and together.balance.shape == (3,)
    # each sequence's pick counts cover its 9 tokens K times
    assert together.stats.counts.shape == (3, 4)
    np.testing.assert_array_equal(together.stats.counts.sum(axis=-1), [9 * 2] * 3)
    for s in range(3):
        alone = adapter(constant(stacked[s]))
        np.testing.assert_allclose(together.output.data[s], alone.output.data, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(together.stats.counts[s], alone.stats.counts)
        # f and p are taken over the sequence's own tokens, so the term is unchanged
        assert together.balance.data[s] == alone.balance.item()


def test_adapter_param_count_matches_walker():
    store = ParamStore()
    MoEAdapter(store, "adapter", RngStream(23), dim=144, hidden=12, n_experts=4, top_k=1,
               n_shared=4)
    walker_total = store.count(lambda p: p.name.startswith("adapter"))
    assert walker_total == adapter_param_count(144, 12, 4, 4)
    d, h = 144, 12
    explicit = 4 * 3 * d * h + d * 4 + (2 * d * h + 4 * h * h + h * 4)
    assert walker_total == explicit


@pytest.mark.parametrize("d", [48, 144, 768])
def test_dense_shared_parameter_efficiency(d):
    full_ffn = 2 * d * d  # two-layer D -> D -> D feed-forward expert, weights only
    assert dense_shared_param_count(d, d // 12, 4) < 0.2 * full_ffn
