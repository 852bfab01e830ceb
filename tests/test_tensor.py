"""Kernel-level checks: forward values, backward rules, documented error cases."""

import math
import sys
import weakref

import numpy as np
import pytest

from pairtrack.errors import ContractError, ShapeError
from pairtrack.harness.verify import unit_gradient_cases
from pairtrack.numerics import (
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
    linear,
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
    sigmoid,
    silu,
    slice_cols,
    smul,
    softmax,
    sub,
    transpose,
    tsum,
)


def test_matmul_identity():
    rng = RngStream(7)
    m = rng.uniform(-1, 1, (3, 3))
    out = matmul(constant(np.eye(3)), constant(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[0.0], [1.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[2.0], [4.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_stacked_matmul_matches_per_matrix_products():
    rng = RngStream(31)
    a = rng.uniform(-1, 1, (2, 3, 4, 5))
    shared = rng.uniform(-1, 1, (5, 2))
    paired = rng.uniform(-1, 1, (2, 3, 5, 2))
    by_shared = matmul(constant(a), constant(shared)).data
    by_paired = matmul(constant(a), constant(paired)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(by_shared[i, j], a[i, j] @ shared, atol=1e-14)
            np.testing.assert_allclose(by_paired[i, j], a[i, j] @ paired[i, j], atol=1e-14)
    with pytest.raises(ShapeError):
        matmul(constant(a), constant(rng.uniform(-1, 1, (3, 2, 5, 2))))
    with pytest.raises(ShapeError):
        matmul(constant(a[0, 0]), constant(paired))
    np.testing.assert_array_equal(transpose(constant(a)).data, a.swapaxes(-1, -2))
    with pytest.raises(ShapeError):
        transpose(constant(a[0, 0, 0]))


def test_matmul_associativity():
    rng = RngStream(11)
    for _ in range(10):
        a = constant(rng.uniform(-1, 1, (4, 5)))
        b = constant(rng.uniform(-1, 1, (5, 3)))
        c = constant(rng.uniform(-1, 1, (3, 6)))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.max(np.abs(left - right)) <= 1e-10


def test_softmax_uniform_logits():
    out = softmax(constant([[0.0, 0.0, 0.0, 0.0]]), axis=1)
    np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-15)


def test_softmax_scalar_oracle():
    out = softmax(constant([[1.0, 0.0, 0.0, 0.0]]), axis=1)
    e = math.e
    expected = [e / (e + 3), 1 / (e + 3), 1 / (e + 3), 1 / (e + 3)]
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-14)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = RngStream(3)
    x = rng.uniform(-30, 30, (8, 5))
    out = softmax(constant(x), axis=1)
    assert np.all(out.data > 0)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)
    shifted = softmax(constant(x + 123.456), axis=1)
    assert np.max(np.abs(out.data - shifted.data)) <= 1e-12


def test_softmax_invalid_axis():
    with pytest.raises(ShapeError):
        softmax(constant(np.zeros((2, 2))), axis=2)


def _attention_oracle(q, k, v, heads):
    """Multi-head attention from single-head kernels: per-head columns, softmax, concat."""
    d = q.shape[-1] // heads
    q = smul(q, 1.0 / np.sqrt(d))
    outs = []
    for h in range(heads):
        cols = (h * d, (h + 1) * d)
        weights = softmax(matmul(slice_cols(q, *cols), transpose(slice_cols(k, *cols))), axis=-1)
        outs.append(matmul(weights, slice_cols(v, *cols)))
    return concat(outs, axis=-1)


@pytest.mark.parametrize("n_seq", [1, 3])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_head_split_oracle(n_seq, heads):
    for n_tok in (5, 11, 17):
        rng = RngStream(100 * n_seq + 10 * heads + n_tok)
        shape = (n_seq, n_tok, 4 * heads)
        values = [rng.uniform(-2, 2, shape) for _ in range(3)]
        u = rng.uniform(-1, 1, shape)
        grads = []
        for op in (attention, _attention_oracle):
            q, k, v = (Tensor(x, requires_grad=True) for x in values)
            out = op(q, k, v, heads)
            backward(tsum(mul(out, constant(u))))
            grads.append((out.data, q.grad, k.grad, v.grad))
        (out, *kernel), (expected, *oracle) = grads
        np.testing.assert_array_equal(out, expected)
        for got, want in zip(kernel, oracle, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_attention_shape_errors_and_no_grad():
    x = constant(np.zeros((2, 5, 6)))
    with pytest.raises(ShapeError):
        attention(x, x, constant(np.zeros((2, 5, 4))), 2)
    with pytest.raises(ShapeError):
        attention(x, constant(np.zeros((2, 4, 6))), x, 2)
    with pytest.raises(ShapeError):
        attention(x, x, x, 4)  # 6 columns do not split into 4 heads
    row = constant(np.zeros(6))
    with pytest.raises(ShapeError):
        attention(row, row, row, 1)
    q = Tensor(np.ones((2, 5, 6)), requires_grad=True)
    with no_grad():
        out = attention(q, q, q, 2)
    assert out._entry is None and not out.requires_grad
    np.testing.assert_allclose(out.data, 1.0, rtol=0, atol=1e-15)


def test_silu_values():
    assert silu(constant(0.0)).item() == 0.0
    assert abs(silu(constant(1.0)).item() - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
    big = silu(constant(50.0)).item()
    assert abs(big - 50.0) < 1e-12


def test_linear_identity_and_bias():
    x = constant([[1.0, 1.0]])
    w = constant(np.eye(2))
    np.testing.assert_array_equal(linear(x, w).data, x.data)
    w2 = constant([[1.0, 0.0], [0.0, 2.0]])
    b = constant([1.0, 1.0])
    np.testing.assert_array_equal(linear(x, w2, b).data, [[2.0, 3.0]])
    zero = constant(np.zeros((3, 2)))
    np.testing.assert_array_equal(linear(zero, w2, b).data, np.tile(b.data, (3, 1)))


def test_linear_leading_broadcast():
    rng = RngStream(5)
    x = rng.uniform(-1, 1, (2, 3, 4))
    w = rng.uniform(-1, 1, (4, 6))
    out = linear(constant(x), constant(w))
    assert out.shape == (2, 3, 6)
    np.testing.assert_allclose(out.data.reshape(6, 6), x.reshape(6, 4) @ w, atol=0)


def test_routed_matmul_groups_rows_by_weight():
    rng = RngStream(13)
    a = rng.uniform(-1, 1, (5, 3))
    w = Tensor(rng.uniform(-1, 1, (3, 3, 2)), requires_grad=True)
    expert = np.array([2, 0, 2, 2, 0])
    held = sys.getrefcount(w)
    out = routed_matmul(constant(a), w, expert)
    for i, n in enumerate(expert):
        np.testing.assert_allclose(out.data[i], a[i] @ w.data[n], atol=1e-15)
    # the stack is the node's one weight parent, and the tape holds it as its gradient slot
    assert out._entry._parents == (None, w)
    assert sys.getrefcount(w) == held + 1
    backward(tsum(out))
    assert w.grad.shape == (3, 3, 2)
    assert not w.grad[1].any()  # never picked: not run, a zero gradient
    np.testing.assert_allclose(w.grad[0], a[[1, 4]].T @ np.ones((2, 2)), atol=1e-15)
    np.testing.assert_allclose(w.grad[2], a[[0, 2, 3]].T @ np.ones((3, 2)), atol=1e-15)


def test_routed_matmul_shape_and_index_errors():
    a = constant(np.zeros((3, 4)))
    w = constant(np.zeros((2, 4, 2)))
    with pytest.raises(ShapeError):  # one index per row
        routed_matmul(a, w, np.array([0, 1]))
    with pytest.raises(ShapeError):  # inner dimensions disagree
        routed_matmul(a, constant(np.zeros((1, 3, 2))), np.zeros(3))
    with pytest.raises(ShapeError):  # the weights are one [N, K, M] stack
        routed_matmul(a, constant(np.zeros((4, 2))), np.zeros(3))
    with pytest.raises(ShapeError):  # index past the last weight
        routed_matmul(a, w, np.array([0, 2, 1]))
    with pytest.raises(ShapeError):  # negative index
        routed_matmul(a, w, np.array([0, -1, 1]))
    with pytest.raises(ShapeError):  # an empty stack has no weight to pick
        routed_matmul(a, constant(np.zeros((0, 4, 2))), np.zeros(3))


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        linear(constant(np.zeros((2, 3))), constant(np.zeros((4, 5))))


def test_reshape_shape_errors():
    x = constant(np.zeros((2, 4)))
    assert reshape(x, (4, 2)).shape == (4, 2)
    for shape in [(3, 3), (-1, 4), (2, -1, 4)]:  # reshape takes no inferred -1 entry
        with pytest.raises(ShapeError):
            reshape(x, shape)


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(tsum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_quadratic_gives_w():
    w = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    loss = smul(tsum(mul(w, w)), 0.5)
    backward(loss)
    np.testing.assert_allclose(w.grad, w.data, atol=1e-15)


def test_backward_requires_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(w, w))


def test_backward_accumulates_through_shared_subgraph():
    x = Tensor(2.0, requires_grad=True)
    y = add(x, x)
    backward(tsum(mul(y, y)))
    # d/dx (2x)^2 = 8x
    assert abs(float(x.grad) - 16.0) < 1e-12


def test_no_grad_blocks_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = tsum(mul(w, w))
    assert not out.requires_grad and out._entry is None


def test_finite_diff_quadratic():
    f = lambda v: 0.5 * float(np.sum(v * v))
    g = finite_diff_grad(f, np.array([1.0, 2.0, 3.0]), h=1e-5)
    np.testing.assert_allclose(g, [1.0, 2.0, 3.0], atol=1e-9)


def test_finite_diff_constant_function():
    g = finite_diff_grad(lambda v: 3.25, np.ones((2, 2)), h=1e-5)
    np.testing.assert_array_equal(g, np.zeros((2, 2)))


def test_finite_diff_matches_softmax_jacobian_row():
    rng = RngStream(9)
    x = rng.uniform(-2, 2, (5,))
    pick = 2

    def f(v):
        e = np.exp(v - v.max())
        return float((e / e.sum())[pick])

    fd = finite_diff_grad(f, x, h=1e-5)
    e = np.exp(x - x.max())
    y = e / e.sum()
    analytic = y[pick] * (np.eye(5)[pick] - y)
    assert np.max(np.abs(fd - analytic)) <= 1e-6


# --- systematic op-level gradient suite ------------------------------------

def _check_op(build, x_shape, seed, low=-2.0, high=2.0, tol=1e-4):
    """Compare tape gradients against finite differences for one op.

    ``build`` maps a Tensor to a Tensor of any shape; the check contracts
    the output with a fixed random cotangent to obtain a scalar.
    """
    rng = RngStream(seed)
    x0 = rng.uniform(low, high, x_shape)
    x = Tensor(x0, requires_grad=True)
    out = build(x)
    u = RngStream(seed + 1).uniform(-1, 1, out.shape)
    loss = tsum(mul(out, constant(u)))
    backward(loss)
    analytic = x.grad

    def f(v):
        with no_grad():
            return float(np.sum(build(Tensor(v)).data * u))

    fd = finite_diff_grad(f, x0, h=1e-5)
    err = grad_max_rel_error(analytic, fd)
    assert err <= tol, f"gradient mismatch {err:.3e} for {build} at shape {x_shape}"


UNARY_CASES = [
    (lambda x: smul(x, 1.7), (3, 4), (-2, 2)),
    (lambda x: absolute(x), (4, 4), (0.2, 2)),  # away from the kink
    (lambda x: pow_const(x, 2.0), (3, 3), (-2, 2)),
    (lambda x: pow_const(x, 4.0), (3, 3), (-2, 2)),
    (lambda x: log(x), (3, 3), (0.2, 3)),
    (lambda x: reciprocal(x), (3, 3), (0.5, 2)),
    (lambda x: sigmoid(x), (5, 2), (-4, 4)),
    (lambda x: silu(x), (5, 2), (-4, 4)),
    (lambda x: softmax(x, axis=1), (4, 6), (-3, 3)),
    (lambda x: softmax(x, axis=0), (4, 6), (-3, 3)),
    (lambda x: tsum(x, axis=0), (3, 5), (-2, 2)),
    (lambda x: tsum(x), (3, 5), (-2, 2)),
    (lambda x: reshape(x, (10,)), (2, 5), (-2, 2)),
    (lambda x: transpose(x), (3, 4), (-2, 2)),
    (lambda x: slice_cols(x, 1, 3), (4, 5), (-2, 2)),
    (lambda x: clamp(x, -0.5, 0.5), (4, 4), (-2, 2)),
    (lambda x: gather_rows(x, np.array([2, 0, 2, 1])), (4, 3), (-2, 2)),
    (lambda x: routed_matmul(
        x, concat([reshape(s, (1, 4, 4)) for s in (x, transpose(x), constant(np.eye(4)))], 0),
        np.array([2, 0, 1, 0])),
     (4, 4), (-2, 2)),
    (lambda x: gather_cols(x, np.array([[0, 2], [1, 1], [3, 0]])), (3, 4), (-2, 2)),
]


@pytest.mark.parametrize("case", range(len(UNARY_CASES)))
def test_unary_op_gradients(case):
    build, shape, (lo, hi) = UNARY_CASES[case]
    for seed in range(20):
        _check_op(build, shape, seed=100 * case + seed, low=lo, high=hi)


BINARY_BUILDERS = [
    lambda x, c: add(x, c),
    lambda x, c: sub(x, c),
    lambda x, c: mul(x, c),
    lambda x, c: maximum(x, c),
    lambda x, c: minimum(x, c),
]


@pytest.mark.parametrize("which", range(len(BINARY_BUILDERS)))
def test_binary_op_gradients(which):
    op = BINARY_BUILDERS[which]
    for seed in range(20):
        other = RngStream(7000 + seed).uniform(-2, 2, (3, 4))
        _check_op(lambda x: op(x, constant(other)), (3, 4), seed=5000 + 37 * which + seed)


def test_structured_op_gradients():
    for seed in range(20):
        w = RngStream(8000 + seed).uniform(-1, 1, (4, 3))
        _check_op(lambda x: matmul(x, constant(w)), (5, 4), seed=9000 + seed)
        _check_op(lambda x: matmul(constant(w), x), (3, 5), seed=9100 + seed)
        s = RngStream(8100 + seed).uniform(0.5, 2, (6,))
        _check_op(lambda x: scale(x, constant(s)), (6, 3), seed=9200 + seed)
        v = RngStream(8200 + seed).uniform(-1, 1, (3,))
        _check_op(lambda x: add_rowvec(x, constant(v)), (6, 3), seed=9300 + seed)
        _check_op(lambda x: scale(x, constant(1.3)), (4, 2), seed=9400 + seed)
        _check_op(
            lambda x: concat([x, constant(np.ones((4, 2)))], axis=1), (4, 3),
            seed=9500 + seed,
        )


def test_scale_and_scale_rows_factor_gradients():
    # gradient w.r.t. the scaling factors themselves
    for seed in range(10):
        rng = RngStream(400 + seed)
        a = rng.uniform(-2, 2, (5, 3))

        def build_scalar(s):
            return scale(constant(a), reshape(s, ()))

        _check_op(lambda s: build_scalar(s), (1,), seed=600 + seed)

        def build_rows(s):
            return scale(constant(a), s)

        _check_op(build_rows, (5,), seed=700 + seed)


def test_scale_by_a_factor_per_leading_index():
    rng = RngStream(410)
    a = rng.uniform(-2, 2, (3, 4, 2))
    s = rng.uniform(-2, 2, (3,))
    out = scale(constant(a), constant(s))
    np.testing.assert_array_equal(out.data, a * s[:, None, None])
    with pytest.raises(ShapeError):  # the factor must lead a's shape
        scale(constant(a), constant(np.ones(2)))


def _grads_of(build_and_run):
    """Every leaf's gradient after ``build_and_run()``, which returns the leaves."""
    return [None if t.grad is None else t.grad.copy() for t in build_and_run()]


def _aliasing_graphs():
    rng = RngStream(420)
    x0 = rng.uniform(-1, 1, (2, 3))
    u1 = rng.uniform(-1, 1, (2, 3))
    u2 = rng.uniform(-1, 1, (3, 2))
    u3 = rng.uniform(-1, 1, (4, 3))

    def twice_added():
        x = Tensor(x0, requires_grad=True)
        y = add(x, x)
        z = mul(y, constant(u1))
        backward(tsum(z))
        return [x]

    def views():
        # x's first gradient is a view of r's; concat hands it two slices of c's
        x = Tensor(x0, requires_grad=True)
        r = reshape(x, (3, 2))
        c = concat([x, x], axis=0)
        loss = add(tsum(mul(r, constant(u2))), tsum(mul(c, constant(u3))))
        backward(loss)
        return [x]

    def backward_twice():
        # r owns its summed gradient and x's first gradient is a view of it;
        # the rebuilt graph's pass then adds a second contribution to x
        x = Tensor(x0, requires_grad=True)
        for _ in range(2):
            r = reshape(x, (3, 2))
            y = add(r, r)
            backward(tsum(mul(y, constant(u2))))
        return [x]

    def shared_leaf():
        x = Tensor(x0, requires_grad=True)
        first = smul(x, 2.0)
        second = reshape(x, (6,))
        backward(tsum(mul(first, constant(u1))))
        backward(tsum(second))
        return [x]

    return [twice_added, views, backward_twice, shared_leaf]


def test_gradients_that_alias_match_copying_accumulation(monkeypatch):
    import pairtrack.numerics.tensor as tensor_module

    fresh = [_grads_of(graph) for graph in _aliasing_graphs()]

    def copying_accumulate(t, delta):
        # the reference rule: every first gradient is a private copy
        if t is not None:
            t.grad = np.array(delta, dtype=np.float64) if t.grad is None else t.grad + delta

    monkeypatch.setattr(tensor_module, "_accumulate", copying_accumulate)
    reference = [_grads_of(graph) for graph in _aliasing_graphs()]
    for got, want in zip(fresh, reference):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def _small_graph():
    """Leaves x, w and the non-leaf nodes of sum(sigmoid(x @ w) * u), with the loss last."""
    rng = RngStream(430)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    u = rng.uniform(-1, 1, (2, 2))
    h = matmul(x, w)
    s = sigmoid(h)
    p = mul(s, constant(u))
    return (x, w), [h, s, p, tsum(p)], u


def test_backward_consumes_the_tape_and_keeps_leaf_gradients():
    (x, w), nodes, u = _small_graph()
    s = nodes[1].data
    backward(nodes[-1])
    for node in nodes:
        entry = node._entry
        assert node.grad is None and entry.grad is None
        assert entry._parents is None and entry._backward is None
    g_h = u * s * (1.0 - s)  # the closures' arithmetic, in their order
    np.testing.assert_array_equal(x.grad, g_h @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ g_h)


def test_an_entry_holds_its_parents_slots_in_order_and_hands_them_to_its_closure():
    rng = RngStream(435)
    c = rng.uniform(-1, 1, (2, 3))
    w = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    inner = mul(constant(c), w)
    outer = add(inner, w)
    slots = {"inner": inner._entry._parents, "outer": outer._entry._parents}
    # a constant has no slot, a leaf that trains is its own, and a recorded output's is its entry
    assert len(slots["inner"]) == 2 and slots["inner"][0] is None and slots["inner"][1] is w
    assert len(slots["outer"]) == 2
    assert slots["outer"][0] is inner._entry and slots["outer"][1] is w
    received = []
    for name, entry in (("inner", inner._entry), ("outer", outer._entry)):
        def spy(g, *given, name=name, closure=entry._backward):
            received.append((name, given))
            closure(g, *given)

        entry._backward = spy
    backward(tsum(outer))
    assert [name for name, _ in received] == ["outer", "inner"]
    for name, given in received:
        assert len(given) == 2 and all(a is b for a, b in zip(given, slots[name])), name
    np.testing.assert_array_equal(w.grad, c + 1.0)


def test_second_backward_through_a_consumed_tape_raises_and_changes_nothing():
    (x, w), nodes, _ = _small_graph()
    backward(nodes[-1])
    before = [x.grad.tobytes(), w.grad.tobytes()]
    with pytest.raises(ContractError):
        backward(nodes[-1])
    extra = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):  # a new loss on an intermediate of the consumed graph
        backward(tsum(mul(nodes[0], extra)))
    assert [x.grad.tobytes(), w.grad.tobytes()] == before
    assert extra.grad is None


def test_backward_of_a_loss_without_a_tape_raises():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(tsum(constant(np.ones((2, 2)))))
    with no_grad():
        loss = tsum(mul(w, w))
    with pytest.raises(ContractError):
        backward(loss)
    assert w.grad is None


def _gradient_of(build, x0, u, poison, monkeypatch):
    """x's gradient of sum(build(x) * u); with ``poison``, every kernel input of the
    forward, x included, has its ``.data`` rebound to NaNs before the backward."""
    import pairtrack.numerics.tensor as tensor_module

    inputs = []
    record = tensor_module._node

    def recording_node(data, parents, bw):
        inputs.extend(parents)
        return record(data, parents, bw)

    with monkeypatch.context() as patch:
        patch.setattr(tensor_module, "_node", recording_node)
        x = Tensor(x0, requires_grad=True)
        loss = tsum(mul(build(x), constant(u)))
    if poison:
        for t in inputs:
            t.data = np.full(t.shape, np.nan)
    backward(loss)
    return x.grad


@pytest.mark.parametrize("case", unit_gradient_cases(), ids=lambda case: case[0])
def test_backward_reads_only_arrays_captured_at_forward_time(case, monkeypatch):
    _, build, shape, low, high = case
    rng = RngStream(440)
    x0 = rng.uniform(low, high, shape)
    with no_grad():
        u = rng.uniform(-1, 1, build(Tensor(x0)).shape)
    clean = _gradient_of(build, x0, u, False, monkeypatch)
    poisoned = _gradient_of(build, x0, u, True, monkeypatch)
    assert np.all(np.isfinite(clean))
    assert poisoned.tobytes() == clean.tobytes()


def test_the_tape_frees_inputs_that_no_gradient_reads():
    rng = RngStream(450)
    x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    frozen = constant(rng.uniform(-1, 1, (3, 2)))
    trained = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)

    def dropped_input(op):
        """op's output, and a weak reference to its intermediate input's array."""
        h = smul(x, 2.0)
        return op(h), weakref.ref(h.data)

    by_add, add_in = dropped_input(lambda h: add(h, constant(np.ones((4, 3)))))
    by_frozen, frozen_in = dropped_input(lambda h: matmul(h, frozen))
    by_trained, trained_in = dropped_input(lambda h: matmul(h, trained))
    # add's gradient reads no input, and a frozen weight needs none, so neither keeps its
    # input; a trainable weight's gradient reads the input rows
    assert (add_in(), frozen_in()) == (None, None)
    rows = trained_in()
    assert rows is not None
    np.testing.assert_array_equal(rows, 2.0 * x.data)
    backward(add(add(tsum(by_add), tsum(by_frozen)), tsum(by_trained)))
    np.testing.assert_array_equal(trained.grad, rows.T @ np.ones((4, 2)))
    del rows
    assert trained_in() is None  # the walk let go of it


def test_finite_outputs_on_extreme_logits():
    x = constant([[1e4, -1e4, 0.0]])
    out = softmax(x, axis=1)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(sigmoid(constant(np.array([800.0, -800.0]))).data))
    assert np.all(np.isfinite(silu(constant(np.array([800.0, -800.0]))).data))
