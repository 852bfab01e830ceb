"""Kernel-level checks: forward values, backward rules, documented error cases."""

import math

import numpy as np
import pytest

from pairtrack.errors import ContractError, ShapeError
from pairtrack.numerics import (
    RngStream,
    Tensor,
    absolute,
    add,
    add_rowvec,
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
    weights = [Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for _ in range(3)]
    expert = np.array([2, 0, 2, 2, 0])
    out = routed_matmul(constant(a), weights, expert)
    for i, n in enumerate(expert):
        np.testing.assert_allclose(out.data[i], a[i] @ weights[n].data, atol=1e-15)
    backward(tsum(out))
    assert weights[1].grad is None  # never picked: not run, not a parent
    assert weights[1] not in out._parents
    np.testing.assert_allclose(weights[0].grad, a[[1, 4]].T @ np.ones((2, 2)), atol=1e-15)


def test_routed_matmul_shape_and_index_errors():
    a = constant(np.zeros((3, 4)))
    w = [constant(np.zeros((4, 2))), constant(np.zeros((4, 2)))]
    with pytest.raises(ShapeError):  # one index per row
        routed_matmul(a, w, np.array([0, 1]))
    with pytest.raises(ShapeError):  # inner dimensions disagree
        routed_matmul(a, [constant(np.zeros((3, 2)))], np.zeros(3))
    with pytest.raises(ShapeError):  # weights must share one shape
        routed_matmul(a, [w[0], constant(np.zeros((4, 3)))], np.zeros(3))
    with pytest.raises(ShapeError):  # index past the last weight
        routed_matmul(a, w, np.array([0, 2, 1]))
    with pytest.raises(ShapeError):  # negative index
        routed_matmul(a, w, np.array([0, -1, 1]))
    with pytest.raises(ContractError):
        routed_matmul(a, [], np.zeros(3))


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        linear(constant(np.zeros((2, 3))), constant(np.zeros((4, 5))))


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
    assert not out.requires_grad and out._backward is None


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
    (lambda x: routed_matmul(x, [x, transpose(x), constant(np.eye(4))], np.array([2, 0, 1, 0])),
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
        _check_op(lambda x: scale_rows(x, constant(s)), (6, 3), seed=9200 + seed)
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
            return scale_rows(constant(a), s)

        _check_op(build_rows, (5,), seed=700 + seed)


def test_finite_outputs_on_extreme_logits():
    x = constant([[1e4, -1e4, 0.0]])
    out = softmax(x, axis=1)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(sigmoid(constant(np.array([800.0, -800.0]))).data))
    assert np.all(np.isfinite(silu(constant(np.array([800.0, -800.0]))).data))
