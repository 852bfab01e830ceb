"""Gram alignment, multi-level fusion, and hypergraph convolution checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pairtrack.errors import ContractError, DegenerateInputError, NumericError, ShapeError
from pairtrack.fusion import (
    AlignWeights,
    HyperConvParams,
    ModalityKeys,
    auto_epsilon,
    build_hypergraph,
    cross_align,
    gram_basis,
    hyperconv,
    multi_level_fuse,
    propagation_matrix,
)
from pairtrack.harness.verify import param_grad_errors
from pairtrack.numerics import (
    ParamStore,
    RngStream,
    Tensor,
    backward,
    concat,
    constant,
    matmul,
    mul,
    tsum,
)


def test_multi_level_fuse_single_level_identity():
    x = constant(RngStream(1).uniform(-1, 1, (5, 3)))
    out = multi_level_fuse([x], [constant(np.eye(3))])
    np.testing.assert_array_equal(out.data, x.data)


def test_multi_level_fuse_selector_weights():
    rng = RngStream(2)
    a = constant(rng.uniform(-1, 1, (4, 3)))
    b = constant(rng.uniform(-1, 1, (4, 3)))
    out = multi_level_fuse([a, b], [constant(np.eye(3)), constant(np.zeros((3, 3)))])
    np.testing.assert_allclose(out.data, a.data, atol=1e-15)


def _concat_fuse(levels, weights):
    """The fusion as one matmul of the feature-concatenated levels by the stacked weights."""
    return matmul(concat(levels, axis=-1), concat(weights, axis=0))


def test_multi_level_fuse_matches_concat_matmul_oracle():
    """Values and gradients; with prefix constants as levels only the weights take a
    gradient, as when the level taps sit in the cached frozen prefix."""
    rng = RngStream(3)
    level_values = [rng.uniform(-1, 1, (2, 6, 4)) for _ in range(3)]
    weight_values = [rng.uniform(-1, 1, (4, 5)) for _ in range(3)]
    u = constant(rng.uniform(-1, 1, (2, 6, 5)))
    for frozen_levels in (False, True):
        results = []
        for fuse in (multi_level_fuse, _concat_fuse):
            levels = [Tensor(x, requires_grad=not frozen_levels) for x in level_values]
            weights = [Tensor(w, requires_grad=True) for w in weight_values]
            out = fuse(levels, weights)
            backward(tsum(mul(out, u)))
            results.append((out.data, [t.grad for t in levels + weights]))
        (out, grads), (expected, oracle) = results
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert all(g is None for g in grads[:3]) == frozen_levels
        for got, want in zip(grads, oracle, strict=True):
            if want is None:
                assert got is None
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_multi_level_fuse_contract_errors():
    with pytest.raises(ContractError):
        multi_level_fuse([], [])
    with pytest.raises(ContractError):
        multi_level_fuse(
            [constant(np.zeros((2, 2))), constant(np.zeros((3, 2)))],
            [constant(np.eye(2)), constant(np.eye(2))],
        )
    with pytest.raises(ContractError):  # one weight per level
        multi_level_fuse([constant(np.zeros((2, 2)))] * 2, [constant(np.eye(2))])


def test_gram_basis_identity_keys():
    basis = gram_basis(constant(np.eye(3)))
    np.testing.assert_allclose(basis.g.data, np.eye(3), atol=1e-15)
    assert abs(basis.norm - np.sqrt(3)) < 1e-12
    np.testing.assert_allclose(basis.normalized.data, np.eye(3) / np.sqrt(3), atol=1e-14)


def test_gram_basis_hand_oracle():
    basis = gram_basis(constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(basis.g.data, [[10.0, 14.0], [14.0, 20.0]], atol=1e-12)


def test_gram_is_symmetric_psd():
    for seed in range(10):
        k = constant(RngStream(100 + seed).uniform(-2, 2, (6, 4)))
        basis = gram_basis(k)
        g = basis.g.data
        assert np.max(np.abs(g - g.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-10


def test_gram_basis_degenerate_input():
    with pytest.raises(DegenerateInputError):
        gram_basis(constant(np.zeros((4, 3))))


def test_gram_basis_non_finite_norm_is_a_numeric_failure():
    keys = np.ones((4, 3))
    keys[1, 2] = np.nan
    with pytest.raises(NumericError):
        gram_basis(constant(keys))


def test_gram_basis_on_a_stack_equals_per_sample_calls():
    keys = RngStream(23).uniform(-1, 1, (3, 5, 4))
    basis = gram_basis(constant(keys))
    assert basis.normalized.shape == (3, 4, 4) and basis.norm.shape == (3,)
    for i in range(3):
        alone = gram_basis(constant(keys[i]))
        np.testing.assert_array_equal(basis.g.data[i], alone.g.data)
        np.testing.assert_array_equal(basis.normalized.data[i], alone.normalized.data)
        assert basis.norm[i] == alone.norm
    for i in range(3):
        zeroed = keys.copy()
        zeroed[i] = 0.0  # one degenerate sample fails the whole stack
        with pytest.raises(DegenerateInputError):
            gram_basis(constant(zeroed))


def test_isotropic_gram_basis_maps_by_a_scalar_multiple():
    """The Gram map: k times the other modality's normalized Gram basis, as in cross_align."""
    basis = gram_basis(constant(np.sqrt(2.0) * np.eye(2)))
    src = constant(RngStream(5).uniform(-1, 1, (3, 2)))
    out = matmul(src, basis.normalized)
    # g = 2I, |g|_F = 2*sqrt(2), normalized = I/sqrt(2)
    np.testing.assert_allclose(out.data, src.data / np.sqrt(2), atol=1e-14)


def test_gram_basis_of_one_key_column_is_identity():
    # one key column: g = [[2]], |g|_F = 2, so the normalized basis is exactly [[1]]
    basis = gram_basis(constant(np.ones((2, 1))))
    src = constant(RngStream(6).uniform(-1, 1, (4, 1)))
    np.testing.assert_array_equal(matmul(src, basis.normalized).data, src.data)


def test_gram_basis_map_matches_direct_recomputation():
    rng = RngStream(7)
    k = rng.uniform(-1, 1, (5, 3))
    src = rng.uniform(-1, 1, (5, 3))
    out = matmul(constant(src), gram_basis(constant(k)).normalized)
    g = k.T @ k
    expected = src @ (g / np.linalg.norm(g))
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_cross_align_blend_cases():
    """cross_align blends each modality's keys with their Gram map by that direction's scalar."""
    store, keys, weights, fc_w = _align_setup(8, zero_weights=True)
    # zero blend weights leave the keys: the FC of the concatenated keys, byte for byte
    plain = matmul(concat([keys.k_x, keys.k_r], axis=-1), fc_w)
    assert cross_align(keys, weights, fc_w).data.tobytes() == plain.data.tobytes()
    d = keys.k_r.shape[1]
    kr, kx = keys.k_r.data, keys.k_x.data
    store.set_values("w_x", np.asarray(0.5))
    store.set_values("w_r", np.asarray(-1.5))
    for selector, own, other, w in ((np.vstack([np.eye(d), np.zeros((d, d))]), kx, kr, 0.5),
                                    (np.vstack([np.zeros((d, d)), np.eye(d)]), kr, kx, -1.5)):
        g = other.T @ other
        out = cross_align(keys, weights, constant(selector))
        np.testing.assert_allclose(out.data, own + w * (own @ (g / np.linalg.norm(g))),
                                   rtol=0, atol=1e-14)


def _align_setup(seed, t=5, d=3, zero_weights=False):
    rng = RngStream(seed)
    store = ParamStore()
    keys = ModalityKeys(
        k_r=constant(rng.uniform(-1, 1, (t, d))),
        k_x=constant(rng.uniform(-1, 1, (t, d))),
    )
    if zero_weights:
        weights = AlignWeights(
            w_r=store.zeros_init("w_r", ()), w_x=store.zeros_init("w_x", ())
        )
    else:
        weights = AlignWeights(
            w_r=store.add("w_r", rng.uniform(-1, 1, ())),
            w_x=store.add("w_x", rng.uniform(-1, 1, ())),
        )
    fc_w = store.add("fc_w", rng.uniform(-1, 1, (2 * d, d)))
    return store, keys, weights, fc_w


def test_cross_align_disabled_alignment_averaging_selector():
    store, keys, weights, _ = _align_setup(9, zero_weights=True)
    d = keys.k_r.shape[1]
    averaging = np.vstack([np.eye(d), np.eye(d)]) / 2.0
    out = cross_align(keys, weights, constant(averaging))
    np.testing.assert_allclose(out.data, (keys.k_r.data + keys.k_x.data) / 2, atol=1e-14)


def test_cross_align_modality_symmetry():
    rng = RngStream(10)
    store = ParamStore()
    k = constant(rng.uniform(-1, 1, (4, 3)))
    keys = ModalityKeys(k_r=k, k_x=k)
    w = store.add("w", rng.uniform(-1, 1, ()))
    # an identity FC returns [f_x, f_r]; equal keys and blend weights make the halves equal
    out = cross_align(keys, AlignWeights(w_r=w, w_x=w), constant(np.eye(6)))
    np.testing.assert_array_equal(out.data[:, :3], out.data[:, 3:])


def test_cross_align_composition_oracle():
    store, keys, weights, fc_w = _align_setup(11)
    out = cross_align(keys, weights, fc_w)
    # step-by-step recomputation in plain numpy
    kr, kx = keys.k_r.data, keys.k_x.data
    gr = kr.T @ kr
    gx = kx.T @ kx
    f_x = kx + float(weights.w_x.data) * (kx @ (gr / np.linalg.norm(gr)))
    f_r = kr + float(weights.w_r.data) * (kr @ (gx / np.linalg.norm(gx)))
    expected = np.concatenate([f_x, f_r], axis=1) @ fc_w.data
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_cross_align_degenerate_keys():
    store, keys, weights, fc_w = _align_setup(12)
    bad = ModalityKeys(k_r=constant(np.zeros((5, 3))), k_x=keys.k_x)
    with pytest.raises(DegenerateInputError):
        cross_align(bad, weights, fc_w)


def test_build_hypergraph_three_point_hand_case():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    hg = build_hypergraph(pts, epsilon=2.0)
    expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(hg.incidence, expected)
    np.testing.assert_array_equal(hg.d_v, [2, 2, 1])
    np.testing.assert_array_equal(hg.d_e, [2, 2, 1])
    assert hg.incidence.shape[1] == 3  # |E| = |V|


def test_build_hypergraph_isolated_and_complete():
    pts = RngStream(13).uniform(-1, 1, (6, 3))
    dists = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    tiny = 0.5 * dists[dists > 0].min()
    hg = build_hypergraph(pts, tiny)
    np.testing.assert_array_equal(hg.incidence, np.eye(6, dtype=np.int64))
    np.testing.assert_array_equal(hg.d_v, np.ones(6))
    huge = 2.0 * dists.max()
    hg2 = build_hypergraph(pts, huge)
    np.testing.assert_array_equal(hg2.incidence, np.ones((6, 6), dtype=np.int64))
    np.testing.assert_array_equal(hg2.d_e, np.full(6, 6))


def test_build_hypergraph_epsilon_contract():
    with pytest.raises(ContractError):
        build_hypergraph(np.zeros((3, 2)), 0.0)
    with pytest.raises(ContractError):
        build_hypergraph(np.zeros((3, 2)), -1.0)


def _distances(pts):
    return np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))


def test_auto_epsilon():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert abs(auto_epsilon(_distances(pts)) - 1.0) < 1e-12
    assert auto_epsilon(_distances(np.zeros((3, 2)))) == 1.0  # degenerate fallback
    assert auto_epsilon(_distances(np.zeros((1, 2)))) == 1.0


def test_propagation_matrix_row_stochastic_over_random_instances():
    for seed in range(100):
        rng = RngStream(2000 + seed)
        v = int(rng.integers(1, 12, ()))
        pts = rng.uniform(-1, 1, (v, 3))
        eps = float(rng.uniform(0.05, 3.0, ()))
        hg = build_hypergraph(pts, eps)
        p = propagation_matrix(hg)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10


def _conv_params(store, d, rng=None, zero_theta2=False, identity=False):
    if identity:
        t1 = store.add("theta1", np.eye(d))
        t2 = store.add("theta2", np.eye(d))
    else:
        t1 = store.add("theta1", rng.uniform(-1, 1, (d, d)))
        if zero_theta2:
            t2 = store.zeros_init("theta2", (d, d))
        else:
            t2 = store.add("theta2", rng.uniform(-1, 1, (d, d)))
    return HyperConvParams(theta1=t1, theta2=t2)


def test_hyperconv_zero_theta2_residual_identity_exact():
    rng = RngStream(14)
    x = constant(rng.uniform(-1, 1, (5, 4)))
    hg = build_hypergraph(x, None)
    params = _conv_params(ParamStore(), 4, rng, zero_theta2=True)
    out = hyperconv(x, hg, params)
    assert np.max(np.abs(out.data - x.data)) == 0.0


def test_hyperconv_single_vertex_identity_theta_doubles():
    x = constant([[1.0, -2.0, 3.0]])
    hg = build_hypergraph(x, 1.0)
    params = _conv_params(ParamStore(), 3, identity=True)
    np.testing.assert_allclose(hyperconv(x, hg, params).data, 2.0 * x.data, atol=1e-14)


def test_hyperconv_matrix_chain_oracle():
    rng = RngStream(15)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    hg = build_hypergraph(pts, 2.0)
    x = rng.uniform(-1, 1, (3, 2))
    params = _conv_params(ParamStore(), 2, rng)
    out = hyperconv(constant(x), hg, params)
    h = hg.incidence.astype(float)
    chain = np.diag(1.0 / hg.d_v) @ h @ np.diag(1.0 / hg.d_e) @ h.T
    expected = x + chain @ x @ params.theta1.data @ params.theta2.data
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_hyperconv_constant_features_double():
    rng = RngStream(16)
    x_row = rng.uniform(-1, 1, (4,))
    x = constant(np.tile(x_row, (7, 1)))
    hg = build_hypergraph(rng.uniform(-1, 1, (7, 4)), 1.5)
    params = _conv_params(ParamStore(), 4, identity=True)
    out = hyperconv(x, hg, params)
    assert np.max(np.abs(out.data - 2.0 * x.data)) <= 1e-10


def test_hyperconv_permutation_equivariance():
    rng = RngStream(17)
    x = rng.uniform(-1, 1, (8, 3))
    params = _conv_params(ParamStore(), 3, rng)
    eps = 1.2
    base = hyperconv(constant(x), build_hypergraph(x, eps), params)
    order = np.argsort(RngStream(19).uniform(0, 1, (8,)))
    permuted = hyperconv(constant(x[order]), build_hypergraph(x[order], eps), params)
    assert np.max(np.abs(permuted.data - base.data[order])) <= 1e-12


def test_stacked_fusion_equals_per_sample_calls():
    rng = RngStream(24)
    store, _, weights, fc_w = _align_setup(25, t=6, d=4)
    k_r, k_x = rng.uniform(-1, 1, (3, 6, 4)), rng.uniform(-1, 1, (3, 6, 4))
    aligned = cross_align(ModalityKeys(k_r=constant(k_r), k_x=constant(k_x)), weights, fc_w)
    graph = build_hypergraph(aligned, None)
    params = _conv_params(store, 4, rng)
    out = hyperconv(aligned, graph, params)
    assert out.shape == (3, 6, 4) and graph.incidence.shape == (3, 6, 6)
    for i in range(3):
        alone = cross_align(ModalityKeys(k_r=constant(k_r[i]), k_x=constant(k_x[i])),
                            weights, fc_w)
        np.testing.assert_allclose(aligned.data[i], alone.data, rtol=0, atol=1e-14)
        expected = hyperconv(alone, build_hypergraph(aligned.data[i], None), params)
        np.testing.assert_allclose(out.data[i], expected.data, rtol=0, atol=1e-14)
    with pytest.raises(ShapeError):  # one hypergraph per sample
        hyperconv(aligned, build_hypergraph(aligned.data[:2], None), params)


# derandomized and without an example database, so a run of the same tests draws the same examples
HYPERGRAPH_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                               max_examples=60)
feature_stacks = array_shapes(min_dims=0, max_dims=2, max_side=3).flatmap(
    lambda lead: st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
        lambda vd: arrays(np.float64, lead + vd, elements=st.floats(-4.0, 4.0))))
radii = st.none() | st.floats(1e-3, 8.0)


@HYPERGRAPH_SETTINGS
@given(feature_stacks, radii)
def test_hypergraph_invariants_on_random_stacks(x, epsilon):
    hg = build_hypergraph(x, epsilon)
    h = hg.incidence
    assert h.shape == x.shape[:-1] + x.shape[-2:-1]
    assert np.all(np.diagonal(h, axis1=-2, axis2=-1) == 1)
    np.testing.assert_array_equal(h, np.swapaxes(h, -1, -2))
    np.testing.assert_array_equal(hg.d_v, h.sum(axis=-1))
    np.testing.assert_array_equal(hg.d_e, h.sum(axis=-2))
    assert np.all(hg.d_v >= 1) and np.all(hg.d_e >= 1)
    assert np.max(np.abs(propagation_matrix(hg).sum(axis=-1) - 1.0)) <= 1e-12


@HYPERGRAPH_SETTINGS
@given(feature_stacks, radii)
def test_stacked_hypergraph_equals_one_sample_builds(x, epsilon):
    hg = build_hypergraph(x, epsilon)
    p = propagation_matrix(hg)
    assert np.shape(hg.epsilon) == x.shape[:-2]
    for index in np.ndindex(x.shape[:-2]):
        alone = build_hypergraph(x[index], epsilon)
        assert np.asarray(hg.epsilon)[index] == alone.epsilon
        np.testing.assert_array_equal(hg.incidence[index], alone.incidence)
        np.testing.assert_array_equal(hg.d_v[index], alone.d_v)
        np.testing.assert_array_equal(hg.d_e[index], alone.d_e)
        np.testing.assert_array_equal(p[index], propagation_matrix(alone))


def test_gsahf_zero_init_path_reduces_to_concat_fc():
    rng = RngStream(20)
    store = ParamStore()
    keys = ModalityKeys(
        k_r=constant(rng.uniform(-1, 1, (6, 4))),
        k_x=constant(rng.uniform(-1, 1, (6, 4))),
    )
    weights = AlignWeights(
        w_r=store.zeros_init("w_r", ()), w_x=store.zeros_init("w_x", ())
    )
    fc_w = store.add("fc_w", rng.uniform(-1, 1, (8, 4)))
    aligned = cross_align(keys, weights, fc_w)
    hg = build_hypergraph(aligned, None)
    params = _conv_params(store, 4, rng, zero_theta2=True)
    out = hyperconv(aligned, hg, params)
    plain = np.concatenate([keys.k_x.data, keys.k_r.data], axis=1) @ fc_w.data
    assert np.max(np.abs(out.data - plain)) <= 1e-12


def test_fusion_gradients_match_finite_differences():
    rng = RngStream(21)
    store = ParamStore()
    keys = ModalityKeys(
        k_r=constant(rng.uniform(-1, 1, (5, 3))),
        k_x=constant(rng.uniform(-1, 1, (5, 3))),
    )
    weights = AlignWeights(
        w_r=store.add("w_r", rng.uniform(-0.5, 0.5, ())),
        w_x=store.add("w_x", rng.uniform(-0.5, 0.5, ())),
    )
    fc_w = store.add("fc_w", rng.uniform(-1, 1, (6, 3)))
    conv = _conv_params(store, 3, rng)
    u = rng.uniform(-1, 1, (5, 3))
    eps = 1.0

    def loss_tensor():
        aligned = cross_align(keys, weights, fc_w)
        hg = build_hypergraph(aligned, eps)
        return tsum(mul(hyperconv(aligned, hg, conv), constant(u)))

    store.zero_grad()
    backward(loss_tensor())
    params = list(store)
    errors = param_grad_errors(params, lambda: loss_tensor().item(),
                               lambda p: list(range(p.size)), 1e-5)
    for p, err in zip(params, errors):
        assert err <= 1e-4, f"{p.name}: rel err {err:.2e}"
