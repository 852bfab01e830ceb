"""Feature fusion: multi-level projection, Gram alignment and hypergraph convolution.

Multi-level fusion projects each tapped level through its own matrix and
adds the products, which equals one projection of the concatenated levels
without building that concatenation. The alignment half maps one
modality's tokens through the other modality's Frobenius-normalized Gram
matrix, blends with a learnable scalar, and fuses the two directions
through a fully connected layer. The hypergraph half groups vertices by
epsilon-balls in feature space and applies a residual degree-normalized
convolution.

Features come as one sample's [T, D] tokens or a [..., T, D] stack of
samples, and every leading index is its own sample: one Gram matrix and
norm per sample, one hypergraph per sample. The hypergraph of a stack is
built at once in numpy, off the tape; the convolution is linear for a fixed
hypergraph and runs as one stacked matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericError, ShapeError
from .numerics import (
    Tensor,
    add,
    concat,
    constant,
    matmul,
    mul,
    pow_const,
    reshape,
    scale,
    transpose,
    tsum,
)


@dataclass
class GramBasis:
    """Raw Gram g = k^T k, its Frobenius norm, and the normalized basis.

    For a stack, g and normalized are [..., D, D] and norm has the leading shape.
    """

    g: Tensor
    norm: float | np.ndarray
    normalized: Tensor


@dataclass
class Hypergraph:
    """Binary incidence with one epsilon-ball hyperedge per vertex.

    For a stack, incidence is [..., V, V], d_v and d_e are [..., V] and
    epsilon has the leading shape.
    """

    incidence: np.ndarray
    d_v: np.ndarray
    d_e: np.ndarray
    epsilon: float | np.ndarray


def multi_level_fuse(levels: list[Tensor], weights: list[Tensor]) -> Tensor:
    """Sum over levels of level_l @ W_l: the concatenated levels times the stacked W_l.

    Each level is projected by its own [D, D'] matrix and the products are
    added in level order, so no [..., L*D] concatenation is built.
    """
    if not levels:
        raise ContractError("multi_level_fuse: empty level list")
    if len(weights) != len(levels):
        raise ContractError(
            f"multi_level_fuse: {len(levels)} levels but {len(weights)} weights"
        )
    shape = levels[0].shape
    for lvl in levels[1:]:
        if lvl.shape != shape:
            raise ContractError(
                f"multi_level_fuse: shapes differ: {shape} vs {lvl.shape}"
            )
    fused = matmul(levels[0], weights[0])
    for lvl, w in zip(levels[1:], weights[1:]):
        fused = add(fused, matmul(lvl, w))
    return fused


def gram_basis(k: Tensor) -> GramBasis:
    """Gram matrix of key columns, Frobenius-normalized into a basis map, per sample."""
    if k.ndim < 2 or k.shape[-2] < 1:
        raise ShapeError(f"gram_basis expects [..., T, D] keys with T >= 1, got {k.shape}")
    lead, d = k.shape[:-2], k.shape[-1]
    g = matmul(transpose(k), k)
    norm_sq = tsum(reshape(mul(g, g), lead + (d * d,)), axis=-1)
    norm_value = np.sqrt(norm_sq.data)
    if not np.all(np.isfinite(norm_value)):
        raise NumericError("gram_basis: Gram norm is not finite")
    if not np.all(norm_value > 0.0):
        raise DegenerateInputError("gram_basis: zero-norm Gram (zero key matrix)")
    normalized = scale(g, pow_const(norm_sq, -0.5))
    return GramBasis(g=g, norm=norm_value, normalized=normalized)


def cross_align(k_r: Tensor, k_x: Tensor, *, w_r: Tensor, w_x: Tensor, fc_w: Tensor) -> Tensor:
    """Gram alignment each way, f_x = k_x + w_x * k_x G_r and f_r alike, then concat + FC.

    G_r is the R keys' normalized Gram basis and G_x the X keys'; the two
    [..., T, D] key stacks must share their shape, or a kernel raises ShapeError.
    """
    basis_r = gram_basis(k_r)
    basis_x = gram_basis(k_x)
    f_x = add(k_x, scale(matmul(k_x, basis_r.normalized), w_x))
    f_r = add(k_r, scale(matmul(k_r, basis_x.normalized), w_r))
    return matmul(concat([f_x, f_r], axis=-1), fc_w)


def build_hypergraph(x, epsilon: float | None) -> Hypergraph:
    """One hyperedge per vertex: all vertices strictly within the sample's radius.

    ``x`` is one sample's [V, D] features or a [..., V, D] stack, as a Tensor
    or an array; the structure is discrete and carries no gradient.
    ``epsilon`` is one radius for every sample, or None to pick each
    sample's radius with ``auto_epsilon`` over the same distances.
    """
    values = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if values.ndim < 2 or values.shape[-2] < 1:
        raise ContractError(f"build_hypergraph expects [..., V, D] features, got {values.shape}")
    distances = _pairwise_distances(values)
    if epsilon is None:
        radius = auto_epsilon(distances)
    elif epsilon > 0:
        radius = np.full(values.shape[:-2], float(epsilon))
    else:
        raise ContractError(f"build_hypergraph: epsilon must be positive, got {epsilon}")
    incidence = (distances < radius[..., None, None]).astype(np.int64)
    # column e = ball around vertex e; the diagonal is always 1, so every degree is >= 1
    return Hypergraph(
        incidence=incidence,
        d_v=incidence.sum(axis=-1),
        d_e=incidence.sum(axis=-2),
        epsilon=radius[()],
    )


def _pairwise_distances(values: np.ndarray) -> np.ndarray:
    sq = np.sum(values * values, axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (values @ np.swapaxes(values, -1, -2))
    np.maximum(d2, 0.0, out=d2)  # guard rounding-induced tiny negatives
    diagonal = np.arange(values.shape[-2])
    d2[..., diagonal, diagonal] = 0.0
    return np.sqrt(d2)


def auto_epsilon(distances: np.ndarray) -> np.ndarray:
    """Scale-adaptive ball radius per sample from a [..., V, V] distance matrix.

    The radius is half the mean distance over distinct vertex pairs, and 1
    where that mean is not positive, as for a single vertex.
    """
    v = distances.shape[-1]
    mean_dist = distances.sum(axis=(-2, -1)) / max(v * (v - 1), 1)
    return np.where(mean_dist > 0, 0.5 * mean_dist, 1.0)


def propagation_matrix(hg: Hypergraph) -> np.ndarray:
    """Row-stochastic operator D_v^-1 H D_e^-1 H^T, one per sample."""
    h = hg.incidence.astype(np.float64)
    return (h / hg.d_v[..., :, None]) @ (np.swapaxes(h, -1, -2) / hg.d_e[..., :, None])


def hyperconv(x: Tensor, hg: Hypergraph, *, theta1: Tensor, theta2: Tensor) -> Tensor:
    """Residual hypergraph convolution: x + P x Theta1 Theta2.

    ``x`` is one sample's [V, D] features or a [..., V, D] stack, and ``hg``
    the hypergraph built over the same samples.
    """
    if hg.incidence.shape != x.shape[:-1] + x.shape[-2:-1]:
        raise ShapeError(f"hyperconv: features {x.shape} vs incidence {hg.incidence.shape}")
    p = constant(propagation_matrix(hg))
    propagated = matmul(matmul(matmul(p, x), theta1), theta2)
    return add(x, propagated)
