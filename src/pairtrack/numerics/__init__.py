"""Tensor kernels, reverse-mode differentiation, and their verification tools."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import finite_diff_grad, grad_max_rel_error
from .params import Parameter, ParamStore, fan_in_uniform
from .rng import RngStream
from .tensor import (
    Tensor,
    absolute,
    add,
    add_rowvec,
    attention,
    backward,
    clamp,
    concat,
    constant,
    gather_cols,
    gather_rows,
    linear,
    log,
    matmul,
    maximum,
    mean,
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

__all__ = [
    "Tensor", "Parameter", "ParamStore", "RngStream", "fan_in_uniform",
    "backward", "no_grad", "constant",
    "add", "sub", "mul", "smul", "scale", "maximum", "minimum",
    "reciprocal", "pow_const", "log", "absolute", "clamp",
    "sigmoid", "silu", "softmax", "tsum", "mean",
    "reshape", "transpose", "concat", "slice_cols",
    "gather_rows", "gather_cols", "add_rowvec",
    "matmul", "routed_matmul", "linear", "attention",
    "finite_diff_grad", "grad_max_rel_error",
    "save_checkpoint", "load_checkpoint",
]
