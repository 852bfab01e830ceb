"""Tensor kernels, reverse-mode differentiation, and their verification tools."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import finite_diff_grad, grad_max_rel_error
from .params import Parameter, ParamStore, fan_in_uniform
from .rng import RngStream
from .tensor import (
    Tensor,
    add,
    add_rowvec,
    attention,
    backward,
    concat,
    constant,
    gather_rows,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    pow_const,
    reciprocal,
    reshape,
    routed_matmul,
    scale,
    select,
    sigmoid,
    silu,
    slice_cols,
    softmax,
    sub,
    transpose,
    tsum,
)

__all__ = [
    "Tensor", "Parameter", "ParamStore", "RngStream", "fan_in_uniform",
    "backward", "no_grad", "constant",
    "add", "sub", "mul", "scale", "select",
    "reciprocal", "pow_const", "log",
    "sigmoid", "silu", "softmax", "tsum", "mean",
    "reshape", "transpose", "concat", "slice_cols",
    "gather_rows", "add_rowvec",
    "matmul", "routed_matmul", "attention",
    "finite_diff_grad", "grad_max_rel_error",
    "save_checkpoint", "load_checkpoint",
]
