"""Minimal numpy-based deep learning framework (autograd, modules, optim).

Stands in for PyTorch + DGL in this reproduction: reverse-mode autograd
tensors, graph message-passing primitives (gather/scatter/segment ops),
MLP modules, and Adam/SGD optimizers.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from . import kernels
from .kernels import (SegmentSchedule, affine_act, kernel_backend,
                      mlp_chain, use_kernels)
from .dtype import DTYPES, active_dtype, contract_tol, use_dtype
from .arena import (TapeArena, arena_enabled, use_arena, grad_pool_stats,
                    clear_grad_pool)
from .ops import (
    concat,
    stack,
    gather_rows,
    gather_concat,
    gather_add,
    scatter_rows,
    segment_sum,
    segment_max,
    segment_minmax,
    segment_minmax_gate,
    segment_mean,
    batched_outer,
    lut_kron_combine,
    spmm,
    maximum,
    dropout,
    mse_loss,
    l2_loss,
)
from .modules import Module, Linear, MLP, Sequential, ReLU, Sigmoid, Tanh
from .optim import SGD, Adam, clip_grad_norm

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "kernels", "SegmentSchedule", "affine_act", "kernel_backend",
    "mlp_chain", "use_kernels",
    "DTYPES", "active_dtype", "contract_tol", "use_dtype",
    "TapeArena", "arena_enabled", "use_arena", "grad_pool_stats",
    "clear_grad_pool",
    "concat", "stack", "gather_rows", "gather_concat", "gather_add",
    "scatter_rows", "segment_sum", "segment_max", "segment_minmax",
    "segment_minmax_gate", "segment_mean", "batched_outer",
    "lut_kron_combine", "spmm", "maximum", "dropout", "mse_loss", "l2_loss",
    "Module", "Linear", "MLP", "Sequential", "ReLU", "Sigmoid", "Tanh",
    "SGD", "Adam", "clip_grad_norm",
]
