"""Graph and structural operations for the autograd tensor.

These are the operations DGL would normally provide: message gathering
(`gather_rows`), functional node updates (`scatter_rows`), segment
reductions over edge groups (`segment_sum` / `segment_max`), the batched
outer product used by the paper's Kronecker LUT-interpolation module, and
sparse-dense matmul for the GCNII baseline.

Each segment/gather op dispatches on the active kernel backend (see
:mod:`repro.nn.kernels`): the default ``fused`` backend uses sorted-CSR
``reduceat`` kernels and fused tape nodes, while ``use_kernels("naive")``
selects the reference ``np.add.at`` / ``np.maximum.at`` implementations
below, preserved verbatim for differential testing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import kernels
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "concat",
    "stack",
    "gather_rows",
    "gather_concat",
    "gather_add",
    "scatter_rows",
    "segment_sum",
    "segment_max",
    "segment_minmax",
    "segment_minmax_gate",
    "segment_mean",
    "batched_outer",
    "lut_kron_combine",
    "spmm",
    "maximum",
    "dropout",
    "mse_loss",
    "l2_loss",
]


def concat(tensors, axis=-1):
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._make(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def stack(tensors, axis=0):
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(np.stack([t.data for t in tensors], axis=axis),
                        tuple(tensors), backward)


def gather_rows(t, index, schedule=None):
    """Select rows ``t[index]`` (edges gathering endpoint features).

    ``schedule`` is an optional :class:`~repro.nn.kernels.SegmentSchedule`
    for ``index``; the fused backend uses it to turn the duplicate-index
    gradient scatter into a pre-sorted ``reduceat``.
    """
    if kernels.is_fused():
        return kernels.gather_rows_csr(t, index, schedule=schedule)
    index = np.asarray(index, dtype=np.int64)
    a = t

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            a._accumulate(full)

    return Tensor._make(a.data[index], (a,), backward)


def gather_concat(tensors, indices, schedules=None):
    """Fused gather-then-concat of edge inputs along axis 1.

    ``indices[k]`` indexes rows of ``tensors[k]`` (``None`` = already
    row-aligned).  The fused backend assembles the result with a single
    copy and one tape node; the naive backend is the equivalent
    ``concat([gather_rows(t, i), ...])`` chain.
    """
    if kernels.is_fused():
        return kernels.gather_concat(tensors, indices, schedules=schedules)
    parts = []
    for k, (t, i) in enumerate(zip(tensors, indices)):
        t = t if isinstance(t, Tensor) else Tensor(t)
        sched = schedules[k] if schedules is not None else None
        parts.append(t if i is None else gather_rows(t, i, schedule=sched))
    return concat(parts)


def gather_add(t, index, addend, schedule=None):
    """Fused ``t[index] + addend`` — the arrival-update pattern.

    The fused backend runs gather and add as one tape node with a CSR
    gradient scatter; the naive path is the reference
    ``gather_rows(t, index) + addend`` composition.
    """
    if kernels.is_fused():
        return kernels.gather_add_csr(t, index, addend, schedule=schedule)
    return gather_rows(t, index, schedule=schedule) + addend


def scatter_rows(t, index, values):
    """Return a copy of ``t`` with ``t[index] = values`` (functional update).

    ``index`` must not contain duplicates; this is the levelized update of
    the delay-propagation model where each node is written exactly once.
    """
    index = np.asarray(index, dtype=np.int64)
    if len(np.unique(index)) != len(index):
        raise ValueError("scatter_rows requires unique row indices")
    a, v = t, values
    out = a.data.copy()
    out[index] = v.data

    def backward(g):
        if a.requires_grad:
            masked = g.copy()
            masked[index] = 0.0
            a._accumulate(masked)
        if v.requires_grad:
            v._accumulate(g[index])

    return Tensor._make(out, (a, v), backward)


def segment_sum(t, segment_ids, num_segments, schedule=None):
    """Sum rows of ``t`` grouped by ``segment_ids`` into ``num_segments`` rows."""
    if kernels.is_fused():
        return kernels.segment_sum_csr(t, segment_ids, num_segments,
                                       schedule=schedule)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    a = t
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=a.data.dtype)
    np.add.at(out, segment_ids, a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[segment_ids])

    return Tensor._make(out, (a,), backward)


def segment_max(t, segment_ids, num_segments, schedule=None):
    """Max-reduce rows of ``t`` by segment.  Empty segments yield zeros.

    Gradient is split evenly between tied maxima within a segment.
    """
    if kernels.is_fused():
        return kernels.segment_max_csr(t, segment_ids, num_segments,
                                       schedule=schedule)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    a = t
    out = np.full((num_segments,) + a.data.shape[1:], -np.inf, dtype=a.data.dtype)
    np.maximum.at(out, segment_ids, a.data)
    empty = ~np.isfinite(out)
    out = np.where(empty, 0.0, out)
    mask = (a.data == out[segment_ids]).astype(a.data.dtype)
    counts = np.zeros_like(out)
    np.add.at(counts, segment_ids, mask)

    def backward(g):
        if a.requires_grad:
            denom = np.maximum(counts, 1.0)
            a._accumulate(mask * (g / denom)[segment_ids])

    return Tensor._make(out, (a,), backward)


def segment_minmax(t, segment_ids, num_segments, schedule=None):
    """Per-segment (max, min) pair; empty segments yield zeros in both.

    The fused backend sorts once and runs both ``reduceat`` sweeps over
    the same layout; the naive path is the reference two-pass
    ``segment_max`` / negated ``segment_max`` construction.
    """
    if kernels.is_fused():
        return kernels.segment_minmax_csr(t, segment_ids, num_segments,
                                          schedule=schedule)
    agg_max = segment_max(t, segment_ids, num_segments)
    agg_min = segment_max(t * -1.0, segment_ids, num_segments) * -1.0
    return agg_max, agg_min


def segment_minmax_gate(t, segment_ids, num_segments, gate_logits,
                        schedule=None):
    """Late/early fanin aggregation ``max*g + min*(1-g)``, gated per
    channel by ``g = sigmoid(gate_logits)``.

    The fused backend runs extrema, gate, and mix as one tape node; the
    naive path is the reference ``segment_minmax`` + sigmoid-gate
    composition used by the delay-propagation model.
    """
    if kernels.is_fused():
        return kernels.segment_minmax_gate_csr(
            t, segment_ids, num_segments, gate_logits, schedule=schedule)
    agg_max, agg_min = segment_minmax(t, segment_ids, num_segments,
                                      schedule=schedule)
    gate = gate_logits.sigmoid().reshape(1, -1)
    return agg_max * gate + agg_min * (1.0 - gate)


def segment_mean(t, segment_ids, num_segments, schedule=None):
    """Mean-reduce rows by segment (empty segments yield zeros)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids,
                         minlength=num_segments).astype(t.data.dtype)
    total = segment_sum(t, segment_ids, num_segments, schedule=schedule)
    scale = (1.0 / np.maximum(counts, 1.0)).astype(t.data.dtype)
    return total * Tensor(scale[:, None] if total.ndim == 2 else scale)


def batched_outer(a, b):
    """Per-row outer product: (E, m) x (E, n) -> (E, m*n).

    This implements the Kronecker-product combination of the two LUT-axis
    coefficient vectors in the paper's LUT interpolation module (Sec. 3.3.2).
    """
    ta, tb = a, b
    out = ta.data[:, :, None] * tb.data[:, None, :]
    m, n = ta.data.shape[1], tb.data.shape[1]

    def backward(g):
        g3 = g.reshape(-1, m, n)
        if ta.requires_grad:
            ta._accumulate((g3 * tb.data[:, None, :]).sum(axis=2))
        if tb.requires_grad:
            tb._accumulate((g3 * ta.data[:, :, None]).sum(axis=1))

    return Tensor._make(out.reshape(-1, m * n), (ta, tb), backward)


def lut_kron_combine(ax, ay, values, valid):
    """Kronecker LUT combination: ``((ax (x) ay) . values)`` per row,
    reshaped to (E, 8) and masked by ``valid``.

    ``ax``/``ay`` are the (E*8, 7) axis-coefficient tensors; ``values``
    (E*8, 49) and ``valid`` (E, 8) are plain arrays.  The fused backend
    evaluates ``ax . (V @ ay)`` per row as one tape node without ever
    materialising the (E*8, 49) coefficient matrix; the naive path is
    the reference ``batched_outer`` composition.
    """
    values = np.asarray(values)
    valid = np.asarray(valid)
    if kernels.is_fused():
        return kernels.lut_kron_combine_csr(ax, ay, values, valid)
    e = len(valid)
    coeff = batched_outer(ax, ay)
    out = (coeff * Tensor(values)).sum(axis=1).reshape(e, 8)
    return out * Tensor(valid)


def spmm(matrix, t):
    """Sparse @ dense product with gradient ``matrix.T @ g`` (GCNII's P H)."""
    if not sp.issparse(matrix):
        raise TypeError("spmm expects a scipy sparse matrix")
    matrix = matrix.tocsr()
    a = t
    mt = matrix.T.tocsr()

    def backward(g):
        if a.requires_grad:
            a._accumulate(mt @ g)

    return Tensor._make(matrix @ a.data, (a,), backward)


def maximum(a, b):
    """Elementwise maximum of two tensors (ties send gradient to both halves)."""
    ta = a if isinstance(a, Tensor) else Tensor(a)
    tb = b if isinstance(b, Tensor) else Tensor(b)
    take_a = ta.data >= tb.data

    def backward(g):
        if ta.requires_grad:
            ta._accumulate(g * take_a)
        if tb.requires_grad:
            tb._accumulate(g * ~take_a)

    return Tensor._make(np.where(take_a, ta.data, tb.data), (ta, tb), backward)


def dropout(t, rate, rng, training=True):
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return t
    mask = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    return t * Tensor(mask)


def mse_loss(pred, target, mask=None):
    """Mean squared error, optionally restricted to rows where mask is true."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    sq = diff * diff
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = mask.astype(sq.data.dtype)
        weights = mask if mask.ndim == sq.ndim else mask[:, None]
        sq = sq * Tensor(np.broadcast_to(weights, sq.data.shape).copy())
        denom = float(np.broadcast_to(weights, sq.data.shape).sum())
        if denom == 0.0:
            return Tensor(0.0)
        return sq.sum() * (1.0 / denom)
    return sq.mean()


def l2_loss(pred, target, mask=None):
    """Paper-style L2 objective (Eqs. 4-6): mean squared error over entries."""
    return mse_loss(pred, target, mask=mask)
