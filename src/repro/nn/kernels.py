"""Fused autograd kernels and the naive reference backend.

The tape in :mod:`repro.nn.tensor` records one closure per primitive op,
which is correct but leaves easy performance on the table for the
patterns the timing models execute millions of times per training run:

* ``affine_act`` — matmul + bias + tanh/relu in **one** tape node (the
  body of every :class:`repro.nn.MLP` layer);
* ``mlp_chain`` — a whole run of Linear(+activation) layers as one tape
  node (what :class:`repro.nn.Sequential` executes for an entire MLP);
* ``gather_concat`` — the ubiquitous ``gather_rows`` x k -> ``concat``
  edge-input assembly, done with a single output allocation and a single
  backward closure;
* ``segment_sum`` / ``segment_max`` over a **sorted CSR layout**
  (:class:`SegmentSchedule`): ``np.add.reduceat`` / ``np.maximum.reduceat``
  replace the order-of-magnitude-slower ``np.add.at`` /
  ``np.maximum.at`` ufunc inner loops;
* ``segment_minmax`` — one sort, both reductions (the propagation model
  needs the max *and* min of every fanin group for its late/early
  aggregation gate; the naive path runs ``segment_max`` twice with a
  negation).

Backend selection: every process runs ``fused``.  The composed-op
``naive`` backend is the differential reference: the
:class:`use_kernels` context manager selects it per thread, so the two
implementations can be compared in one process
(``tests/test_contracts.py``).  The numerical contract is *fused ==
naive* to tight tolerance on forward values and gradients — the only
differences are floating-point summation order inside segment/scatter
reductions.
"""

from __future__ import annotations

import threading

import numpy as np

from .arena import NULL_ARENA
from .tensor import Tensor

__all__ = ["BACKENDS", "backend", "kernel_backend", "is_fused",
           "use_kernels", "SegmentSchedule",
           "affine_act", "mlp_chain", "mlp_chain_forward_raw",
           "mlp_chain_backward_raw", "gather_concat", "gather_concat_raw",
           "gather_rows_csr",
           "segment_sum_csr", "segment_max_csr", "segment_minmax_csr",
           "segment_extrema_raw", "segment_extrema_backward_raw",
           "gather_add_csr", "lut_kron_forward_raw", "lut_kron_backward_raw",
           "lut_kron_combine_csr", "segment_minmax_gate_raw",
           "segment_minmax_gate_backward_raw", "segment_minmax_gate_csr",
           "scatter_add_rows"]

BACKENDS = ("fused", "naive")

_DEFAULT = "fused"


class _BackendState(threading.local):
    """Per-thread backend override stack (see :class:`use_kernels`)."""

    def __init__(self):
        self.stack = []


_STATE = _BackendState()


def backend():
    """The active kernel backend name: ``"fused"`` or ``"naive"``."""
    return _STATE.stack[-1] if _STATE.stack else _DEFAULT


#: Public alias — ``nn.kernel_backend()`` reads better at call sites.
kernel_backend = backend


def is_fused():
    return backend() == "fused"


class use_kernels:
    """Context manager selecting the kernel backend for this thread."""

    def __init__(self, name):
        if name not in BACKENDS:
            raise ValueError(f"unknown kernel backend {name!r}")
        self.name = name

    def __enter__(self):
        _STATE.stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False


class SegmentSchedule:
    """Sorted-CSR layout of an integer index vector, built once, reused.

    ``order`` sorts the rows by segment id; ``starts`` are the reduceat
    boundaries of each *present* segment in the sorted order; ``present``
    are the distinct segment ids in ascending order.  One schedule serves
    both directions of the fused kernels: forward segment reductions
    (``ufunc.reduceat`` over ``data[order]``) and backward scatter-add of
    gathered gradients (:func:`scatter_add_rows`).
    """

    __slots__ = ("ids", "order", "starts", "present")

    def __init__(self, segment_ids):
        ids = np.asarray(segment_ids, dtype=np.int64)
        self.ids = ids
        order = np.argsort(ids, kind="stable")
        self.order = order
        sorted_ids = ids[order]
        if len(sorted_ids):
            starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(sorted_ids)) + 1])
        else:
            starts = np.zeros(0, dtype=np.int64)
        self.starts = starts
        self.present = sorted_ids[starts] if len(starts) else starts

    def __len__(self):
        return len(self.ids)


def _schedule_for(segment_ids, schedule):
    if schedule is None:
        return SegmentSchedule(segment_ids)
    return schedule


def _segment_reduce(ufunc, data, sched, out, alloc):
    """Per-segment ``ufunc`` reduction of ``data`` into ``out``.

    Gathers ``data`` into the schedule's sorted order (scratch from
    ``alloc``), then reduces each present segment with one ``reduceat``
    sweep; ``out`` gets one row per present segment.
    """
    tmp = alloc.take((len(sched.order),) + data.shape[1:], data.dtype)
    data.take(sched.order, axis=0, out=tmp)
    ufunc.reduceat(tmp, sched.starts, axis=0, out=out)
    alloc.release(tmp)
    return out


def scatter_add_rows(out, index, values, schedule=None, alloc=None):
    """``out[index] += values`` with duplicate indices, CSR-accelerated.

    With a :class:`SegmentSchedule` for ``index``, duplicate groups are
    pre-reduced by ``np.add.reduceat`` and written with one unique-index
    fancy assignment; without one, falls back to ``np.add.at``.
    ``alloc`` optionally supplies the reduction scratch from a
    :class:`repro.nn.arena.TapeArena`.
    """
    if schedule is not None and len(schedule.starts):
        alloc = NULL_ARENA if alloc is None else alloc
        reduced = alloc.take((len(schedule.starts),) + values.shape[1:],
                             values.dtype)
        _segment_reduce(np.add, values, schedule, reduced, alloc)
        # out[present] += reduced without the fancy-index temporary.
        tmp = alloc.take(reduced.shape, out.dtype)
        out.take(schedule.present, axis=0, out=tmp)
        tmp += reduced
        out[schedule.present] = tmp
        alloc.release(tmp)
        alloc.release(reduced)
    elif schedule is None:
        np.add.at(out, index, values)
    return out


# -- fused tape nodes ---------------------------------------------------------

_ACTIVATIONS = (None, "relu", "tanh")


def affine_act(x, weight, bias=None, activation=None):
    """Fused ``act(x @ W + b)`` in one tape node.

    ``activation`` is ``None``, ``"relu"`` or ``"tanh"``.  Numerically
    identical to the unfused ``x.affine(W, b).relu()/.tanh()`` chain.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    a, w = x, weight
    z = np.matmul(a.data, w.data)
    if bias is not None:
        z += bias.data
    if activation == "relu":
        out = np.maximum(z, 0.0)
    elif activation == "tanh":
        out = np.tanh(z)
    else:
        out = z

    def backward(g):
        if activation == "relu":
            gz = np.where(z > 0, g, 0.0)
        elif activation == "tanh":
            gz = g * (1.0 - out ** 2)
        else:
            gz = g
        if a.requires_grad:
            a._accumulate(np.matmul(gz, w.data.T), own=True)
        if w.requires_grad:
            w._accumulate(np.matmul(a.data.T, gz), own=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gz.sum(axis=0), own=True)

    parents = (a, w) if bias is None else (a, w, bias)
    return Tensor._make(out, parents, backward)


_CHAIN_ACTS = (None, "relu", "tanh", "sigmoid", "softplus")


def _apply_act_inplace(z, act, alloc):
    """Apply an activation *in place* on ``z`` (adopted, pre-activation
    values are never needed again)."""
    if act == "relu":
        return np.maximum(z, 0.0, out=z)
    if act == "tanh":
        return np.tanh(z, out=z)
    if act == "sigmoid":
        np.clip(z, -60, 60, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        return np.reciprocal(z, out=z)
    if act == "softplus":
        # log1p(exp(-|x|)) + max(x, 0), one scratch for the max term.
        np.clip(z, -60, 60, out=z)
        m = alloc.take(z.shape, z.dtype)
        np.maximum(z, 0.0, out=m)
        np.abs(z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.log1p(z, out=z)
        z += m
        alloc.release(m)
        return z
    return z


def _act_grad_alloc(g, out, act, alloc):
    """Gradient through one activation given its output.

    Writes into a buffer from ``alloc`` (never aliases ``g``); returns
    ``g`` itself when ``act`` is None.
    """
    if act is None:
        return g
    buf = alloc.take(out.shape, out.dtype if g.dtype == out.dtype
                     else np.result_type(g, out))
    if act == "relu":
        # g * (out > 0); relu output is >= 0, so sign(out) IS the mask
        # (and needs no boolean temporary).
        np.sign(out, out=buf)
        buf *= g
    elif act == "tanh":
        np.multiply(out, out, out=buf)
        np.subtract(1.0, buf, out=buf)
        buf *= g
    elif act == "sigmoid":
        np.subtract(1.0, out, out=buf)
        buf *= out
        buf *= g
    elif act == "softplus":
        # d softplus(z) = sigmoid(z) = 1 - exp(-out) (out >= 0 always).
        np.negative(out, out=buf)
        np.exp(buf, out=buf)
        np.subtract(1.0, buf, out=buf)
        buf *= g
    else:
        raise ValueError(f"unknown activation {act!r}")
    return buf


def mlp_chain_forward_raw(h, steps, out_act=None, save=True, alloc=None):
    """Array-level MLP-chain forward.

    ``h`` is a plain array; returns ``(out, saved)`` where ``saved``
    feeds :func:`mlp_chain_backward_raw` (``None`` when ``save`` is
    false, e.g. under ``no_grad``).  This is the computational core of
    :func:`mlp_chain`, exposed so larger fused ops (the level-fused
    propagation kernel) can run MLPs without creating tape nodes.

    ``alloc`` optionally supplies every layer buffer from a
    :class:`repro.nn.arena.TapeArena`; the caller then owns the saved
    arrays and the output and must release them (the fused propagation
    backward does, level by level).
    """
    alloc = NULL_ARENA if alloc is None else alloc
    inputs, outputs = [], []
    owned = None                 # previous layer's buffer when not saving
    dt = np.result_type(h, steps[0][0].data) if steps else h.dtype
    rows = h.shape[0]
    for w, b, act in steps:
        if act not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
        if save:
            inputs.append(h)
        z = alloc.take((rows, w.data.shape[1]), dt)
        np.matmul(h, w.data, out=z)
        if b is not None:
            z += b.data
        if owned is not None:
            alloc.release(owned)
        h = _apply_act_inplace(z, act, alloc)
        if save:
            outputs.append(h)
        else:
            owned = h
    if out_act is not None and save:
        # Backward needs both the pre-out_act activation (outputs[-1])
        # and the final output, so they are distinct buffers.
        out = alloc.take(h.shape, h.dtype)
        out[...] = h
        out = _apply_act_inplace(out, out_act, alloc)
    elif out_act is not None:
        out = _apply_act_inplace(h, out_act, alloc)
    else:
        out = h
    return out, ((inputs, outputs, out) if save else None)


def mlp_chain_backward_raw(g, steps, saved, out_act=None, alloc=None):
    """Array-level MLP-chain backward: accumulates parameter gradients
    in place and returns the gradient w.r.t. the chain's input.

    Parameter gradients are always freshly allocated (they are adopted
    by the parameter tensors and outlive the pass); with ``alloc``, the
    inter-layer gradient scratch is arena-recycled and the *returned*
    array is arena-owned — the caller must release it after use
    (chains always have at least one layer, so it is never the caller's
    own ``g``).
    """
    alloc = NULL_ARENA if alloc is None else alloc
    inputs, outputs, out = saved
    owned = None                 # the arena buffer g currently aliases
    if out_act is not None:
        g = _act_grad_alloc(g, out, out_act, alloc)
        owned = g
    dt = np.result_type(g, steps[0][0].data) if steps else g.dtype
    rows = g.shape[0]
    for inp, layer_out, (w, b, act) in zip(reversed(inputs),
                                           reversed(outputs),
                                           reversed(steps)):
        if act is None:
            gz, gz_owned = g, owned
        else:
            gz = _act_grad_alloc(g, layer_out, act, alloc)
            if owned is not None:
                alloc.release(owned)
            gz_owned = gz
        # Parameter gradients escape the pass, so the first
        # accumulation adopts a fresh array; once a parameter has a
        # gradient buffer (the propagation MLPs accumulate once per
        # level), later contributions add through arena scratch.
        if w.requires_grad:
            if w.grad is None:
                w._accumulate(np.matmul(inp.T, gz), own=True)
            else:
                tmp = alloc.take(w.data.shape, dt)
                np.matmul(inp.T, gz, out=tmp)
                w.grad += tmp
                alloc.release(tmp)
        if b is not None and b.requires_grad:
            if b.grad is None:
                b._accumulate(gz.sum(axis=0), own=True)
            else:
                tmp = alloc.take(b.data.shape, dt)
                np.add.reduce(gz, axis=0, out=tmp)
                b.grad += tmp
                alloc.release(tmp)
        g = alloc.take((rows, w.data.shape[0]), dt)
        np.matmul(gz, w.data.T, out=g)
        if gz_owned is not None:
            alloc.release(gz_owned)
        owned = g
    return g


def mlp_chain(x, steps, out_act=None):
    """A whole MLP — ``act(x @ W1 + b1) ... @ Wk + bk`` — as ONE tape node.

    ``steps`` is a list of ``(weight, bias, activation)`` triples with
    ``bias`` an optional Tensor and ``activation`` in ``(None, "relu",
    "tanh")``; ``out_act`` optionally applies one more activation
    (``tanh``/``softplus``/``sigmoid``/``relu``) to the final layer's
    output, folding the ubiquitous ``mlp(x).tanh()`` pattern into the
    same node.  Numerically identical to chaining :func:`affine_act`
    per step plus a ``Tensor`` activation, but the intermediates never
    become tape nodes: one closure backpropagates the full chain, which
    removes the per-layer Tensor/closure/gradient-copy overhead that
    dominates the many small per-level MLP calls of the propagation
    model.
    """
    if out_act not in _CHAIN_ACTS:
        raise ValueError(f"unknown activation {out_act!r}")
    out, saved = mlp_chain_forward_raw(x.data, steps, out_act=out_act)

    def backward(g):
        gx = mlp_chain_backward_raw(g, steps, saved, out_act=out_act)
        if x.requires_grad:
            x._accumulate(gx, own=len(steps) > 0 or out_act is not None)

    parents = [x]
    for w, b, _act in steps:
        parents.append(w)
        if b is not None:
            parents.append(b)
    return Tensor._make(out, tuple(parents), backward)


def gather_concat(tensors, indices, schedules=None):
    """Fused ``concat([t[i] for t, i in zip(tensors, indices)], axis=1)``.

    ``indices[k]`` may be ``None`` when ``tensors[k]`` is already row
    aligned (e.g. per-edge features).  One output allocation, one
    backward closure; optional per-part :class:`SegmentSchedule`\\ s
    accelerate the duplicate-index gradient scatter.
    """
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if len(indices) != len(tensors):
        raise ValueError("gather_concat: len(indices) != len(tensors)")
    if schedules is None:
        schedules = [None] * len(tensors)
    idxs = [None if i is None else np.asarray(i, dtype=np.int64)
            for i in indices]
    rows = None
    for t, i in zip(tensors, idxs):
        r = len(t.data) if i is None else len(i)
        if rows is None:
            rows = r
        elif r != rows:
            raise ValueError("gather_concat: inconsistent row counts")
    widths = [t.data.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)
    out = np.empty((rows, int(offsets[-1])),
                   dtype=np.result_type(*(t.data for t in tensors)))
    for t, i, lo, hi in zip(tensors, idxs, offsets[:-1], offsets[1:]):
        if i is None:
            out[:, lo:hi] = t.data
        else:
            np.take(t.data, i, axis=0, out=out[:, lo:hi])

    def backward(g):
        for t, i, sched, lo, hi in zip(tensors, idxs, schedules,
                                       offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            gs = g[:, lo:hi]
            if i is None:
                t._accumulate(gs)
            else:
                full = np.zeros_like(t.data)
                scatter_add_rows(full, i, gs, schedule=sched)
                t._accumulate(full, own=True)

    return Tensor._make(out, tuple(tensors), backward)


def gather_concat_raw(arrays, indices, alloc=None):
    """Array-level gather-then-concat along axis 1 (single allocation).

    ``indices[k]`` indexes rows of ``arrays[k]`` (``None`` = already
    row-aligned).  The assembly core of :func:`gather_concat`, shared
    with the level-fused propagation kernel.  With ``alloc``, the
    output buffer is arena-recycled (caller owns and releases it).
    """
    alloc = NULL_ARENA if alloc is None else alloc
    rows = None
    for arr, idx in zip(arrays, indices):
        r = len(arr) if idx is None else len(idx)
        if rows is None:
            rows = r
        elif r != rows:
            raise ValueError("gather_concat_raw: inconsistent row counts")
    total = 0
    for arr in arrays:
        total += arr.shape[1]
    out = alloc.take((rows, total), np.result_type(*arrays))
    lo = 0
    for arr, idx in zip(arrays, indices):
        hi = lo + arr.shape[1]
        if idx is None:
            out[:, lo:hi] = arr
        else:
            arr.take(idx, axis=0, out=out[:, lo:hi])
        lo = hi
    return out


def gather_rows_csr(t, index, schedule=None):
    """``t[index]`` whose gradient scatter uses the CSR schedule."""
    index = np.asarray(index, dtype=np.int64)
    a = t

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            scatter_add_rows(full, index, g, schedule=schedule)
            a._accumulate(full, own=True)

    return Tensor._make(a.data[index], (a,), backward)


# -- CSR segment reductions ---------------------------------------------------

def segment_sum_csr(t, segment_ids, num_segments, schedule=None):
    """Sorted-``reduceat`` segment sum (fused counterpart of
    :func:`repro.nn.ops.segment_sum`)."""
    sched = _schedule_for(segment_ids, schedule)
    a = t
    out = segment_extrema_raw(a.data, sched, num_segments, np.add)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[sched.ids], own=True)

    return Tensor._make(out, (a,), backward)


def segment_extrema_raw(data, sched, num_segments, ufunc, alloc=None):
    """One ``ufunc.reduceat`` pass; empty segments yield 0 (as naive).

    With ``alloc``, the output and reduction scratch are arena-recycled
    (the caller owns the returned buffer).
    """
    alloc = NULL_ARENA if alloc is None else alloc
    out = alloc.take((num_segments,) + data.shape[1:], data.dtype,
                     zero=True)
    if len(sched.starts):
        reduced = alloc.take((len(sched.starts),) + data.shape[1:],
                             data.dtype)
        _segment_reduce(ufunc, data, sched, reduced, alloc)
        out[sched.present] = reduced
        alloc.release(reduced)
    return out


def segment_extrema_backward_raw(values, extrema_out, g, sched, alloc):
    """Tie-splitting gradient of a segment max/min over raw arrays.

    Each segment's gradient row ``g`` is split evenly between the rows
    of ``values`` that attain the segment's extremum ``extrema_out``:
    ``mask * (g / counts)[ids]``.  The returned ``values``-shaped
    buffer and the scratch come from ``alloc`` (a
    :class:`repro.nn.arena.TapeArena` or ``NULL_ARENA``); the caller
    owns the result.
    """
    gath = alloc.take(values.shape, values.dtype)
    extrema_out.take(sched.ids, axis=0, out=gath)
    mask = alloc.take(values.shape, values.dtype)
    np.equal(values, gath, out=mask)      # bool -> float is safe
    counts = alloc.take(extrema_out.shape, extrema_out.dtype, zero=True)
    scatter_add_rows(counts, sched.ids, mask, schedule=sched, alloc=alloc)
    np.maximum(counts, 1.0, out=counts)
    np.divide(g, counts, out=counts)
    counts.take(sched.ids, axis=0, out=gath)
    mask *= gath
    alloc.release_all((gath, counts))
    return mask


def _extrema_node(a, sched, out):
    """Tape node for one segment extremum of ``a``."""

    def backward(g):
        if a.requires_grad:
            a._accumulate(segment_extrema_backward_raw(
                a.data, out, g, sched, NULL_ARENA), own=True)

    return Tensor._make(out, (a,), backward)


def segment_max_csr(t, segment_ids, num_segments, schedule=None):
    """Sorted-``reduceat`` segment max (empty segments yield zeros)."""
    sched = _schedule_for(segment_ids, schedule)
    out = segment_extrema_raw(t.data, sched, num_segments, np.maximum)
    return _extrema_node(t, sched, out)


def segment_minmax_csr(t, segment_ids, num_segments, schedule=None):
    """One-pass segment (max, min): one sort, two ``reduceat`` sweeps.

    Returns ``(max_tensor, min_tensor)``.  Matches the naive
    ``segment_max(t)`` / ``-segment_max(-t)`` pair, including the
    empty-segment-yields-zero convention and tie-splitting gradients.
    """
    sched = _schedule_for(segment_ids, schedule)
    out_max = segment_extrema_raw(t.data, sched, num_segments, np.maximum)
    out_min = segment_extrema_raw(t.data, sched, num_segments, np.minimum)
    return _extrema_node(t, sched, out_max), _extrema_node(t, sched, out_min)


def gather_add_csr(t, index, addend, schedule=None):
    """Fused ``t[index] + addend`` (one tape node, CSR gradient scatter).

    The arrival-update pattern of the propagation model: gather the
    source arrivals along the level's edges and add the per-edge
    increment.
    """
    index = np.asarray(index, dtype=np.int64)
    a, b = t, addend

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            scatter_add_rows(full, index, g, schedule=schedule)
            a._accumulate(full, own=True)
        if b.requires_grad:
            b._accumulate(g)

    return Tensor._make(a.data[index] + b.data, (a, b), backward)


def lut_kron_forward_raw(ax, ay, values, valid, alloc):
    """Kronecker LUT combination over raw arrays: ``out = ax . (V @ ay)``
    per (edge, table) row, masked by ``valid``.

    ``ax``/``ay`` are the (E*8, 7) axis coefficients, ``values`` the
    (E*8, 49) tables and ``valid`` the (E, 8) mask.  Returns ``(out,
    vy)`` where ``vy = V @ ay`` (E*8, 7) feeds
    :func:`lut_kron_backward_raw`; both come from ``alloc``.
    """
    e = len(valid)
    v3 = values.reshape(-1, 7, 7)
    vy = alloc.take(ay.shape, np.result_type(values, ay))
    np.matmul(v3, ay[:, :, None], out=vy[:, :, None])
    dot = alloc.take((len(vy),), vy.dtype)
    np.einsum("ij,ij->i", ax, vy, out=dot)
    out = alloc.take((e, 8), np.result_type(dot, valid))
    np.multiply(dot.reshape(e, 8), valid, out=out)
    alloc.release(dot)
    return out, vy


def lut_kron_backward_raw(g, ax, vy, values, valid, alloc):
    """Gradient of :func:`lut_kron_forward_raw`: returns ``(g_ax, g_ay)``
    for the (E, 8) output gradient ``g`` (read-only)."""
    gv = alloc.take(valid.shape, np.result_type(g, valid))
    np.multiply(g, valid, out=gv)
    col = gv.reshape(-1, 1)
    g_ax = alloc.take(vy.shape, np.result_type(vy, col))
    np.multiply(vy, col, out=g_ax)
    # One V.T @ ax per row.
    g_ay = alloc.take(vy.shape, g_ax.dtype)
    np.matmul(ax[:, None, :], values.reshape(-1, 7, 7), out=g_ay[:, None, :])
    g_ay *= col
    alloc.release(gv)
    return g_ax, g_ay


def lut_kron_combine_csr(ax, ay, values, valid):
    """Fused Kronecker LUT combination, one tape node.

    Computes ``((ax (x) ay) . values).sum`` per (edge, table) row and
    masks invalid tables — i.e. the naive
    ``(batched_outer(ax, ay) * values).sum(axis=1).reshape(e, 8) * valid``
    — without ever materialising the (E*8, 49) coefficient matrix (see
    :func:`lut_kron_forward_raw`).  ``values`` (E*8, 49) and ``valid``
    (E, 8) are plain arrays (graph data, no gradient).  Summation order
    differs from the naive path (rows then columns instead of the
    flattened 49-term sum), which is within the fused==naive
    floating-point tolerance.
    """
    out, vy = lut_kron_forward_raw(ax.data, ay.data, values, valid,
                                   NULL_ARENA)

    def backward(g):
        g_ax, g_ay = lut_kron_backward_raw(g, ax.data, vy, values, valid,
                                           NULL_ARENA)
        if ax.requires_grad:
            ax._accumulate(g_ax, own=True)
        if ay.requires_grad:
            ay._accumulate(g_ay, own=True)

    return Tensor._make(out, (ax, ay), backward)


def segment_minmax_gate_raw(values, sched, num_segments, gate, alloc):
    """Late/early fanin aggregation over raw arrays: ``max*gate +
    min*(1-gate)`` per segment, with ``gate`` the per-channel sigmoid.

    Returns ``(out, out_max, out_min)``; the extrema feed
    :func:`segment_minmax_gate_backward_raw`.  All three come from
    ``alloc``.
    """
    out_max = segment_extrema_raw(values, sched, num_segments, np.maximum,
                                  alloc=alloc)
    out_min = segment_extrema_raw(values, sched, num_segments, np.minimum,
                                  alloc=alloc)
    out = alloc.take(out_max.shape, out_max.dtype)
    np.multiply(out_max, gate, out=out)
    t_min = alloc.take(out_min.shape, out_min.dtype)
    np.multiply(out_min, 1.0 - gate, out=t_min)
    out += t_min
    alloc.release(t_min)
    return out, out_max, out_min


def segment_minmax_gate_backward_raw(g, values, out_max, out_min, gate,
                                     sched, alloc):
    """Gradient of :func:`segment_minmax_gate_raw` with tie-splitting
    extrema gradients.

    Returns ``(g_values, g_gate)``: ``g_values`` comes from ``alloc``;
    ``g_gate`` is the per-channel ``sum(g * (max - min))``,
    to which the caller applies the sigmoid derivative.
    """
    t = alloc.take(out_max.shape, out_max.dtype)
    np.subtract(out_max, out_min, out=t)
    t *= g
    g_gate = t.sum(axis=0)
    np.multiply(g, gate, out=t)
    g_values = segment_extrema_backward_raw(values, out_max, t, sched, alloc)
    np.multiply(g, 1.0 - gate, out=t)
    part = segment_extrema_backward_raw(values, out_min, t, sched, alloc)
    g_values += part
    alloc.release_all((part, t))
    return g_values, g_gate


def segment_minmax_gate_csr(t, segment_ids, num_segments, gate_logits,
                            schedule=None):
    """Fused late/early fanin aggregation: ``max*g + min*(1-g)`` with
    ``g = sigmoid(gate_logits)``, as one tape node.

    Matches the naive composition (``segment_minmax`` + sigmoid gate
    mixing) including tie-splitting extrema gradients and the
    empty-segment-yields-zero convention.
    """
    sched = _schedule_for(segment_ids, schedule)
    a, gl = t, gate_logits
    gate = 1.0 / (1.0 + np.exp(-np.clip(gl.data, -60, 60)))
    out, out_max, out_min = segment_minmax_gate_raw(
        a.data, sched, num_segments, gate, NULL_ARENA)

    def backward(g):
        ga, gg = segment_minmax_gate_backward_raw(
            g, a.data, out_max, out_min, gate, sched, NULL_ARENA)
        if a.requires_grad:
            a._accumulate(ga, own=True)
        if gl.requires_grad:
            gg *= gate * (1.0 - gate)
            gl._accumulate(gg.reshape(gl.data.shape), own=True)

    return Tensor._make(out, (a, gl), backward)
