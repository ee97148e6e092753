"""Multicore compute: the ``REPRO_COMPUTE_THREADS`` switch.

Numpy releases the GIL inside BLAS calls and ufunc inner loops, so the
hot kernels — the MLP-chain matmuls and the CSR ``reduceat`` segment
reductions — can be chunked across a persistent thread pool:

* segment reductions split at *segment boundaries* — every segment is
  still reduced by one thread, in the same sorted element order, so
  they are **bit-identical** to the serial sweep by construction;
* matmuls split along *output rows* — mathematically identical, but the
  BLAS may block a chunk's within-row accumulation differently than the
  full call's, so equality holds to the dtype contract tolerance
  (:func:`repro.nn.contract_tol`) rather than bitwise.

Levels themselves stay sequential (level L reads the states level L-1
wrote — that data dependence is the whole point of levelized
propagation), so the parallelism lives inside each level's bulk ops.

Threading only engages above ``REPRO_COMPUTE_MIN_ROWS`` rows (default
8192) so the many small per-level launches of little designs don't pay
pool overhead; ``REPRO_COMPUTE_THREADS=1`` (the default) keeps the
whole module on the plain serial path.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .arena import NULL_ARENA

__all__ = ["thread_count", "min_parallel_rows", "use_threads",
           "parallel_enabled", "matmul", "segment_reduce"]


def _env_int(name, default):
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


_DEFAULT_THREADS = max(1, _env_int("REPRO_COMPUTE_THREADS", 1))
_DEFAULT_MIN_ROWS = max(1, _env_int("REPRO_COMPUTE_MIN_ROWS", 8192))


class _ThreadState(threading.local):
    """Per-thread (threads, min_rows) override stack."""

    def __init__(self):
        self.stack = []


_STATE = _ThreadState()

_pool = None
_pool_size = 0
_pool_lock = threading.Lock()


def thread_count():
    """Worker threads the compute kernels may use (>= 1)."""
    if _STATE.stack:
        return _STATE.stack[-1][0]
    return _DEFAULT_THREADS


def min_parallel_rows():
    """Row threshold below which kernels stay serial."""
    if _STATE.stack:
        return _STATE.stack[-1][1]
    return _DEFAULT_MIN_ROWS


class use_threads:
    """Context manager selecting the compute-thread budget per thread.

    ``min_rows`` optionally overrides the engagement threshold (tests
    set it to 1 to force the chunked paths on tiny inputs).
    """

    def __init__(self, threads, min_rows=None):
        self.threads = max(1, int(threads))
        self.min_rows = (max(1, int(min_rows)) if min_rows is not None
                         else _DEFAULT_MIN_ROWS)

    def __enter__(self):
        _STATE.stack.append((self.threads, self.min_rows))
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False


def parallel_enabled(rows):
    """True when ``rows`` is big enough to chunk across the pool."""
    return thread_count() > 1 and rows >= min_parallel_rows()


def _get_pool(workers):
    """The persistent pool, grown (never shrunk) to ``workers`` threads."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-compute")
            _pool_size = workers
        return _pool


def _run_chunks(fn, bounds):
    """Run ``fn(lo, hi)`` over chunk bounds: peers on the pool, one inline."""
    if len(bounds) == 1:
        fn(*bounds[0])
        return
    pool = _get_pool(thread_count() - 1)
    futures = [pool.submit(fn, lo, hi) for lo, hi in bounds[1:]]
    fn(*bounds[0])
    for fut in futures:
        fut.result()


def _chunk_bounds(n, parts):
    """Split ``range(n)`` into <= ``parts`` contiguous non-empty chunks."""
    parts = max(1, min(parts, n))
    edges = np.linspace(0, n, parts + 1).astype(np.int64)
    return [(int(edges[i]), int(edges[i + 1]))
            for i in range(parts) if edges[i] < edges[i + 1]]


def matmul(a, b, out=None):
    """``a @ b`` with the output rows chunked across the pool.

    Bit-identical to ``np.matmul(a, b)``: each output row is computed
    whole by exactly one thread.  Falls back to the plain call below
    the engagement threshold.
    """
    # Inline fast path: this wrapper sits under every MLP layer call.
    stack = _STATE.stack
    threads, min_rows = stack[-1] if stack else (_DEFAULT_THREADS,
                                                 _DEFAULT_MIN_ROWS)
    rows = a.shape[0]
    if threads == 1 or rows < min_rows:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((rows, b.shape[1]), dtype=np.result_type(a, b))

    def chunk(lo, hi):
        np.matmul(a[lo:hi], b, out=out[lo:hi])

    _run_chunks(chunk, _chunk_bounds(rows, thread_count()))
    return out


def segment_reduce(ufunc, data, order, starts, out=None, alloc=None):
    """Per-segment ``ufunc`` reduction over a sorted-CSR layout.

    ``order`` sorts ``data`` rows by segment; ``starts`` are reduceat
    boundaries into the sorted order.  Returns the ``(len(starts), ...)``
    reduced block (one row per present segment).  The chunked path
    splits at segment boundaries only, so every segment reduces in the
    same element order as the serial sweep — bit-identical.  ``alloc``
    optionally supplies the sorted-gather scratch buffers from a
    :class:`repro.nn.arena.TapeArena`.
    """
    alloc = NULL_ARENA if alloc is None else alloc
    n_seg = len(starts)
    shape = (n_seg,) + data.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=data.dtype)
    if n_seg == 0:
        return out
    if not parallel_enabled(len(order)):
        tmp = alloc.take((len(order),) + data.shape[1:], data.dtype)
        data.take(order, axis=0, out=tmp)
        ufunc.reduceat(tmp, starts, axis=0, out=out)
        alloc.release(tmp)
        return out

    # The scratch is taken and released on this thread: the arena is
    # not thread-safe, and a fixed take/release order keeps its plan
    # (and so the steady-state allocation count) deterministic.
    bounds = _chunk_bounds(n_seg, thread_count())
    scratch = {}
    for lo, hi in bounds:
        row1 = int(starts[hi]) if hi < n_seg else len(order)
        scratch[lo] = alloc.take((row1 - int(starts[lo]),) + data.shape[1:],
                                 data.dtype)

    def chunk(lo, hi):
        row0 = int(starts[lo])
        tmp = scratch[lo]
        data.take(order[row0:row0 + len(tmp)], axis=0, out=tmp)
        ufunc.reduceat(tmp, starts[lo:hi] - row0, axis=0, out=out[lo:hi])

    _run_chunks(chunk, bounds)
    alloc.release_all(scratch.values())
    return out
