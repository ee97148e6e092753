"""Tape arena allocator: planned buffer reuse for fused execution.

The fused propagation schedule is static per graph: every forward pass
of :func:`repro.models.propagation._fused_propagate` takes buffers of
exactly the same shapes in exactly the same order, and every backward
sweep releases them level by level.  A :class:`TapeArena` exploits that
— it is a shape-keyed recycling allocator cached on the graph's
:class:`~repro.graphdata.hetero.LevelSchedule` (so it is invalidated
together with the CSR schedules on a graph-version bump, keeping the
delta path correct).  The first pass through a graph allocates fresh
("plans" the arena by observation); every steady-state pass after that
runs with **zero** fresh tape allocations — ``take`` pops a recycled
buffer, explicit ``release`` calls at the points where the schedule
proves a buffer dead return it.

Safety rules (enforced or by construction):

* a buffer is never handed out twice while live — ``release`` raises on
  double-release and on foreign arrays (the aliasing regression tests
  pin this);
* one *episode* (forward + backward of one tape) holds the arena
  exclusively: ``begin()`` returns ``None`` when the arena is busy and
  the caller falls back to plain numpy allocation (concurrent serving
  threads stay correct, just unplanned); ``end(token)`` is idempotent,
  so an abandoned tape (never backpropagated) recovers the lease via a
  ``weakref.finalize`` on its root node — the buffers it held are
  simply lost to the garbage collector and re-planned next pass;
* buffers that escape the mega-op as tensor ``data`` or adopted
  gradients (``hp``/``atb`` outputs, parameter gradients, the
  ``h_emb`` gradient) are **never** arena slots — only intermediates
  whose last read is inside the fused forward/backward are.

Re-backpropagating a *non-freed* fused tape after a newer forward has
run on the same (graph, mode) arena is undefined — the newer pass may
have recycled the saved buffers.  Training and serving never do this
(``backward(free=True)`` everywhere); the differential tests cover the
one-tape-at-a-time contract.

The module also owns the **gradient pool** used by
``Tensor.backward(free=True)``: interior gradient buffers are returned
to a per-thread pool as each tape node is freed (guarded by a refcount
check so a buffer someone else still references is never pooled), and
``grad_buffer`` hands them back out for the next pass's gradient
accumulations — holding steady-state training's allocation count flat
across epochs.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

__all__ = ["TapeArena", "arena_enabled", "use_arena", "grad_buffer",
           "give_grad", "grad_pool_stats", "clear_grad_pool"]


class _ArenaState(threading.local):
    """Per-thread arena-enabled override stack."""

    def __init__(self):
        self.stack = []


_STATE = _ArenaState()


def arena_enabled():
    """True when fused execution should lease graph arenas (the
    default; :class:`use_arena` scopes an override)."""
    return _STATE.stack[-1] if _STATE.stack else True


class use_arena:
    """Context manager toggling arena-planned execution per thread.

    ``use_arena(False)`` forces unplanned (fresh-allocation) fused
    execution — the reference the bit-identity property tests compare
    planned execution against.
    """

    def __init__(self, enabled=True):
        self.enabled = bool(enabled)

    def __enter__(self):
        _STATE.stack.append(self.enabled)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False


class TapeArena:
    """Shape-keyed recycling allocator for one (graph, stage) plan."""

    __slots__ = ("tag", "_free", "_live", "_lock", "_busy", "_episode",
                 "fresh_allocs", "takes", "reuses")

    def __init__(self, tag=""):
        self.tag = tag
        self._free = {}          # (shape, dtype_str) -> [ndarray, ...]
        self._live = set()       # id() of every handed-out buffer
        self._lock = threading.Lock()
        self._busy = False
        self._episode = 0
        self.fresh_allocs = 0
        self.takes = 0
        self.reuses = 0

    # -- episode lease -----------------------------------------------------
    def begin(self):
        """Lease the arena for one forward(+backward) episode.

        Returns an opaque token for :meth:`end`, or ``None`` when the
        arena is already leased (the caller must then allocate fresh).
        """
        with self._lock:
            if self._busy:
                return None
            self._busy = True
            self._episode += 1
            # Any ids still live belong to an abandoned episode (its
            # tape died unreleased) — those arrays are garbage by now,
            # and a stale id could collide with a future allocation's.
            self._live.clear()
            return self._episode

    def end(self, token):
        """Release the lease. Idempotent per token (finalizers re-call)."""
        with self._lock:
            if self._busy and token == self._episode:
                self._busy = False

    # -- allocation --------------------------------------------------------
    #
    # take/release are deliberately lock-free: the episode lease
    # (begin/end, which ARE locked) guarantees at most one thread runs
    # inside an episode, and these sit on the per-buffer hot path.

    def take(self, shape, dtype, zero=False):
        """A buffer of ``(shape, dtype)`` — recycled when the plan has
        one free, freshly allocated (and counted) otherwise."""
        shape = tuple(shape)
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        key = (shape, dtype)
        stack = self._free.get(key)
        if stack:
            buf = stack.pop()
            self.reuses += 1
        else:
            buf = np.empty(shape, dtype=dtype)
            self.fresh_allocs += 1
        self.takes += 1
        self._live.add(id(buf))
        if zero:
            buf[...] = 0
        return buf

    def release(self, arr):
        """Return a buffer taken from this arena to its free list.

        Raises on double-release and on arrays the arena never handed
        out — aliasing a live tensor with a recycled slot is the one
        unrecoverable arena bug, so it fails loudly.
        """
        live = self._live
        if id(arr) not in live:
            raise ValueError(
                f"arena[{self.tag}]: release of a buffer that is not "
                f"live here (double release or foreign array)")
        live.remove(id(arr))
        self._free.setdefault((arr.shape, arr.dtype), []).append(arr)

    def release_all(self, arrays):
        for arr in arrays:
            self.release(arr)

    # -- introspection -----------------------------------------------------
    def stats(self):
        with self._lock:
            pooled = sum(len(v) for v in self._free.values())
            pooled_bytes = sum(a.nbytes for v in self._free.values()
                               for a in v)
            return {"tag": self.tag, "fresh_allocs": self.fresh_allocs,
                    "takes": self.takes, "reuses": self.reuses,
                    "live": len(self._live), "pooled": pooled,
                    "pooled_bytes": pooled_bytes}


class _NullArena:
    """Allocation shim with the TapeArena take/release surface but no
    recycling — what fused execution uses when the arena is disabled,
    busy, or not yet built.  ``release`` is a no-op (the garbage
    collector reclaims), so call sites stay branch-free."""

    __slots__ = ()

    def take(self, shape, dtype, zero=False):
        if zero:
            return np.zeros(shape, dtype=dtype)
        return np.empty(shape, dtype=dtype)

    def release(self, arr):
        pass

    def release_all(self, arrays):
        pass


NULL_ARENA = _NullArena()


# -- gradient pool ------------------------------------------------------------
#
# ``Tensor.backward(free=True)`` returns interior gradient buffers here
# as it frees each node; gradient accumulations take them back out.
# Thread-local: gradients never cross threads, and a lock-free pool
# keeps the hot path cheap.

_POOL_PER_KEY = 8


class _GradPool(threading.local):
    def __init__(self):
        self.free = {}           # (shape, dtype_str) -> [ndarray, ...]
        self.given = 0
        self.rejected = 0
        self.hits = 0
        self.misses = 0


_GRAD_POOL = _GradPool()

# getrefcount(arr) when the caller's local is the ONLY outside reference:
# caller local + our parameter + getrefcount's own argument slot.
_SOLE_OWNER_REFS = 3


def give_grad(arr):
    """Offer a dead gradient buffer to the pool.

    Only accepts float arrays whose sole remaining reference is the
    caller's local (refcount check) — a buffer that escaped into any
    other structure is left to the garbage collector instead of being
    recycled under a live alias.  Returns True when pooled.
    """
    pool = _GRAD_POOL
    if (not isinstance(arr, np.ndarray) or arr.base is not None
            or arr.dtype.kind != "f"
            or sys.getrefcount(arr) != _SOLE_OWNER_REFS):
        pool.rejected += 1
        return False
    key = (arr.shape, arr.dtype.str)
    stack = pool.free.setdefault(key, [])
    if len(stack) >= _POOL_PER_KEY:
        pool.rejected += 1
        return False
    stack.append(arr)
    pool.given += 1
    return True


def grad_buffer(shape, dtype, zero=False):
    """A gradient-accumulation buffer, recycled from the pool when one
    of the right (shape, dtype) is free."""
    pool = _GRAD_POOL
    key = (tuple(shape), np.dtype(dtype).str)
    stack = pool.free.get(key)
    if stack:
        buf = stack.pop()
        pool.hits += 1
        if zero:
            buf[...] = 0
        return buf
    pool.misses += 1
    if zero:
        return np.zeros(shape, dtype=dtype)
    return np.empty(shape, dtype=dtype)


def grad_pool_stats():
    pool = _GRAD_POOL
    return {"given": pool.given, "rejected": pool.rejected,
            "hits": pool.hits, "misses": pool.misses,
            "pooled": sum(len(v) for v in pool.free.values())}


def clear_grad_pool():
    _GRAD_POOL.free.clear()
