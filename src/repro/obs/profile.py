"""Tape-level profiler for the autograd engine (both kernel backends).

``with obs.profile() as prof:`` instruments the numeric substrate for
the duration of the block:

* every forward op — tensor arithmetic, the graph ops of
  :mod:`repro.nn.ops`, the fused kernels of :mod:`repro.nn.kernels`,
  the propagation step driver, optimizer steps — is timed and
  its output bytes accounted;
* every tape node minted while profiling gets its *backward closure*
  wrapped too, so the backward sweep is attributed per op
  (``bwd:<op>`` rows) rather than lumped into one number;
* nested calls are handled with self-time accounting: a composite op
  (say, naive ``segment_minmax`` calling ``segment_max`` twice) is
  charged only for the time not already charged to its children, so
  the per-op totals add up to the real wall time instead of double
  counting.

Profiling is opt-in and scoped: entering ``profile()`` patches the op
entry points (module and class attributes), leaving restores them, and
ops created inside the scope but backpropagated after it fall back to
their unwrapped cost-free path.  A ``obs.profile`` trace span brackets
the block so profiled regions show up in ``repro trace`` output.

``repro profile`` profiles a full train step per backend and prints the
aggregated top-K table (:func:`profile_train_step`,
:func:`format_profile_table`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from .tracing import get_tracer

__all__ = ["OpStat", "Profiler", "profile", "active_profiler",
           "format_profile_table", "profile_train_step"]

_ACTIVE = None                      # the installed Profiler, or None
_INSTALL_LOCK = threading.Lock()

#: Tensor methods wrapped while profiling (aliases dedup to one wrapper).
_TENSOR_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__matmul__",
    "affine", "reshape", "transpose", "__getitem__", "sum", "mean",
    "max", "relu", "leaky_relu", "sigmoid", "tanh", "exp", "log",
    "sqrt", "softplus", "softmax",
)

#: Fused kernel entry points (repro.nn.kernels).
_KERNEL_OPS = (
    "affine_act", "mlp_chain", "mlp_chain_forward_raw",
    "mlp_chain_backward_raw", "gather_concat", "gather_rows_csr",
    "segment_sum_csr", "segment_max_csr", "segment_minmax_csr",
    "gather_add_csr", "lut_kron_combine_csr", "segment_minmax_gate_csr",
    "scatter_add_rows",
)


class OpStat:
    """Aggregate cost of one op name across all profiled calls."""

    __slots__ = ("name", "calls", "total_ms", "self_ms", "bytes_out")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total_ms = 0.0
        self.self_ms = 0.0
        self.bytes_out = 0

    def to_dict(self):
        return {"name": self.name, "calls": self.calls,
                "total_ms": round(self.total_ms, 4),
                "self_ms": round(self.self_ms, 4),
                "bytes_out": int(self.bytes_out)}


def _nbytes(out):
    """Output bytes of an op result (Tensor, ndarray, or nests thereof)."""
    data = getattr(out, "data", None)
    if data is not None and hasattr(data, "nbytes"):
        return int(data.nbytes)
    if hasattr(out, "nbytes"):
        return int(out.nbytes)
    if isinstance(out, (tuple, list)):
        return sum(_nbytes(item) for item in out)
    return 0


class Profiler:
    """Thread-safe per-op wall-time / bytes aggregator.

    ``call_overhead_ns`` is the measured cost of the timing wrapper
    itself (calibrated on a no-op when the profiler activates); child
    calls charge it to their parent frame so exclusive times reflect
    real compute, not instrumentation, and the table total tracks the
    unprofiled wall time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = {}                 # name -> OpStat
        self.wall_ms = None             # elapsed in the profile() block
        self.call_overhead_ns = 0.0

    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _record(self, name, total_ns, self_ns, nbytes):
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = OpStat(name)
            stat.calls += 1
            stat.total_ms += total_ns * 1e-6
            stat.self_ms += self_ns * 1e-6
            stat.bytes_out += nbytes

    def total_self_ms(self):
        """Sum of exclusive times — the profiled estimate of wall time."""
        with self._lock:
            return sum(stat.self_ms for stat in self.stats.values())

    def top(self, k=None):
        """OpStats sorted by exclusive time, heaviest first."""
        with self._lock:
            stats = sorted(self.stats.values(),
                           key=lambda s: s.self_ms, reverse=True)
        return stats if k is None else stats[:k]

    def snapshot(self):
        """JSON-friendly summary (for the run ledger / trace attrs)."""
        return {"wall_ms": (round(self.wall_ms, 4)
                            if self.wall_ms is not None else None),
                "total_self_ms": round(self.total_self_ms(), 4),
                "ops": [stat.to_dict() for stat in self.top()]}


def active_profiler():
    """The installed profiler, or None (used by the tape hook)."""
    return _ACTIVE


def _timed(name, fn):
    """Wrap ``fn`` with frame-stack timing against the active profiler."""

    def wrapper(*args, **kwargs):
        prof = _ACTIVE
        if prof is None:
            return fn(*args, **kwargs)
        frames = prof._frames()
        frames.append(0.0)
        t0 = time.perf_counter_ns()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            dt = time.perf_counter_ns() - t0
            child_ns = frames.pop()
            prof._record(name, dt, dt - child_ns, _nbytes(out))
            if frames:
                # charge the parent this call's real span including the
                # record/bytes epilogue, plus the calibrated prologue —
                # so exclusive times reflect compute, not the wrapper
                frames[-1] += (time.perf_counter_ns() - t0
                               + prof.call_overhead_ns)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__profiled_original__ = fn
    return wrapper


_BWD_NAMES = {}                     # qualname -> display name cache


def _bwd_name(fn):
    qual = getattr(fn, "__qualname__", "op")
    name = _BWD_NAMES.get(qual)
    if name is None:
        op = qual.split(".<locals>")[0]
        if op.startswith("Tensor."):
            op = op[len("Tensor."):]
        name = _BWD_NAMES[qual] = "bwd:" + op.strip("_")
    return name


def _tape_backward_hook(fn):
    """Wrap a tape node's backward closure; name derives from the op.

    Called once per tape node minted while profiling, so creation must
    stay cheap (a bare closure): name resolution and the timing logic
    — same frame-stack scheme as :func:`_timed` — run only when the
    backward sweep actually executes the closure, and closures that
    outlive the profiling scope fall through to the raw call.
    """

    def timed_backward(*args, **kwargs):
        prof = _ACTIVE
        if prof is None:
            return fn(*args, **kwargs)
        frames = prof._frames()
        frames.append(0.0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            child_ns = frames.pop()
            prof._record(_bwd_name(fn), dt, dt - child_ns, 0)
            if frames:
                frames[-1] += (time.perf_counter_ns() - t0
                               + prof.call_overhead_ns)

    timed_backward.__profiled_original__ = fn
    return timed_backward


def _op_name(owner, attr, fn):
    if isinstance(owner, type):
        if attr == "backward":
            return "autograd.backward"
        if owner.__name__ == "Tensor":
            return attr.strip("_")
        return f"{owner.__name__.lower()}.{attr}"
    return getattr(fn, "__name__", attr)


def _collect_targets():
    """(owner, attr) pairs to patch, resolved lazily at install time."""
    from .. import nn
    from ..models import propagation
    from ..nn import kernels, modules, ops, optim, tensor

    targets = [(tensor.Tensor, attr) for attr in _TENSOR_OPS
               if attr in vars(tensor.Tensor)]
    targets.append((tensor.Tensor, "backward"))
    targets += [(optim.Adam, "step"), (optim.SGD, "step")]
    for attr in _KERNEL_OPS:
        targets.append((kernels, attr))
    for attr in ops.__all__:
        targets.append((ops, attr))
    targets.append((optim, "clip_grad_norm"))
    targets.append((propagation, "propagate_levels"))
    # Aliased re-export namespaces: anything in repro.nn (or repro.nn.
    # modules' `kernels` reference — same module object) bound to one of
    # the originals above must point at the same wrapper.
    alias_spaces = (nn, modules)
    return targets, alias_spaces


def _install():
    """Patch every target; returns the undo list (owner, attr, original)."""
    targets, alias_spaces = _collect_targets()
    # Resolve every target before patching any: a stale target name
    # raises here, with nothing patched, instead of dropping its row.
    resolved = [(owner, attr, getattr(owner, attr))
                for owner, attr in targets]
    undo, wrappers = [], {}
    for owner, attr, original in resolved:
        if hasattr(original, "__profiled_original__"):
            continue
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            wrapper = wrappers[id(original)] = _timed(
                _op_name(owner, attr, original), original)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    originals = {id(orig): wrappers[id(orig)] for _o, _a, orig in undo}
    for space in alias_spaces:
        for attr in dir(space):
            bound = getattr(space, attr, None)
            wrapper = originals.get(id(bound))
            if wrapper is not None:
                undo.append((space, attr, bound))
                setattr(space, attr, wrapper)
    return undo


def _uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _calibrate(prof, iters=4000):
    """Measured prologue cost (ns) of the timing wrapper on a no-op.

    A wrapped child runs inside a wrapped parent with ``prof`` active,
    so the full path — frame stack, clock reads, stat recording, bytes
    probe — is exercised.  The wrapper already charges its parent the
    *measured* call span (which covers the epilogue); what is left
    uncompensated is the prologue (dispatch, frame push, first clock
    read), estimated here as total per-call overhead minus the span the
    wrapper observed for itself.  The calibration rows are dropped from
    the stats afterwards.
    """
    def noop():
        return None

    child = _timed("__calib_child__", noop)

    def loop():
        for _ in range(iters):
            child()

    parent = _timed("__calib_parent__", loop)
    t0 = time.perf_counter_ns()
    for _ in range(iters):
        noop()
    raw_ns = time.perf_counter_ns() - t0
    prof.call_overhead_ns = 0.0
    parent()
    parent_stat = prof.stats.pop("__calib_parent__", None)
    prof.stats.pop("__calib_child__", None)
    prof._frames().clear()
    if parent_stat is None or parent_stat.calls == 0:
        return 0.0
    total_ns = parent_stat.total_ms * 1e6
    observed_ns = (parent_stat.total_ms - parent_stat.self_ms) * 1e6
    full_per_call = (total_ns - raw_ns) / iters
    observed_per_call = observed_ns / iters
    return max(full_per_call - observed_per_call, 0.0)


@contextmanager
def profile():
    """Scoped tape-level profiling; yields the :class:`Profiler`.

    Not re-entrant (one profiler per process at a time); cheap to leave
    installed on tapes — closures wrapped inside the scope no-op once
    the scope exits.
    """
    global _ACTIVE
    from ..nn import tensor

    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a profiler is already active")
        prof = Profiler()
        undo = _install()
        tensor._set_tape_profile_hook(_tape_backward_hook)
        _ACTIVE = prof
        prof.call_overhead_ns = _calibrate(prof)
    t0 = time.perf_counter()
    try:
        with get_tracer().span("obs.profile") as span:
            try:
                yield prof
            finally:
                prof.wall_ms = (time.perf_counter() - t0) * 1000.0
                top = prof.top(3)
                span.set(ops=len(prof.stats),
                         total_self_ms=round(prof.total_self_ms(), 3),
                         top_ops=",".join(s.name for s in top))
    finally:
        with _INSTALL_LOCK:
            _ACTIVE = None
            tensor._set_tape_profile_hook(None)
            _uninstall(undo)


def profile_train_step(graph, backend="fused", cfg=None, warmup=2, reps=4):
    """Profile a full TimingGNN train step on ``graph`` per ``backend``.

    Runs ``warmup`` untimed steps (builds cached level/segment
    schedules), measures ``reps`` *unprofiled* reference steps keeping
    the fastest, then ``reps`` independently profiled steps keeping the
    fastest trial (min-vs-min is robust to GC pauses and scheduler
    noise).  Returns ``(profiler, reference_ms)`` — the per-op table's
    total self-time should land within a few percent of
    ``reference_ms`` (the acceptance bar is 10%).
    """
    from .. import nn
    from ..models import ModelConfig, TimingGNN
    from ..training.loss import combined_loss

    cfg = cfg or ModelConfig.benchmark()
    reps = max(int(reps), 1)
    with nn.use_kernels(backend):
        model = TimingGNN(cfg, rng=np.random.default_rng(cfg.seed))
        optimizer = nn.Adam(model.parameters(), lr=1e-3)

        def step():
            pred = model(graph)
            loss, _parts = combined_loss(pred, graph)
            optimizer.zero_grad()
            loss.backward(free=True)
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()

        for _ in range(max(int(warmup), 1)):
            step()
        reference_ms = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            step()
            reference_ms = min(reference_ms,
                               (time.perf_counter() - t0) * 1000.0)
        best = None
        for _ in range(reps):
            with profile() as prof:
                step()
            if best is None or prof.wall_ms < best.wall_ms:
                best = prof
    return best, reference_ms


def format_profile_table(prof, top=20, reference_ms=None, title=""):
    """Human-readable top-K op table of one profiled region."""
    stats = prof.top()
    total_self = sum(stat.self_ms for stat in stats)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'op':<28}{'calls':>7}{'total ms':>11}{'self ms':>10}"
                 f"{'self %':>8}{'MB out':>9}")
    for stat in stats[:top]:
        pct = 100.0 * stat.self_ms / max(total_self, 1e-12)
        lines.append(f"{stat.name:<28}{stat.calls:>7}"
                     f"{stat.total_ms:>11.2f}{stat.self_ms:>10.2f}"
                     f"{pct:>7.1f}%{stat.bytes_out / 1e6:>9.1f}")
    hidden = len(stats) - min(top, len(stats))
    if hidden > 0:
        rest = sum(stat.self_ms for stat in stats[top:])
        lines.append(f"{f'... {hidden} more ops':<28}{'':>7}"
                     f"{'':>11}{rest:>10.2f}")
    summary = f"{'TOTAL (self)':<28}{'':>7}{'':>11}{total_self:>10.2f}"
    if reference_ms:
        summary += (f"   = {100.0 * total_self / reference_ms:.1f}% of "
                    f"unprofiled {reference_ms:.2f} ms")
    lines.append(summary)
    return "\n".join(lines)
