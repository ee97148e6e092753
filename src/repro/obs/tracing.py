"""Span-based tracing with parent/child nesting and JSONL export.

Usage::

    from repro.obs import get_tracer

    tracer = get_tracer()
    with tracer.span("flow.place", design="spm") as sp:
        ...
        sp.set(hpwl=123.4)          # attach attributes mid-span

Spans nest per thread: a span opened while another is active on the
same thread records it as its parent, and the outermost span of a chain
mints the ``trace_id`` every descendant shares.  Finished spans are
retained in a bounded buffer (for ``repro trace`` and tests) and, when
a sink is set — explicitly via :meth:`Tracer.set_sink` or through the
``REPRO_TRACE=<path>`` environment variable — appended to that file as
one JSON object per line (a rotating :class:`~repro.obs.jsonl.JsonlLog`,
which also reads a sink back: ``JsonlLog(path, "span_id").scan()``).

Tracing is cheap (one clock read and a small object per span) but can
be switched off wholesale with ``tracer.enabled = False``, which turns
``span()`` into a no-op.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from collections import deque

from . import jsonl

__all__ = ["Span", "Tracer", "get_tracer", "format_span_tree",
           "mint_trace_id"]


def mint_trace_id():
    """A fresh 16-hex-char trace id (front-ends mint one per request)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation; finished spans are immutable records."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start_ts", "duration_ms", "thread", "status", "_t0")

    def __init__(self, name, trace_id, parent_id, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = uuid.uuid4().hex[:16]
        self.parent_id = parent_id
        self.attrs = dict(attrs)
        self.start_ts = time.time()
        self.duration_ms = None
        self.thread = threading.current_thread().name
        self.status = "ok"
        self._t0 = time.perf_counter()

    def set(self, **attrs):
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)

    def to_dict(self):
        return {"name": self.name, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "start_ts": round(self.start_ts, 6),
                "duration_ms": (round(self.duration_ms, 4)
                                if self.duration_ms is not None else None),
                "thread": self.thread, "status": self.status,
                "attrs": self.attrs}


class _NullSpan:
    """Stand-in yielded when tracing is disabled; absorbs writes."""

    __slots__ = ()

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Per-process span factory with a bounded retention buffer."""

    def __init__(self, keep=10000, enabled=True):
        self.enabled = enabled
        self._retained = deque(maxlen=int(keep))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sink = None            # a JsonlLog while a sink is set

    # -- span lifecycle --------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, trace_id=None, parent_id=None, **attrs):
        """Open a span; ``trace_id``/``parent_id`` override inheritance.

        Without the overrides a span joins the innermost open span on
        this thread (or mints a fresh trace).  With them, a transport
        can root the trace under an id it chose: the HTTP front-end
        mints (or adopts) one per request and returns it to the caller.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent else mint_trace_id()
        if parent_id is None:
            parent_id = parent.span_id if parent else None
        span = Span(name, trace_id, parent_id, attrs)
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.duration_ms = (time.perf_counter() - span._t0) * 1000.0
            stack.pop()
            self._finish(span)

    def _finish(self, span):
        record = span.to_dict()
        with self._lock:
            self._retained.append(record)
        sink = self._sink
        if sink is not None:
            try:
                sink.append(record)
            except OSError:
                pass   # telemetry must never fail the traced work

    # -- export ----------------------------------------------------------------
    def set_sink(self, path):
        """Append every finished span to the JSONL file at ``path``.

        The file rotates to ``<path>.1`` once it holds
        ``jsonl.ROTATE_BYTES`` — one generation is kept — so a
        long-running ``REPRO_TRACE`` session never grows a trace without
        bound.  Nothing is opened here: each span appends on its own
        (creating a missing directory), and a span that cannot be
        written is only missing from the file.
        """
        self._sink = jsonl.JsonlLog(path, "span_id",
                                    max_bytes=jsonl.ROTATE_BYTES)

    def clear_sink(self):
        self._sink = None

    def spans(self):
        """Finished spans (as dicts), oldest first."""
        with self._lock:
            return list(self._retained)

    def reset(self):
        """Drop retained spans (sink, if any, is left in place)."""
        with self._lock:
            self._retained.clear()


def format_span_tree(records):
    """Indented parent/child rendering of finished span records.

    Accepts span dicts (as stored by the tracer or read back from a
    JSONL trace) and returns one line per span, children indented under
    their parents, ordered by start time.
    """
    by_parent = {}
    index = {}
    for record in records:
        index[record["span_id"]] = record
        by_parent.setdefault(record["parent_id"], []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda r: r["start_ts"])

    lines = []

    def visit(record, depth):
        attrs = " ".join(f"{k}={v}" for k, v in record["attrs"].items())
        duration = record["duration_ms"]
        duration_txt = (f"{duration:9.2f} ms" if duration is not None
                        else "      ?    ")
        flag = "" if record["status"] == "ok" else "  [ERROR]"
        lines.append(f"{duration_txt}  {'  ' * depth}{record['name']}"
                     f"{('  ' + attrs) if attrs else ''}{flag}")
        for child in by_parent.get(record["span_id"], []):
            visit(child, depth + 1)

    roots = [r for r in records
             if r["parent_id"] is None or r["parent_id"] not in index]
    roots.sort(key=lambda r: r["start_ts"])
    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


_default_tracer = Tracer()
if os.environ.get("REPRO_TRACE"):
    _default_tracer.set_sink(os.environ["REPRO_TRACE"])


def get_tracer():
    """The process-wide default tracer."""
    return _default_tracer
