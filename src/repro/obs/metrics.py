"""Thread-safe metrics: counters, gauges, histograms, Prometheus export.

A :class:`MetricsRegistry` is the single source of truth for every
numeric fact the system reports about itself.  The serving ``/stats``
JSON and the Prometheus ``/metrics`` text endpoint are both *views* of
one registry, so they cannot drift apart.

Instruments:

* :class:`Counter`   — monotonically increasing (requests, cache hits);
* :class:`Gauge`     — a value that goes up and down (queue depth);
* :class:`Histogram` — observations with count/sum/min/max plus
  streaming quantiles from a bounded rolling reservoir.  Rendered in
  Prometheus *summary* form (``{quantile="0.5"}`` samples + ``_sum`` and
  ``_count``).

Instruments can be built standalone (``Counter("x")``) or through a
registry, which deduplicates by ``(name, labels)`` and renders the
whole family in Prometheus text exposition format.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "get_registry", "set_registry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels):
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return dict(sorted(labels.items()))


def _escape_label_value(value):
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value):
    if value != value:                       # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labels, extra=None):
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in merged.items())
    return "{" + inner + "}"


class _Instrument:
    """Common name/labels/help plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name, help="", **labels):
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help="", **labels):
        super().__init__(name, help, **labels)
        self._value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def samples(self):
        return [(self.name, self.labels, self.value)]

    def snapshot(self):
        return self.value


class Gauge(_Instrument):
    """Instantaneous value (may go up or down)."""

    kind = "gauge"

    def __init__(self, name, help="", **labels):
        super().__init__(name, help, **labels)
        self._value = 0.0

    def set(self, value):
        with self._lock:
            self._value = float(value)

    def inc(self, amount=1.0):
        with self._lock:
            self._value += amount

    def dec(self, amount=1.0):
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value

    def samples(self):
        return [(self.name, self.labels, self.value)]

    def snapshot(self):
        return self.value


class Histogram(_Instrument):
    """Observations with streaming quantiles.

    Tracks exact ``count``/``sum``/``min``/``max`` over the full stream
    and keeps a bounded rolling reservoir (the most recent
    ``reservoir`` observations) for quantile estimates — exact while
    the stream fits in the reservoir, a sliding-window estimate after.
    """

    kind = "summary"

    def __init__(self, name, help="", quantiles=(0.5, 0.9, 0.99),
                 reservoir=4096, **labels):
        super().__init__(name, help, **labels)
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q} outside [0, 1]")
        self._sample = deque(maxlen=int(reservoir))
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value):
        value = float(value)
        with self._lock:
            self._sample.append(value)
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self):
        with self._lock:
            return self._count

    @property
    def sum(self):
        with self._lock:
            return self._sum

    def quantile(self, q):
        """Streaming quantile estimate; NaN when no observations yet."""
        with self._lock:
            if not self._sample:
                return float("nan")
            data = np.asarray(self._sample, dtype=float)
        return float(np.quantile(data, q))

    def sketch(self, max_points=256):
        """Bounded quantile sketch of the stream so far.

        Returns ``{count, sum, min, max, sample}`` where ``sample`` is
        the reservoir itself (sorted) while it fits in ``max_points``,
        and an evenly spaced quantile grid of it after — either way a
        bounded, JSON-friendly stand-in for the distribution (each
        point stands for ``count / len(sample)`` observations).
        """
        with self._lock:
            count, total = self._count, self._sum
            lo = self._min if self._count else 0.0
            hi = self._max if self._count else 0.0
            data = (np.asarray(self._sample, dtype=float)
                    if self._sample else None)
        if data is None:
            sample = []
        elif len(data) <= int(max_points):
            sample = np.sort(data).tolist()
        else:
            grid = np.linspace(0.0, 1.0, int(max_points))
            sample = np.quantile(data, grid).tolist()
        return {"count": count, "sum": total, "min": lo, "max": hi,
                "sample": sample}

    def snapshot(self):
        with self._lock:
            count, total = self._count, self._sum
            lo = self._min if self._count else 0.0
            hi = self._max if self._count else 0.0
            data = (np.asarray(self._sample, dtype=float)
                    if self._sample else None)
        out = {"count": count, "sum": total, "min": lo, "max": hi,
               "mean": (total / count) if count else 0.0}
        for q in self.quantiles:
            key = f"p{q * 100:g}".replace(".", "_")
            out[key] = (float(np.quantile(data, q))
                        if data is not None else 0.0)
        return out

    def samples(self):
        snap = self.snapshot()
        out = []
        for q in self.quantiles:
            key = f"p{q * 100:g}".replace(".", "_")
            out.append((self.name, dict(self.labels, quantile=f"{q:g}"),
                        snap[key]))
        out.append((self.name + "_sum", self.labels, snap["sum"]))
        out.append((self.name + "_count", self.labels, snap["count"]))
        return out


class MetricsRegistry:
    """Thread-safe instrument registry with Prometheus text export.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same ``(name, labels)`` returns the same instrument, so
    modules can declare their metrics at use sites without coordination.
    One name maps to one instrument kind; a kind conflict raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}          # (name, labels-tuple) -> instrument
        self._kinds = {}                # name -> kind
        self._helps = {}                # name -> help text

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            if name in self._kinds and self._kinds[name] != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{self._kinds[name]}, not {cls.kind}")
            instrument = cls(name, help=help, **kwargs, **labels)
            self._instruments[key] = instrument
            self._kinds[name] = cls.kind
            if help or name not in self._helps:
                self._helps[name] = help
            return instrument

    def counter(self, name, help="", **labels):
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name, help="", **labels):
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name, help="", quantiles=(0.5, 0.9, 0.99),
                  reservoir=4096, **labels):
        return self._get_or_create(Histogram, name, help, labels,
                                   quantiles=quantiles, reservoir=reservoir)

    def get(self, name, **labels):
        """Existing instrument for ``(name, labels)`` or None."""
        key = (name, tuple(sorted(_check_labels(labels).items())))
        with self._lock:
            return self._instruments.get(key)

    def instruments(self):
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self):
        """Nested JSON-friendly view: name -> [{labels, value}, ...]."""
        out = {}
        for instrument in self.instruments():
            out.setdefault(instrument.name, []).append(
                {"labels": instrument.labels,
                 "value": instrument.snapshot()})
        return out

    def render_prometheus(self):
        """Prometheus text exposition format (version 0.0.4)."""
        by_name = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines = []
        for name in sorted(by_name):
            family = by_name[name]
            help_text = self._helps.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family[0].kind}")
            for instrument in family:
                for sample_name, labels, value in instrument.samples():
                    lines.append(f"{sample_name}{_label_str(labels)} "
                                 f"{_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry():
    """The process-wide default registry (flow/STA/training metrics)."""
    return _default_registry


def set_registry(registry):
    """Swap the process-wide default registry; returns the old one."""
    global _default_registry
    with _default_lock:
        old, _default_registry = _default_registry, registry
        return old
