"""Thread-safe LRU cache with hit/miss/eviction accounting.

Used by the prediction service for two warm caches: extracted
``HeteroGraph`` artefacts (keyed by content hash of the placed netlist)
and finished prediction payloads (keyed by model version + graph key).

Accounting lives in :mod:`repro.obs` counters.  Pass a shared
``MetricsRegistry`` (as :class:`~repro.serving.service.PredictionService`
does) and the cache's hits/misses/evictions/size appear on the
Prometheus ``/metrics`` endpoint, labelled ``{cache="<name>"}``;
:meth:`stats` reads the very same instruments, so the JSON and
Prometheus views cannot disagree.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs import MetricsRegistry

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    All operations take a single internal lock, so the cache itself is
    safe under concurrent access.  :meth:`get_or_create` additionally
    serializes *per-key* factory calls, so N concurrent first requests
    for the same design extract its graph once, not N times — while
    factories for different keys run concurrently.
    """

    def __init__(self, capacity=128, registry=None, name=""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.name = name
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self._key_locks = {}
        metrics = registry if registry is not None else MetricsRegistry()
        labels = {"cache": name} if name else {}
        self._hits = metrics.counter(
            "repro_cache_hits_total", "Cache lookups served from memory.",
            **labels)
        self._misses = metrics.counter(
            "repro_cache_misses_total", "Cache lookups that missed.",
            **labels)
        self._evictions = metrics.counter(
            "repro_cache_evictions_total",
            "Entries dropped by LRU eviction.", **labels)
        self._size = metrics.gauge(
            "repro_cache_size", "Entries currently cached.", **labels)

    def __len__(self):
        with self._lock:
            return len(self._data)

    def __contains__(self, key):
        with self._lock:
            return key in self._data

    def get(self, key, default=None):
        """Look up ``key``; counts a hit or miss and refreshes recency."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses.inc()
                return default
            self._data.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._data))

    def get_or_create(self, key, factory):
        """Return the cached value, building it with ``factory()`` on miss.

        Returns ``(value, hit)``.  Concurrent misses on the same key run
        the factory exactly once.  A factory that raises caches nothing
        and leaves no per-key lock behind; the next miss runs it again.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self._hits.inc()
                return value, True
            key_lock = self._key_locks.get(key)
            if key_lock is None:
                key_lock = self._key_locks[key] = threading.Lock()
        with key_lock:
            try:
                with self._lock:
                    value = self._data.get(key, _MISSING)
                    if value is not _MISSING:
                        self._data.move_to_end(key)
                        self._hits.inc()
                        return value, True
                    self._misses.inc()
                value = factory()
                self.put(key, value)
                return value, False
            finally:
                # Returned or raised, the per-key lock goes; one that a
                # later caller re-created belongs to that caller.
                with self._lock:
                    if self._key_locks.get(key) is key_lock:
                        del self._key_locks[key]

    def clear(self):
        with self._lock:
            self._data.clear()
            self._size.set(0)

    def stats(self):
        hits = int(self._hits.value)
        misses = int(self._misses.value)
        total = hits + misses
        return {"size": len(self), "capacity": self.capacity,
                "hits": hits, "misses": misses,
                "evictions": int(self._evictions.value),
                "hit_rate": (hits / total) if total else 0.0}
