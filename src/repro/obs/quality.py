"""Online service health: shadow-STA audits, drift and the two SLOs.

Latency and throughput observability (metrics/tracing) say whether the
service is *fast*; nothing so far said whether it is still *right*.
This module closes that gap with three pieces:

* **Shadow-STA auditing** — :class:`QualityMonitor` samples a
  configurable fraction of served predictions (``REPRO_AUDIT_RATE``,
  default 0 = off) and, on a background thread, compares the served
  arrival times against the ground-truth STA labels the graph extraction
  already computed.  The request path only pays for one array copy and a
  non-blocking queue put; everything else — endpoint metrics, counters,
  the JSONL audit log — happens off-path.  A token-bucket budget
  (``REPRO_AUDIT_BUDGET`` audits/minute) and a bounded queue
  (drop-on-full) keep the auditor from ever becoming the bottleneck.
* **Endpoint accuracy metrics** — audits call the same
  :func:`repro.training.evaluate.endpoint_metrics_for` used by offline
  evaluation, so the online numbers and the run-ledger numbers are
  identical for the same (model, design) — differentially tested.
* **Feature-drift detection** — :class:`FeatureProfile` captures
  per-channel decile histograms of ``HeteroGraph`` node features at
  train time (stored as a ``.profile.json`` sidecar next to the model
  checkpoint); :class:`DriftTracker` accumulates the served feature
  distribution online and scores the divergence with a PSI (population
  stability index) per channel.  Scores above ``REPRO_DRIFT_THRESHOLD``
  raise alert counters and structured-log events.

Both service-level objectives behind ``/healthz`` live here too, on one
rolling good/bad window: :class:`SloTracker` scores request latency and
:class:`AccuracySlo` scores audited slack error.

The audit log (``audits.jsonl`` under ``REPRO_RUNS_DIR``) is a
:class:`~repro.obs.jsonl.JsonlLog` like the run ledger and the trace
sink: one atomic write per record, corrupt-line-tolerant reads of both
generations, and rotation to ``<path>.1`` at the shared size bound.
"""

from __future__ import annotations

import json
import os
import queue
import random
import threading
import time
from collections import deque

import numpy as np

from . import jsonl
from .logging import get_logger
from .runs import default_runs_dir, new_run_id

__all__ = ["FeatureProfile", "DriftTracker", "AuditLog", "QualityMonitor",
           "SloTracker", "AccuracySlo", "audit_rate", "drift_threshold",
           "default_audit_log_path"]

_log = get_logger("repro.obs.quality")

AUDIT_LOG_NAME = "audits.jsonl"


def _env_float(name, default):
    try:
        return float(os.environ.get(name, default) or default)
    except (TypeError, ValueError):
        return float(default)


def audit_rate():
    """Fraction of served requests to shadow-audit (``REPRO_AUDIT_RATE``)."""
    return min(max(_env_float("REPRO_AUDIT_RATE", 0.0), 0.0), 1.0)


def drift_threshold():
    """PSI score above which drift alerts fire (``REPRO_DRIFT_THRESHOLD``)."""
    return _env_float("REPRO_DRIFT_THRESHOLD", 0.25)


def default_audit_log_path(root=None):
    return os.path.join(root or default_runs_dir(), AUDIT_LOG_NAME)


# -- feature-drift reference profiles --------------------------------------------
class FeatureProfile:
    """Per-channel reference distribution of extracted node features.

    Captured once from the training graphs: per-channel count/mean/std
    plus decile bin edges and reference bin probabilities.  Serialized
    as a JSON sidecar next to the model checkpoint so a warm registry
    reload gets the same reference the model was trained against.
    """

    def __init__(self, mean, std, edges, probs, count):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.edges = np.asarray(edges, dtype=np.float64)    # (C, bins+1)
        self.probs = np.asarray(probs, dtype=np.float64)    # (C, bins)
        self.count = int(count)

    @property
    def num_channels(self):
        return self.edges.shape[0]

    @property
    def bins(self):
        return self.edges.shape[1] - 1

    @classmethod
    def from_graphs(cls, graphs, bins=10):
        """Profile the pooled node features of a set of graphs."""
        X = np.concatenate(
            [np.asarray(g.node_features, dtype=np.float64) for g in graphs],
            axis=0)
        qs = np.linspace(0.0, 1.0, int(bins) + 1)
        edges = np.quantile(X, qs, axis=0).T
        profile = cls(X.mean(axis=0), X.std(axis=0), edges,
                      np.zeros((edges.shape[0], int(bins))), X.shape[0])
        counts = profile.bin_counts(X)
        totals = np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
        profile.probs = counts / totals
        return profile

    def bin_counts(self, features):
        """Observed per-channel bin counts of a feature matrix, (C, bins).

        Binning uses each channel's *inner* edges, so every value lands
        in some bin (open-ended extremes).  A constant channel has all
        inner edges equal: reference and observed mass both collapse
        into one bin and its PSI is exactly zero — no special-casing.
        """
        X = np.asarray(features, dtype=np.float64)
        counts = np.empty((self.num_channels, self.bins), dtype=np.float64)
        for c in range(self.num_channels):
            idx = np.searchsorted(self.edges[c, 1:-1], X[:, c],
                                  side="right")
            counts[c] = np.bincount(idx, minlength=self.bins)[:self.bins]
        return counts

    def psi(self, observed_counts, eps=1e-4):
        """Per-channel PSI of observed counts vs. the reference, (C,)."""
        obs = np.asarray(observed_counts, dtype=np.float64)
        totals = np.maximum(obs.sum(axis=1, keepdims=True), 1.0)
        q = np.clip(obs / totals, eps, None)
        p = np.clip(self.probs, eps, None)
        q = q / q.sum(axis=1, keepdims=True)
        p = p / p.sum(axis=1, keepdims=True)
        return ((q - p) * np.log(q / p)).sum(axis=1)

    # -- persistence ------------------------------------------------------------
    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist(),
                "edges": self.edges.tolist(), "probs": self.probs.tolist(),
                "count": self.count}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["mean"], payload["std"], payload["edges"],
                   payload["probs"], payload["count"])

    def save(self, path):
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class DriftTracker:
    """Accumulates served feature histograms against one reference."""

    def __init__(self, profile):
        self.profile = profile
        self._counts = np.zeros_like(profile.probs)
        self._graphs = 0
        self._lock = threading.Lock()

    def observe(self, features):
        counts = self.profile.bin_counts(features)
        with self._lock:
            self._counts += counts
            self._graphs += 1

    def score(self):
        """``{max, mean, graphs, channels}`` PSI summary (NaN-free)."""
        with self._lock:
            counts = self._counts.copy()
            graphs = self._graphs
        if graphs == 0:
            return {"max": 0.0, "mean": 0.0, "graphs": 0, "channels": []}
        psi = self.profile.psi(counts)
        return {"max": float(psi.max()), "mean": float(psi.mean()),
                "graphs": graphs,
                "channels": [round(float(v), 6) for v in psi]}


# -- the audit log ---------------------------------------------------------------
class AuditLog(jsonl.JsonlLog):
    """JSONL log of shadow-audit records, rotated at ``ROTATE_BYTES``.

    ``scan`` and ``get`` read the rotated generation (``<path>.1``)
    before the live file; ``get`` takes an audit id or a prefix of one.
    """

    def __init__(self, path=None):
        super().__init__(path or default_audit_log_path(), "audit_id",
                         max_bytes=jsonl.ROTATE_BYTES)

    def append(self, record):
        """Append one audit record; returns the stamped record."""
        record = dict(record)
        record.setdefault("audit_id", new_run_id("audit"))
        record.setdefault(
            "recorded_at",
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        return super().append(record)


# -- service-level objectives ----------------------------------------------------
class _RollingWindow:
    """Good/bad outcomes of the last ``window`` events, thread-safe.

    The shared core of both SLOs: the ratio is a recent-health signal
    rather than a lifetime average, and an empty window reads healthy.
    """

    def __init__(self, window):
        self.window = max(int(window), 1)
        self._lock = threading.Lock()
        self._events = deque(maxlen=self.window)

    def _record(self, good):
        good = bool(good)
        with self._lock:
            self._events.append(good)
        return good

    def _counts(self):
        """``(total, good)`` over the window."""
        with self._lock:
            return len(self._events), sum(self._events)

    def summary(self):
        total, good = self._counts()
        return {"window": self.window, "total": total, "good": good,
                "bad": total - good,
                "good_ratio": round(good / total, 4) if total else 1.0}


class SloTracker(_RollingWindow):
    """Rolling good/bad request ratio against a latency objective.

    A request is *good* when it succeeded within ``objective_ms``
    end-to-end; internal faults, delta 504s and over-objective responses
    are bad.  Defaults come from ``REPRO_SLO_LATENCY_MS`` (500) and
    ``REPRO_SLO_WINDOW`` (512).
    """

    def __init__(self, objective_ms=None, window=None):
        if objective_ms is None:
            objective_ms = float(os.environ.get("REPRO_SLO_LATENCY_MS",
                                                500.0) or 500.0)
        if window is None:
            window = int(os.environ.get("REPRO_SLO_WINDOW", 512) or 512)
        super().__init__(window)
        self.objective_ms = float(objective_ms)

    def record(self, latency_ms, ok=True):
        return self._record(ok and latency_ms is not None
                            and float(latency_ms) <= self.objective_ms)

    def summary(self):
        return {"objective_ms": self.objective_ms, **super().summary()}


class AccuracySlo(_RollingWindow):
    """Rolling good/bad window against a slack-MAE objective (in ps).

    The accuracy sibling of the latency :class:`SloTracker`: an audit
    is *good* when its worst-slack MAE stays within
    ``REPRO_SLO_SLACK_MAE_PS`` (default 50 ps) over the last
    ``REPRO_SLO_ACCURACY_WINDOW`` audits (default 256).  ``ok()`` trips
    once the good ratio falls below ``REPRO_SLO_ACCURACY_RATIO``
    (default 0.9) — surfaced as ``degraded`` by ``/healthz``.
    """

    def __init__(self, objective_ps=None, window=None, min_ratio=None):
        if objective_ps is None:
            objective_ps = _env_float("REPRO_SLO_SLACK_MAE_PS", 50.0)
        if window is None:
            window = int(os.environ.get("REPRO_SLO_ACCURACY_WINDOW",
                                        256) or 256)
        if min_ratio is None:
            min_ratio = _env_float("REPRO_SLO_ACCURACY_RATIO", 0.9)
        super().__init__(window)
        self.objective_ps = float(objective_ps)
        self.min_ratio = float(min_ratio)
        self._errors = deque(maxlen=self.window)

    def record(self, slack_mae_ps):
        value = float(slack_mae_ps)
        finite = bool(np.isfinite(value))
        if finite:
            with self._lock:
                self._errors.append(value)
        return self._record(finite and value <= self.objective_ps)

    def rolling_mae(self):
        with self._lock:
            if not self._errors:
                return None
            return float(np.mean(self._errors))

    def ok(self):
        total, good = self._counts()
        return total == 0 or good / total >= self.min_ratio

    def summary(self):
        return {"objective_ps": self.objective_ps, **super().summary(),
                "min_ratio": self.min_ratio}


# -- the monitor -----------------------------------------------------------------
class QualityMonitor:
    """Budget-limited async shadow-STA auditor for one serving process.

    Its metric families are ``repro_quality_*``.  ``maybe_audit`` is the
    only request-path entry point and does O(copy) work; everything else
    runs on a daemon thread that is started lazily on the first sampled
    request, so a service that never samples never starts it.
    """

    QUEUE_REASONS = ("queue_full", "budget", "error")

    def __init__(self, registry=None, rate=None,
                 budget_per_min=None, log_path=None, threshold=None,
                 slo=None, queue_size=64, seed=None):
        from .metrics import MetricsRegistry
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.rate = audit_rate() if rate is None else min(max(
            float(rate), 0.0), 1.0)
        if budget_per_min is None:
            budget_per_min = _env_float("REPRO_AUDIT_BUDGET", 120.0)
        self.budget_per_min = max(float(budget_per_min), 0.0)
        self.threshold = drift_threshold() if threshold is None \
            else float(threshold)
        self.slo = slo or AccuracySlo()
        self.log = AuditLog(path=log_path) if log_path is not False \
            else None
        self._rng = random.Random(seed)
        self._queue = queue.Queue(maxsize=int(queue_size))
        self._pending = 0
        self._lock = threading.Lock()
        self._thread = None
        self._stopped = False
        self._tokens = self.budget_per_min   # token bucket, refills /s
        self._token_ts = time.monotonic()
        self._drift = {}                     # model name -> DriftTracker
        self.enabled = self.rate > 0.0
        if self.enabled:
            self._make_instruments()

    def _make_instruments(self):
        self._c_audits = self.registry.counter(
            "repro_quality_audits_total", "Shadow-STA audits completed.")
        self._c_drops = {
            reason: self.registry.counter(
                "repro_quality_audit_drops_total",
                "Sampled requests dropped before auditing, by reason.",
                reason=reason)
            for reason in self.QUEUE_REASONS}
        self._c_alerts = self.registry.counter(
            "repro_quality_drift_alerts_total",
            "Audits whose PSI drift score exceeded the threshold.")
        self._h_mae = self.registry.histogram(
            "repro_quality_slack_mae_ps",
            "Per-audit worst-slack MAE (served vs ground truth), ps.")
        self._h_wns = self.registry.histogram(
            "repro_quality_wns_setup_err_ps",
            "Per-audit absolute setup-WNS error, ps.")
        self._h_rank = self.registry.histogram(
            "repro_quality_rank_setup",
            "Per-audit endpoint setup-slack Spearman rank correlation.")
        self._g_drift = self.registry.gauge(
            "repro_quality_drift_score",
            "Max-channel PSI of served features vs the train profile.")

    # -- request-path entry point ------------------------------------------------
    def maybe_audit(self, graph, arrival, *, design=None, model=None,
                    model_version=None, request_id=None, profile=None):
        """Sample this served prediction for auditing; never blocks.

        ``model_version`` is the registry version that served it, so an
        audit record traces accuracy to the exact checkpoint.

        ``arrival`` is copied immediately: served outputs may live in
        arena-recycled buffers that a later forward overwrites, so a
        deferred read without a copy would audit corrupted data.
        """
        if not self.enabled or self._stopped:
            return False
        if self._rng.random() >= self.rate:
            return False
        if not self._take_token():
            self._c_drops["budget"].inc()
            return False
        item = (graph, np.array(arrival, dtype=np.float64, copy=True),
                design or getattr(graph, "name", "?"), model,
                model_version, request_id, profile, time.time())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._c_drops["queue_full"].inc()
            return False
        with self._lock:
            self._pending += 1
        self._ensure_thread()
        return True

    def _take_token(self):
        if self.budget_per_min <= 0:
            return False
        now = time.monotonic()
        with self._lock:
            self._tokens = min(
                self.budget_per_min,
                self._tokens + (now - self._token_ts)
                * self.budget_per_min / 60.0)
            self._token_ts = now
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True

    def _ensure_thread(self):
        if self._thread is not None and self._thread.is_alive():
            return
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="quality-audit", daemon=True)
                self._thread.start()

    # -- the audit loop ----------------------------------------------------------
    def _loop(self):
        while not self._stopped:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._process(item)
            except Exception as exc:   # noqa: BLE001 — telemetry only
                self._c_drops["error"].inc()
                _log.warning("audit_failed", error=str(exc))
            finally:
                with self._lock:
                    self._pending -= 1

    def _process(self, item):
        (graph, arrival, design, model, model_version, request_id, profile,
         served_ts) = item
        # Lazy: training.evaluate imports back into obs (ledger).
        from ..training.evaluate import endpoint_metrics_for
        metrics = endpoint_metrics_for(graph, arrival)
        self._c_audits.inc()
        mae_ps = metrics.get("slack_mae", float("nan"))
        if np.isfinite(mae_ps):
            self._h_mae.observe(float(mae_ps))
        if np.isfinite(metrics.get("wns_setup_err", float("nan"))):
            self._h_wns.observe(float(metrics["wns_setup_err"]))
        if np.isfinite(metrics.get("rank_setup", float("nan"))):
            self._h_rank.observe(float(metrics["rank_setup"]))
        self.slo.record(mae_ps)

        drift_max = None
        if profile is not None:
            tracker = self._drift.get(model)
            if tracker is None or tracker.profile is not profile:
                tracker = self._drift[model] = DriftTracker(profile)
            tracker.observe(graph.node_features)
            score = tracker.score()
            drift_max = score["max"]
            self._g_drift.set(drift_max)
            if drift_max > self.threshold:
                self._c_alerts.inc()
                _log.warning("drift_alert", model=str(model),
                             design=str(design),
                             score=round(drift_max, 4),
                             threshold=self.threshold)

        summary = {"design": design, "model": model,
                   "model_version": model_version,
                   "request_id": request_id,
                   "slack_mae_ps": None if not np.isfinite(mae_ps)
                   else round(float(mae_ps), 6),
                   "drift_score": drift_max}
        if self.log is not None:
            try:
                self.log.append({**summary, "served_at": served_ts,
                                 "endpoint": metrics})
            except OSError:
                pass   # telemetry must never fail the auditor

    # -- introspection / lifecycle -----------------------------------------------
    def flush(self, timeout=5.0):
        """Wait until every enqueued audit has been processed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending == 0:
                    return True
            time.sleep(0.005)
        return False

    def drift_score(self):
        """Max PSI across every tracked model (None before any audit)."""
        scores = [tracker.score()["max"]
                  for tracker in self._drift.values()
                  if tracker.score()["graphs"]]
        return max(scores) if scores else None

    def stats(self):
        if not self.enabled:
            return {"enabled": False, "samples": 0}
        mae = self._h_mae.snapshot()
        return {
            "enabled": True,
            "rate": self.rate,
            "samples": int(self._c_audits.value),
            "dropped": {reason: int(counter.value)
                        for reason, counter in self._c_drops.items()},
            "slack_mae_ps": None if not mae["count"]
            else round(mae["mean"], 3),
            "slack_mae_p50_ps": None if not mae["count"]
            else round(mae["p50"], 3),
            "rank_setup": None if not self._h_rank.snapshot()["count"]
            else round(self._h_rank.snapshot()["mean"], 4),
            "drift_score": self.drift_score(),
            "drift_alerts": int(self._c_alerts.value),
            "slo": self.slo.summary(),
        }

    def healthz(self):
        """``{ok, breached, ...}`` — feeds the service ``degraded`` flag."""
        if not self.enabled:
            return {"ok": True, "enabled": False}
        breached = []
        if not self.slo.ok():
            breached.append("accuracy_slo")
        drift = self.drift_score()
        if drift is not None and drift > self.threshold:
            breached.append("drift")
        return {"ok": not breached, "enabled": True,
                "samples": int(self._c_audits.value),
                "slack_mae_ps": self.slo.rolling_mae(),
                "drift_score": drift, "drift_threshold": self.threshold,
                "accuracy_slo": self.slo.summary(), "breached": breached}

    def close(self, timeout=2.0):
        if self.enabled:
            self.flush(timeout=timeout)
        self._stopped = True
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=1.0)
