"""Observability: metrics, tracing, logging, run ledger and profiling.

The measurement substrate of the reproduction (DESIGN.md §3).  Six
independent primitives, one import point:

* :mod:`.metrics` — thread-safe :class:`MetricsRegistry` of counters,
  gauges and histograms (streaming quantiles), rendered either as a
  JSON snapshot (``/stats``) or in Prometheus text exposition format
  (``/metrics``);
* :mod:`.tracing` — nested spans (``with tracer.span("flow.place")``)
  with per-thread parent tracking, bounded retention and rotating JSONL
  export (``REPRO_TRACE=<path>``, bounded by ``REPRO_TRACE_MAX_LINES``);
* :mod:`.logging` — structured key=value records with per-module
  levels (``REPRO_LOG=repro.training=debug``);
* :mod:`.runs` — append-only, schema-versioned run ledger under
  ``REPRO_RUNS_DIR``: every training run leaves a durable JSONL record
  (config fingerprint, loss series, per-design R²) that ``repro runs``
  and ``repro report --html`` (:mod:`.report`, which also renders the
  ``repro top`` dashboard frame) consume;
* :mod:`.profile` — opt-in tape-level profiler: per-op / per-kernel
  wall time and output bytes on both autograd backends, with backward
  closures attributed per op (``repro profile``);
* :mod:`.quality` — online prediction-quality monitoring: budget-limited
  shadow-STA audits of served predictions (``REPRO_AUDIT_RATE``), shared
  endpoint accuracy metrics, PSI feature-drift detection against
  train-time :class:`FeatureProfile` references
  (``REPRO_DRIFT_THRESHOLD``), a rotated JSONL audit log, and the
  rolling latency and accuracy SLOs behind ``/healthz``.

The flow, STA engine, extraction and training instrument the
process-wide defaults (:func:`get_registry`, :func:`get_tracer`,
:func:`get_logger`); the serving stack wires a per-service registry so
co-hosted services stay separable.
"""

from .logging import (LEVELS, Logger, LogManager, configure, get_logger)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      get_registry, set_registry)
from .profile import (OpStat, Profiler, format_profile_table, profile,
                      profile_train_step)
from .quality import (AccuracySlo, AuditLog, DriftTracker, FeatureProfile,
                      QualityMonitor, SloTracker, audit_rate,
                      default_audit_log_path, drift_threshold)
from .report import render_html_report, render_top, write_html_report
from .runs import (RUNS_SCHEMA_VERSION, RunLedger, config_fingerprint,
                   default_ledger, default_runs_dir, new_run_id,
                   record_run)
from .tracing import (Span, Tracer, format_span_tree, get_tracer,
                      iter_trace_records, mint_trace_id)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
    "Span", "Tracer", "format_span_tree", "get_tracer",
    "iter_trace_records", "mint_trace_id",
    "LEVELS", "Logger", "LogManager", "configure", "get_logger",
    "RUNS_SCHEMA_VERSION", "RunLedger", "config_fingerprint",
    "default_ledger", "default_runs_dir", "new_run_id", "record_run",
    "OpStat", "Profiler", "profile", "profile_train_step",
    "format_profile_table",
    "AccuracySlo", "AuditLog", "DriftTracker", "FeatureProfile",
    "QualityMonitor", "SloTracker", "audit_rate", "default_audit_log_path",
    "drift_threshold",
    "render_html_report", "render_top", "write_html_report",
]
