"""Append-only run ledger: durable history of training runs.

The live half of the observability stack (metrics/tracing/logging)
answers "what is happening right now"; this module answers "what has
happened across runs and PRs".  A :class:`RunLedger` is a JSONL file —
one run per line — under ``REPRO_RUNS_DIR`` (default ``.repro_runs/``
in the working directory):

* **schema-versioned** — every record carries ``schema_version`` so
  later readers can migrate or skip old shapes;
* **append-only, atomic** — each record is serialized to one line and
  written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
  concurrent writers (parallel trainers) never interleave partial
  lines;
* **corrupt-line tolerant** — reads skip lines that fail to parse (a
  crashed writer, a truncated disk) and report how many were skipped
  instead of refusing the whole history.

Every ``train_*`` call in :mod:`repro.training.trainer` appends a run;
``repro runs {ls,show,export}`` inspects the ledger and ``repro report
--html`` renders the whole trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid

import numpy as np

__all__ = ["RUNS_SCHEMA_VERSION", "RunLedger", "default_runs_dir",
           "default_ledger", "new_run_id", "config_fingerprint",
           "record_run"]

# v2 (PR 10): training records gain per-design endpoint accuracy metrics
# (``eval.<design>.endpoint``).  Purely additive — v1 readers that index
# known keys keep working, and this reader never rejects on version.
RUNS_SCHEMA_VERSION = 2


def default_runs_dir():
    """The ledger directory: ``REPRO_RUNS_DIR`` or ``.repro_runs/``."""
    return os.environ.get("REPRO_RUNS_DIR") or \
        os.path.join(os.getcwd(), ".repro_runs")


def new_run_id(kind="run"):
    """A unique, sortable run id: ``<kind>-<utc stamp>-<random hex>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{kind}-{stamp}-{uuid.uuid4().hex[:8]}"


def config_fingerprint(**parts):
    """Stable 16-hex digest of keyword config parts (dicts/lists/scalars)."""
    payload = json.dumps(parts, sort_keys=True, default=_jsonable)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _jsonable(value):
    """JSON fallback for numpy scalars/arrays and other odd values."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) \
            else list(value)
    return str(value)


class RunLedger:
    """Append-only JSONL run history under one directory.

    ``root`` defaults to :func:`default_runs_dir`; the ledger file is
    ``<root>/runs.jsonl``.  All methods are thread-safe; cross-process
    appends are safe through ``O_APPEND`` single-write semantics.
    """

    def __init__(self, root=None):
        self.root = root or default_runs_dir()
        self.path = os.path.join(self.root, "runs.jsonl")
        self._lock = threading.Lock()

    # -- writing ---------------------------------------------------------------
    def append(self, record):
        """Append one run record; returns the stamped record.

        ``run_id``, ``schema_version`` and ``recorded_at`` are filled in
        when missing.  The record must be JSON-serializable (numpy
        scalars/arrays are converted).
        """
        record = dict(record)
        record.setdefault("schema_version", RUNS_SCHEMA_VERSION)
        record.setdefault("run_id", new_run_id(record.get("kind", "run")))
        record.setdefault(
            "recorded_at",
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        line = json.dumps(record, sort_keys=False, default=_jsonable) + "\n"
        os.makedirs(self.root, exist_ok=True)
        with self._lock:
            fd = os.open(self.path,
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        return record

    # -- reading ---------------------------------------------------------------
    def scan(self, kind=None):
        """(records, corrupt_line_count), oldest first, bad lines skipped."""
        records, corrupt = [], 0
        try:
            fh = open(self.path, encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return records, corrupt
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    corrupt += 1
                    continue
                if not isinstance(record, dict) or "run_id" not in record:
                    corrupt += 1
                    continue
                if kind is not None \
                        and not str(record.get("kind", "")).startswith(kind):
                    continue
                records.append(record)
        return records, corrupt

    def read(self, kind=None):
        """All parseable run records, oldest first."""
        return self.scan(kind=kind)[0]

    def get(self, run_id):
        """The record with ``run_id`` (or a unique prefix of it), or None."""
        exact, prefixed = None, []
        for record in self.read():
            if record["run_id"] == run_id:
                exact = record
            elif str(record["run_id"]).startswith(run_id):
                prefixed.append(record)
        if exact is not None:
            return exact
        return prefixed[-1] if len(prefixed) >= 1 else None

    def latest(self, kind=None):
        """The most recent record matching ``kind``, or None."""
        records = self.read(kind=kind)
        return records[-1] if records else None


def default_ledger():
    """A :class:`RunLedger` on the default directory (re-resolved per call,
    so tests flipping ``REPRO_RUNS_DIR`` get fresh isolation)."""
    return RunLedger()


def record_run(kind, **fields):
    """Append one run of ``kind`` to the default ledger; returns the record.

    Never raises on I/O problems — the ledger is telemetry, and a
    read-only filesystem must not break training.
    """
    try:
        return default_ledger().append({"kind": kind, **fields})
    except OSError:
        return None
