"""Append-only run ledger: durable history of training runs.

The live half of the observability stack (metrics/tracing/logging)
answers "what is happening right now"; this module answers "what has
happened across runs and PRs".  A :class:`RunLedger` is a
:class:`~repro.obs.jsonl.JsonlLog` — one run per line, atomic appends,
corrupt-line tolerant reads — at ``runs.jsonl`` under
``REPRO_RUNS_DIR`` (default ``.repro_runs/`` in the working directory).
It never rotates: the ledger is the whole history.  Every record
carries ``schema_version`` so later readers can migrate or skip old
shapes.

Every ``train_*`` call in :mod:`repro.training.trainer` appends a run;
``repro runs {ls,show,export}`` inspects the ledger and ``repro report
--html`` renders the whole trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid

from .jsonl import JsonlLog, jsonable

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
    payload = json.dumps(parts, sort_keys=True, default=jsonable)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RunLedger(JsonlLog):
    """Append-only JSONL run history: ``<root>/runs.jsonl``.

    ``root`` defaults to :func:`default_runs_dir`.  ``scan(kind=...)``
    and :meth:`read` keep the runs whose kind starts with ``kind``;
    ``get`` takes a run id or a prefix of one.
    """

    def __init__(self, root=None):
        self.root = root or default_runs_dir()
        super().__init__(os.path.join(self.root, "runs.jsonl"), "run_id")

    def append(self, record):
        """Append one run record; returns the stamped record.

        ``run_id``, ``schema_version`` and ``recorded_at`` are filled in
        when missing.  Numpy scalars/arrays are converted.
        """
        record = dict(record)
        record.setdefault("schema_version", RUNS_SCHEMA_VERSION)
        record.setdefault("run_id", new_run_id(record.get("kind", "run")))
        record.setdefault(
            "recorded_at",
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        return super().append(record)

    def read(self, kind=None):
        """All parseable run records, oldest first."""
        return self.scan(kind=kind)[0]

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
