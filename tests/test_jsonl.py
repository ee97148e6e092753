"""The one JSONL log behind the run ledger, the audit log and the trace
sink: a size bound that holds whichever writer appends, rotation that
keeps exactly one older generation, and a reader of both generations.

Each writer is driven through its own public surface (``AuditLog``,
``Tracer.set_sink``, ``RunLedger``); the bound is the shared module
constant, shrunk here to a few records.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.obs import AuditLog, RunLedger, Tracer, jsonl


class _AuditWriter:
    def __init__(self, path):
        self.log = AuditLog(path=path)

    def write(self, name):
        self.log.append({"name": name})


class _TraceWriter:
    def __init__(self, path):
        self.tracer = Tracer()
        self.tracer.set_sink(path)

    def write(self, name):
        with self.tracer.span(name):
            pass


class _LedgerWriter:
    def __init__(self, path):
        self.log = RunLedger(root=os.path.dirname(path))

    def write(self, name):
        self.log.append({"kind": "train_timing", "name": name})


WRITERS = {"audits": _AuditWriter, "trace": _TraceWriter,
           "runs": _LedgerWriter}


def _path(tmp_path, kind):
    # The ledger's file name is fixed; the others take any path.
    return str(tmp_path / ("runs.jsonl" if kind == "runs"
                           else f"{kind}.jsonl"))


def _names(path):
    try:
        with open(path) as fh:
            return [json.loads(line)["name"] for line in fh]
    except FileNotFoundError:
        return []


def _bound_at(monkeypatch, tmp_path, kind, records):
    """Shrink the shared bound so that a file holding ``records`` records
    of this writer is full, and one holding ``records - 1`` is not."""
    probe = _path(tmp_path / "probe", kind)
    os.makedirs(os.path.dirname(probe))
    WRITERS[kind](probe).write("r00")
    size = os.path.getsize(probe)
    monkeypatch.setattr(jsonl, "ROTATE_BYTES",
                        int((records - 0.5) * size))


@pytest.mark.parametrize("kind", ["audits", "trace", "runs"])
def test_rotation_keeps_one_generation(kind, tmp_path, monkeypatch):
    """Twelve appends with the bound at five records: the live file
    rolls over at 0-4 and again at 5-9, so ``.1`` holds 5-9 and the live
    file 10-11.  The ledger passes no bound and keeps everything."""
    _bound_at(monkeypatch, tmp_path, kind, 5)
    path = _path(tmp_path, kind)
    writer = WRITERS[kind](path)
    for i in range(12):
        writer.write(f"r{i:02d}")
    if kind == "runs":
        assert not os.path.exists(path + ".1")
        assert _names(path) == [f"r{i:02d}" for i in range(12)]
    else:
        assert _names(path + ".1") == [f"r{i:02d}" for i in range(5, 10)]
        assert _names(path) == ["r10", "r11"]


@pytest.mark.parametrize("kind", ["audits", "trace"])
def test_two_writers_share_the_bound(kind, tmp_path, monkeypatch):
    """Two writers on one path alternate ten appends under a bound of
    four records.  Neither keeps a count, so the live file never holds
    more than four, and the two generations hold the newest six."""
    _bound_at(monkeypatch, tmp_path, kind, 4)
    path = _path(tmp_path, kind)
    writers = [WRITERS[kind](path), WRITERS[kind](path)]
    for i in range(10):
        writers[i % 2].write(f"r{i:02d}")
        assert len(_names(path)) <= 4
    assert _names(path + ".1") + _names(path) == \
        [f"r{i:02d}" for i in range(4, 10)]


def test_concurrent_writers_rotate_only_full_files(tmp_path, monkeypatch):
    """Writers racing on one full file rotate it once: whatever the
    interleaving, ``.1`` is always a whole generation (at least the
    bound) and every line in either file parses."""
    _bound_at(monkeypatch, tmp_path, "audits", 4)
    path = _path(tmp_path, "audits")
    bound = jsonl.ROTATE_BYTES
    short, errors = [], []

    def worker(w):
        log = AuditLog(path=path)         # one instance per writer
        try:
            for i in range(60):
                log.append({"name": f"w{w}-{i:02d}"})
                try:
                    size = os.path.getsize(path + ".1")
                except FileNotFoundError:
                    continue
                if size < bound:
                    short.append(size)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and short == []
    records, corrupt = AuditLog(path=path).scan()
    assert corrupt == 0 and records


def test_audit_log_reads_both_generations(tmp_path, monkeypatch, capsys):
    """After a rotation ``scan`` returns both generations oldest first,
    ``get`` finds an audit that now lives in ``.1``, and ``repro audit
    ls`` lists (and ``-n`` takes its most recent from) both."""
    from repro.cli import main

    _bound_at(monkeypatch, tmp_path, "audits", 3)
    path = _path(tmp_path, "audits")
    log = AuditLog(path=path)
    stamped = [log.append({"name": f"r{i:02d}", "design": f"spm{i}"})
               for i in range(5)]
    assert _names(path + ".1") == ["r00", "r01", "r02"]
    records, corrupt = log.scan()
    assert corrupt == 0
    assert [r["audit_id"] for r in records] == \
        [s["audit_id"] for s in stamped]
    assert log.get(stamped[0]["audit_id"])["name"] == "r00"
    capsys.readouterr()
    assert main(["audit", "ls", "--path", path]) == 0
    out = capsys.readouterr().out
    assert all(f"spm{i}" in out for i in range(5)) and "5 audits" in out
    assert main(["audit", "ls", "--path", path, "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "spm0" not in out and "spm1" in out and "4 audits" in out
