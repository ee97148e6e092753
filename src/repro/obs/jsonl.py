"""One append-only JSONL log: the file format behind the run ledger, the
shadow-audit log and the trace sink.

* **atomic appends** — each record is serialized to one line and
  written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
  concurrent writers (threads or processes) never interleave partial
  lines;
* **a size bound, not a line count** — a log built with ``max_bytes``
  ``fstat``\\ s the descriptor it just opened before each append, and
  once the file holds ``max_bytes`` or more it moves to ``<path>.1``
  (one old generation is kept) and writing restarts on a fresh file.
  No writer keeps a count, so the bound holds whichever process writes;
* **one streaming reader** — :meth:`JsonlLog.scan` reads ``<path>.1``,
  then the live file, line by line, keeping only the records a filter
  accepts; lines that do not parse as an object carrying the log's id
  field are skipped and counted instead of failing the whole history.
"""

from __future__ import annotations

import fcntl
import json
import os

import numpy as np

__all__ = ["JsonlLog", "ROTATE_BYTES", "jsonable"]

# The bound of the audit log and the trace sink (the ledger keeps its
# whole history): 113,000-139,000 spans at 241-296 bytes a line, or
# about 62,000 audit records at 538 bytes.
ROTATE_BYTES = 32 << 20

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_APPEND


def jsonable(value):
    """JSON fallback for numpy scalars/arrays and other odd values."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) \
            else list(value)
    return str(value)


class JsonlLog:
    """An append-only JSONL file of records keyed by ``id_field``.

    ``max_bytes`` bounds the live file (None: no bound).  The
    object holds no descriptor and no count between calls, so any
    number of instances, in any number of processes, may share a path.
    """

    def __init__(self, path, id_field, max_bytes=None):
        self.path = os.fspath(path)
        self.id_field = id_field
        self.max_bytes = max_bytes

    # -- writing ---------------------------------------------------------------
    def append(self, record):
        """Append one record (numpy values are converted); returns it.

        Creates the parent directory when it is missing.  I/O errors
        propagate: each caller decides whether its telemetry may fail.
        """
        line = (json.dumps(record, default=jsonable) + "\n").encode()
        while True:
            fd = self._open()
            try:
                if not self._rotated(fd):
                    os.write(fd, line)
                    return record
            finally:
                os.close(fd)

    def _open(self):
        try:
            return os.open(self.path, _FLAGS, 0o644)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            return os.open(self.path, _FLAGS, 0o644)

    def _rotated(self, fd):
        """Rotate the file behind ``fd`` if it is full; True: reopen."""
        if not self.max_bytes:
            return False
        stat = os.fstat(fd)
        if stat.st_size < self.max_bytes:
            return False
        # Writers that found the same full file queue here (the lock is
        # released when ``fd`` closes); the first one moves it, the rest
        # see the path on a new file and only reopen.
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            current = os.stat(self.path)
        except FileNotFoundError:
            return True
        if os.path.samestat(current, stat):
            os.replace(self.path, self.path + ".1")
        return True

    # -- reading ---------------------------------------------------------------
    def scan(self, **prefixes):
        """``(records, corrupt_line_count)``, oldest first.

        Streams ``<path>.1`` then the live file and holds only the
        records whose every ``field=text`` value starts with ``text``
        (a None ``text`` matches everything), so one trace can be pulled
        out of a large sink.  Blank lines are ignored; lines that are
        not a JSON object with the id field count as corrupt.
        """
        prefixes = {field: str(text) for field, text in prefixes.items()
                    if text is not None}
        records, corrupt = [], 0
        for path in (self.path + ".1", self.path):
            try:
                fh = open(path, encoding="utf-8", errors="replace")
            except FileNotFoundError:
                continue
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
                    if not isinstance(record, dict) \
                            or self.id_field not in record:
                        corrupt += 1
                        continue
                    if all(str(record.get(field, "")).startswith(text)
                           for field, text in prefixes.items()):
                        records.append(record)
        return records, corrupt

    def get(self, record_id):
        """The record whose id is ``record_id``, else the newest whose id
        starts with it, else None."""
        found = self.scan(**{self.id_field: record_id})[0]
        exact = [r for r in found if r[self.id_field] == record_id]
        return (exact or found or [None])[-1]
