"""Process, environment and HTTP plumbing of the perf harness.

Everything here runs in the harness process (``run.py``).  It launches
the measured processes (``server.py``, ``trainer.py``) with a scrubbed
environment and a fresh cache, times them to their ``ready`` line, reads
their CPU time and peak memory from ``/proc``, and talks HTTP to the
server over a keep-alive connection.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.parse import urlsplit

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".perf_tmp"

# One BLAS thread per process: the harness and the measured process share
# the CPUs, and BLAS threads would make them contend.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
FIXED_ENV = {**BLAS_THREADS, "PYTHONHASHSEED": "0"}


class HarnessError(RuntimeError):
    """The harness could not measure (no result line is printed)."""


def require_source():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program source under {SRC}; run from the "
                           f"root of a full checkout")


def scrub(environ):
    """``environ`` without inherited ``REPRO_*`` settings."""
    return {k: v for k, v in environ.items() if not k.startswith("REPRO_")}


def prepare_harness_environment():
    """Scrub the harness's own environment before it imports the program.

    Returns the names of the ``REPRO_*`` variables that were removed.
    """
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    os.environ.update(FIXED_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return removed


class Scratch:
    """Per-run scratch directory inside the checkout.

    Every measured process gets its own fresh ``REPRO_CACHE_DIR`` and
    ``REPRO_RUNS_DIR`` under it, so every set-up is cold and nothing is
    written into the repository proper.
    """

    def __init__(self):
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
        self._count = 0

    def fresh_dir(self, name):
        self._count += 1
        path = self.path / f"{self._count:02d}-{name}"
        path.mkdir()
        return path

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass


def measured_env(workdir):
    """Environment of one measured process: scrubbed, pinned, cold."""
    repro = {"REPRO_CACHE_DIR": str(workdir / "cache"),
             "REPRO_RUNS_DIR": str(workdir / "runs")}
    env = scrub(os.environ)
    env.update(FIXED_ENV)
    env.update(repro)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_record(removed):
    import numpy
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "fixed_env": FIXED_ENV,
        "repro_env_set": ["REPRO_CACHE_DIR", "REPRO_RUNS_DIR"],
        "repro_env_scrubbed": removed,
    }


def git_commit():
    """HEAD commit read from ``.git`` files (no git process, no search)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class MeasuredProcess:
    """One measured child process, timed from launch to its ready line."""

    def __init__(self, script, config, workdir, ready_timeout=300.0):
        self.log_path = workdir / "stderr.log"
        self._buffer = b""
        launched = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(PERF_DIR / script), json.dumps(config)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                env=measured_env(workdir), cwd=ROOT)
        try:
            self.ready = self.wait_event("ready", ready_timeout)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - launched
        self.url = self.ready.get("url")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _readline(self, deadline):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise HarnessError(f"timed out waiting for {self.log_path}")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise HarnessError(
                        f"measured process exited early:\n{self.log_tail()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def wait_event(self, name, timeout):
        deadline = time.perf_counter() + timeout
        while True:
            line = self._readline(deadline)
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and event.get("event") == name:
                return event

    def send(self, payload):
        self.proc.stdin.write((json.dumps(payload) + "\n").encode())
        self.proc.stdin.flush()

    def cpu_s(self):
        """utime + stime of the process so far, in seconds."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise HarnessError("no VmHWM in /proc status")

    def stop(self, timeout=60.0):
        """Close stdin, wait for the ``stopped`` line and the exit."""
        self.proc.stdin.close()
        try:
            self.wait_event("stopped", timeout)
            self.proc.wait(timeout)
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def log_tail(self, lines=20):
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


class HttpClient:
    """One keep-alive HTTP/1.1 connection with client-side timing."""

    def __init__(self, url, timeout=120.0):
        parts = urlsplit(url)
        self._host, self._port = parts.hostname, parts.port
        self._timeout = timeout
        self._conn = None

    def request(self, method, path, body=None, op=None):
        """``(status or None, payload, start, seconds)``; never raises.

        ``status`` is None on a transport error; the latency covers
        sending the request until the whole response body is read.
        """
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers["X-Trace-Id"] = op
        start = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout)
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - start
            return response.status, json.loads(raw), start, elapsed
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return None, {"error": repr(exc)}, start, \
                time.perf_counter() - start

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None
