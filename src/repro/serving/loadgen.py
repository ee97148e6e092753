"""Load generator: drive the HTTP serving layer with concurrent clients.

``run_loadgen`` spins up N client threads, each issuing a stream of
``/predict`` calls over localhost (round-robin across a design list),
validates every response (HTTP 200, echoed design name, well-formed
prediction payload), and reports throughput plus client-side latency
percentiles and the server's own ``/stats`` snapshot.  This is the
serving layer's benchmark — ``repro bench-serve`` wraps it and records
each run to ``BENCH_serving.json`` (see :func:`write_bench_json`) so
the throughput/latency trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["ClientRecord", "LoadgenResult", "run_loadgen",
           "format_loadgen_report", "write_bench_json",
           "BENCH_SCHEMA_VERSION"]

BENCH_SCHEMA_VERSION = 1


@dataclass
class ClientRecord:
    """One client thread's tally."""

    sent: int = 0
    ok: int = 0
    errors: int = 0
    incorrect: int = 0
    degraded: int = 0
    cache_hits: int = 0
    latencies_ms: list = field(default_factory=list)


@dataclass
class LoadgenResult:
    clients: int
    requests: int
    ok: int
    errors: int
    incorrect: int
    degraded: int
    cache_hits: int
    warmup_requests: int
    duration_s: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    server_stats: dict
    batch_max: int = 0

    def to_dict(self):
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, float):
                out[key] = round(value, 4)
        return out


def _http_json(url, payload=None, timeout=60.0):
    if payload is None:
        req = urllib.request.Request(url)
    else:
        body = json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        # Non-2xx with a JSON body (a request error) is a response,
        # not a transport failure.
        try:
            return exc.code, json.loads(exc.read())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return exc.code, {}


def _client_loop(url, designs, model, num_requests, deadline_ms, record,
                 start_barrier, timeout, no_cache=False):
    start_barrier.wait()
    for i in range(num_requests):
        design = designs[i % len(designs)]
        payload = {"design": design, "model": model}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if no_cache:
            payload["no_cache"] = True
        t0 = time.perf_counter()
        record.sent += 1
        try:
            status, body = _http_json(url + "/predict", payload,
                                      timeout=timeout)
        except (urllib.error.URLError, OSError, ValueError):
            record.errors += 1
            continue
        record.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        if status != 200:
            record.errors += 1
            continue
        # Correctness: the answer must be for the design we asked about
        # and carry a structurally valid prediction payload.
        prediction = body.get("prediction")
        if (body.get("design") != design
                or not isinstance(prediction, dict) or not prediction):
            record.incorrect += 1
            continue
        record.ok += 1
        if body.get("degraded"):
            record.degraded += 1
        if body.get("cache_hit"):
            record.cache_hits += 1


def run_loadgen(url, designs, clients=8, requests_per_client=8,
                model="timing-full", deadline_ms=None, timeout=120.0,
                warmup_requests=None, no_cache=False):
    """Drive ``url`` with ``clients`` concurrent request streams.

    Before the timed phase, ``warmup_requests`` untimed ``/predict``
    calls are issued sequentially (default: one per design, round-robin)
    so graph loading, model instantiation and cache population are not
    billed to the measured throughput/latency numbers; pass ``0`` to
    disable.  ``clients`` scales to hundreds of threads (each client is
    one blocking request stream); ``no_cache`` bypasses the server's
    result cache so every request exercises a real model forward — the
    knob that makes micro-batching visible under concurrency.  Returns
    a :class:`LoadgenResult`; raises if the server is not reachable at
    all (``/healthz`` probe).
    """
    url = url.rstrip("/")
    status, _ = _http_json(url + "/healthz", timeout=timeout)
    if status != 200:
        raise RuntimeError(f"server at {url} is not healthy")

    designs = list(designs)
    if warmup_requests is None:
        warmup_requests = len(designs)
    for i in range(warmup_requests):
        payload = {"design": designs[i % len(designs)], "model": model}
        try:
            _http_json(url + "/predict", payload, timeout=timeout)
        except (urllib.error.URLError, OSError, ValueError):
            pass  # warmup is best-effort; the timed phase will report

    records = [ClientRecord() for _ in range(clients)]
    start_barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(url, list(designs), model, requests_per_client,
                  deadline_ms, records[i], start_barrier, timeout,
                  no_cache),
            name=f"loadgen-{i}", daemon=True)
        for i in range(clients)]
    for t in threads:
        t.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0

    latencies = np.asarray(
        [l for r in records for l in r.latencies_ms], dtype=float)
    total = sum(r.sent for r in records)
    ok = sum(r.ok for r in records)
    _, server_stats = _http_json(url + "/stats", timeout=timeout)
    return LoadgenResult(
        clients=clients, requests=total, ok=ok,
        errors=sum(r.errors for r in records),
        incorrect=sum(r.incorrect for r in records),
        degraded=sum(r.degraded for r in records),
        cache_hits=sum(r.cache_hits for r in records),
        warmup_requests=warmup_requests,
        duration_s=duration,
        throughput_rps=(ok / duration) if duration > 0 else 0.0,
        latency_p50_ms=float(np.percentile(latencies, 50))
        if len(latencies) else 0.0,
        latency_p99_ms=float(np.percentile(latencies, 99))
        if len(latencies) else 0.0,
        latency_mean_ms=float(latencies.mean()) if len(latencies) else 0.0,
        batch_max=int(server_stats.get("batch_max", 0)),
        server_stats=server_stats)


def write_bench_json(result, path="BENCH_serving.json", params=None,
                     extra=None):
    """Record one loadgen run as a small JSON benchmark artefact.

    Written by ``repro bench-serve`` at the repo root so the serving
    throughput/latency trajectory is tracked across PRs; ``scripts/
    ci.sh`` asserts the file is produced and well-formed.  ``extra``
    merges additional top-level fields (``repro bench-serve`` records
    the ``audit`` digest and the ``delta`` timing there).
    """
    from ..bench.diff import bench_fingerprint
    from ..obs.runs import new_run_id, record_run

    payload = {
        "benchmark": "serving",
        "schema_version": BENCH_SCHEMA_VERSION,
        "run_id": new_run_id("bench_serving"),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "params": dict(params or {}),
        **result.to_dict(),
        **dict(extra or {}),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=False)
        fh.write("\n")
    # mirror the artefact into the run ledger so `repro bench diff` can
    # gate future runs against it
    record_run("bench_serving", run_id=payload["run_id"],
               fingerprint=bench_fingerprint(payload),
               generated_at=payload["generated_at"], payload=payload)
    return path


def format_loadgen_report(result):
    """Human-readable throughput/latency table for one loadgen run."""
    stats = result.server_stats
    lines = [
        "serving benchmark",
        f"  clients            {result.clients}",
        f"  requests           {result.requests}"
        f"  (ok {result.ok}, errors {result.errors},"
        f" incorrect {result.incorrect})",
        f"  degraded           {result.degraded}",
        f"  client cache hits  {result.cache_hits}",
        f"  warmup requests    {result.warmup_requests} (untimed)",
        f"  duration           {result.duration_s:.2f} s",
        f"  throughput         {result.throughput_rps:.1f} req/s",
        f"  latency p50        {result.latency_p50_ms:.1f} ms",
        f"  latency p99        {result.latency_p99_ms:.1f} ms",
        f"  latency mean       {result.latency_mean_ms:.1f} ms",
    ]
    result_cache = stats.get("result_cache", {})
    graph_cache = stats.get("graph_cache", {})
    lines += [
        "server-side",
        f"  batch max          {result.batch_max}",
        f"  result cache       {result_cache.get('hits', 0)} hits /"
        f" {result_cache.get('misses', 0)} misses"
        f" (hit rate {result_cache.get('hit_rate', 0.0):.2f})",
        f"  graph cache        {graph_cache.get('hits', 0)} hits /"
        f" {graph_cache.get('misses', 0)} misses",
    ]
    for name, b in (stats.get("batching") or {}).items():
        lines.append(
            f"  batcher[{name}]    {b['batches']} batches,"
            f" mean {b['mean_batch']:.2f}, max {b['max_batch']}")
    return "\n".join(lines)
