#!/usr/bin/env bash
# CI entry point: tier-1 suite (twice: serial + parallel workers), a
# naive-backend kernel differential pass (including the delta-prediction
# differential harness), float32 and threaded reruns, the benchmark
# smoke suite under perf/, the coverage floors (repro.parallel, repro.nn,
# repro.obs, repro.serving, repro.sta), the bench regression gate
# (`repro bench diff --check` vs. the run ledger), then fast serving +
# compute smoke tests (the serving bench also gates the incremental
# delta path — delta_speedup > 1 vs full rebuild-and-forward — and the
# shadow-audit path: REPRO_AUDIT_RATE=1 with the audit digest asserted).
#
#   scripts/ci.sh         # full tier-1 x2 + differential + floors + smokes
#   scripts/ci.sh smoke   # smoke only (deselects @slow experiment tests)
#
# The suite runs twice so the golden STA comparator and the differential
# parallel tests are proven under both execution modes: serial, and with
# REPRO_WORKERS=2 sharding every dataset build across worker processes.
# The smoke stage runs at a reduced design scale / epoch count and uses
# a throwaway cache, so it exercises training, the serving stack and the
# load generator in minutes, not hours.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" != "smoke" ]]; then
    echo "== tier-1 test suite (serial) =="
    REPRO_WORKERS= python -m pytest -x -q

    echo "== tier-1 test suite (REPRO_WORKERS=2) =="
    REPRO_WORKERS=2 python -m pytest -x -q

    echo "== golden comparator present in both passes =="
    python - <<'EOF'
import subprocess, sys
out = subprocess.run(
    [sys.executable, "-m", "pytest", "--collect-only", "-q",
     "tests/test_golden.py"], capture_output=True, text=True)
assert "test_rebuild_matches_fixture_bit_for_bit" in out.stdout, \
    "golden comparator tests not collected"
print("golden comparator collected ok")
EOF

    echo "== fused/naive kernel differential (REPRO_KERNELS=naive) =="
    # The suite above ran with the default fused backend; re-run the
    # autograd/module/model subset with the naive composed-op backend as
    # the process default, so both code paths are proven green and the
    # fused==naive differential tests exercise backend switching in each
    # direction.
    REPRO_KERNELS=naive python -m pytest -x -q \
        tests/test_nn_autograd.py tests/test_nn_modules.py \
        tests/test_models.py \
        "tests/test_delta.py::TestEditDifferential"

    echo "== kernel suite under float32 and threaded execution =="
    # The compute-performance axes must each hold the fused==naive
    # contract: float32 training dtype (dtype-aware tolerances), the
    # serial thread budget, and a 4-thread budget with the engagement
    # threshold forced to 1 row so the chunked matmul/segment paths
    # actually run on test-sized inputs.
    # The delta differential and the edit-sequence property join the
    # float32 and 4-thread runs: the incremental refresh shares the
    # propagation steps, so it must hold incremental == full forward on
    # both axes too.
    REPRO_DTYPE=float32 python -m pytest -x -q \
        tests/test_nn_autograd.py tests/test_arena.py \
        "tests/test_delta.py::TestEditDifferential" \
        "tests/test_delta.py::TestDeltaSequenceProperty"
    REPRO_COMPUTE_THREADS=1 python -m pytest -x -q \
        tests/test_nn_autograd.py tests/test_arena.py
    REPRO_COMPUTE_THREADS=4 REPRO_COMPUTE_MIN_ROWS=1 python -m pytest -x -q \
        tests/test_nn_autograd.py tests/test_arena.py \
        "tests/test_delta.py::TestEditDifferential" \
        "tests/test_delta.py::TestDeltaSequenceProperty"

    echo "== benchmark smoke suite (perf/) =="
    # perf/spans.py wraps program entry points by name (for example
    # DelayPropagation.forward, and IncrementalForwardState.refresh with
    # its "dirty_nodes" stat), so a rename there must fail CI, not only
    # the benchmark.
    python -m pytest perf -q

    echo "== coverage floors (repro.parallel, repro.nn, repro.obs, repro.serving, repro.sta) =="
    python scripts/coverage_floor.py --min 80

    echo "== bench regression gate (committed BENCH files vs. ledger) =="
    # First run on a fresh checkout has no baseline and passes vacuously;
    # --record appends the committed artefacts to the run ledger so the
    # trajectory starts accumulating and later runs are actually gated.
    python -m repro.cli bench diff --check --record
fi

echo "== serving smoke (REPRO_SCALE=0.25 REPRO_EPOCHS=2) =="
SMOKE_CACHE="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE"' EXIT
export REPRO_SCALE=0.25 REPRO_EPOCHS=2 REPRO_CACHE_DIR="$SMOKE_CACHE"

# In-process serving suite, then the pre-fork pool suite (shm bit
# identity, crash/restart, shutdown-leak regression; uses 2 workers),
# then the delta differential harness (incremental == full re-extract
# at 1e-9, in-process and through the pool).
python -m pytest -x -q -m "not slow" tests/test_serving.py tests/test_obs.py
python -m pytest -x -q -m "not slow" tests/test_pool.py
python -m pytest -x -q -m "not slow" tests/test_delta.py
python -m pytest -x -q -m "not slow" tests/test_quality.py

# Pooled benchmark: --workers 2 also drives a single-process reference
# phase first, so the artefact records workers, per-worker batching
# stats and the pool speedup.  bench-serve itself exits non-zero when
# the pooled run never forms a multi-item batch (batch_max <= 1).
# REPRO_AUDIT_RATE=1 turns on shadow-STA auditing for every served
# request, so the artefact also proves the quality-monitor path end to
# end (audit fields asserted below).
REPRO_AUDIT_RATE=1 REPRO_AUDIT_BUDGET=100000 \
python -m repro.cli bench-serve \
    --clients 8 --requests-per-client 8 --num-designs 3 \
    --scale 0.25 --epochs 2 --workers 2 --delta \
    --bench-json BENCH_serving.json

echo "== BENCH_serving.json well-formed check =="
python - <<'EOF'
import json

with open("BENCH_serving.json") as fh:
    bench = json.load(fh)
required = ["benchmark", "schema_version", "generated_at", "params",
            "clients", "requests", "ok", "errors", "incorrect",
            "warmup_requests", "throughput_rps", "latency_p50_ms",
            "latency_p99_ms", "server_stats", "workers", "batch_max",
            "shed", "retries", "single_process", "pool_speedup"]
missing = [key for key in required if key not in bench]
assert not missing, f"BENCH_serving.json missing keys: {missing}"
assert bench["benchmark"] == "serving"
assert bench["requests"] > 0 and bench["ok"] > 0
assert bench["warmup_requests"] >= 0
assert bench["throughput_rps"] > 0
assert bench["workers"] == 2, bench["workers"]
assert bench["batch_max"] > 1, \
    f"pooled run never batched (batch_max={bench['batch_max']})"
pool = bench["server_stats"]["pool"]
per_worker = pool["per_worker"]
assert len(per_worker) == bench["workers"]
for w in per_worker:
    for key in ("worker", "completed", "batches", "batch_max",
                "restarts", "latency_p50_ms", "latency_p99_ms",
                "latency_mean_ms", "requests"):
        assert key in w, f"per-worker stats missing {key}"
# Fleet observability: the pooled run must record the aggregated
# per-worker latency breakdown next to the router-side counters.
breakdown = bench["per_worker_latency"]
assert len(breakdown) == bench["workers"]
for row in breakdown:
    for key in ("worker", "requests", "latency_p50_ms",
                "latency_p99_ms", "latency_mean_ms"):
        assert key in row, f"per_worker_latency missing {key}"
assert sum(row["requests"] for row in breakdown) > 0, \
    "fleet aggregation recorded no worker-side requests"
assert bench["single_process"]["throughput_rps"] > 0
# Shadow-audit gate: the run above served with REPRO_AUDIT_RATE=1, so
# the artefact must carry a well-formed audit digest with at least one
# scored sample and a finite slack error.
import math
audit = bench["audit"]
for key in ("samples", "worker_audits", "slack_mae_ps", "drift_score",
            "rate"):
    assert key in audit, f"audit stats missing {key}"
assert audit["samples"] > 0, "shadow auditor scored no requests"
assert audit["slack_mae_ps"] is not None \
    and math.isfinite(audit["slack_mae_ps"]), audit["slack_mae_ps"]
print(f"audit ok: {audit['samples']} scored "
      f"({audit['worker_audits']} in workers), "
      f"slack MAE {audit['slack_mae_ps']:.2f} ps")
# Incremental delta gate: a single-edit /predict/delta iteration must
# beat the conventional rebuild-and-forward ECO iteration it replaces.
delta = bench["delta"]
for key in ("design", "num_nodes", "edits", "full_latency_ms",
            "delta_latency_ms", "delta_speedup"):
    assert key in delta, f"delta stats missing {key}"
assert delta["edits"] > 0 and delta["delta_latency_ms"] > 0
assert delta["delta_speedup"] > 1, \
    (f"incremental delta slower than full rebuild "
     f"({delta['delta_speedup']}x on {delta['design']})")
print(f"delta ok: {delta['delta_speedup']:.2f}x on {delta['design']} "
      f"({delta['full_latency_ms']:.1f} ms full -> "
      f"{delta['delta_latency_ms']:.1f} ms delta)")
print(f"BENCH_serving.json ok: {bench['requests']} requests "
      f"({bench['warmup_requests']} warmup, untimed), "
      f"{bench['throughput_rps']:.1f} req/s, "
      f"p50 {bench['latency_p50_ms']:.1f} ms, "
      f"workers {bench['workers']}, batch max {bench['batch_max']}, "
      f"pool speedup {bench['pool_speedup']:.2f}x")
EOF

echo "== pooled /metrics fleet exposition check =="
# A pooled server's /metrics must expose worker-labeled series merged
# from the worker-process registries (fleet aggregation), and the
# summed worker request counters must equal the router's accepted
# counter once the pool is drained.
python - <<'EOF'
import re
import time
import urllib.request

from repro.serving import ServingServer
from repro.serving.pool import PooledPredictionService

service = PooledPredictionService(workers=2, scale=0.25)
service.warm(models=["timing-full"], designs=["usbf_device"])
with ServingServer(service) as server:
    for _ in range(6):
        urllib.request.urlopen(urllib.request.Request(
            server.url + "/predict",
            data=b'{"design": "usbf_device", "no_cache": true}',
            headers={"Content-Type": "application/json"}), timeout=120)
    deadline = time.time() + 5.0
    while time.time() < deadline:
        text = urllib.request.urlopen(server.url + "/metrics",
                                      timeout=30).read().decode()
        # Idle workers snapshot their gauges every 0.25 s, so a
        # worker-labeled series can appear before the serving worker's
        # post-request snapshot lands — wait for the counter itself.
        if 'worker="1"' in text and "repro_worker_requests_total" in text:
            break
        time.sleep(0.3)
assert 'worker="1"' in text, "no worker-labeled series in /metrics"
assert "repro_worker_requests_total" in text
service.close()
pattern = re.compile(
    r'repro_worker_requests_total\{[^}]*\} ([0-9.]+)')
worker_total = sum(float(v) for v in pattern.findall(
    service.metrics_text()))
accepted = service.metrics.get("repro_pool_requests_total").value
assert worker_total == accepted > 0, (worker_total, accepted)
print(f"fleet /metrics ok: worker-labeled series present, "
      f"{int(worker_total)} worker requests == accepted counter")
EOF

echo "== compute benchmark smoke (fused vs. naive kernels) =="
# CI smoke settings for the speedup gate: the suite's largest design at
# scale 0.75, --quick stages (forward + forward_backward), interleaved
# min-of-7-reps timing.  The forward_backward geomean (fused at its
# best dtype vs. the naive float64 reference) must clear 2.5x.
python -m repro.cli bench-compute \
    --quick --scale 0.75 --designs aes256 \
    --bench-json BENCH_compute_smoke.json

echo "== BENCH_compute_smoke.json well-formed + speedup-gate check =="
python - <<'EOF'
import json

with open("BENCH_compute_smoke.json") as fh:
    bench = json.load(fh)
required = ["benchmark", "schema_version", "generated_at", "params",
            "backends", "dtypes", "stages", "reps", "designs", "summary"]
missing = [key for key in required if key not in bench]
assert not missing, f"BENCH_compute_smoke.json missing keys: {missing}"
assert bench["benchmark"] == "compute"
assert bench["schema_version"] >= 2, bench["schema_version"]
assert set(bench["backends"]) == {"naive", "fused"}
assert set(bench["dtypes"]) == {"float64", "float32"}
assert bench["params"]["threads"] >= 1
assert bench["designs"], "no designs benchmarked"
for row in bench["designs"]:
    # v2 nesting: times_ms[backend][dtype][stage]; naive runs the
    # float64 reference only, fused runs every dtype.
    assert set(row["times_ms"]["naive"]) == {"float64"}
    assert set(row["times_ms"]["fused"]) == set(bench["dtypes"])
    for backend, per_dtype in row["times_ms"].items():
        for dtype, stages in per_dtype.items():
            for stage in bench["stages"]:
                assert stages[stage] > 0.0, (backend, dtype, stage)
            # per-cell instrumentation columns
            assert row["allocations_per_step"][backend][dtype] > 0
            assert row["peak_rss_mb"][backend][dtype] > 0.0
    for dtype, stages in row["speedup"].items():
        assert all(v > 0.0 for v in stages.values()), dtype
    # Arena planning must beat the naive tape on allocation traffic.
    naive_allocs = row["allocations_per_step"]["naive"]["float64"]
    for dtype in bench["dtypes"]:
        assert row["allocations_per_step"]["fused"][dtype] < naive_allocs
for stage in bench["stages"]:
    assert f"speedup_{stage}_geomean" in bench["summary"]
    for dtype in bench["dtypes"]:
        assert f"speedup_{stage}_geomean_{dtype}" in bench["summary"]
geomean = bench["summary"]["speedup_forward_backward_geomean"]
assert geomean >= 2.5, \
    f"forward_backward speedup gate: geomean {geomean:.2f}x < 2.5x"
print(f"BENCH_compute_smoke.json ok: {len(bench['designs'])} design(s), "
      f"forward_backward geomean {geomean:.2f}x "
      f"(best dtype "
      f"{bench['summary']['speedup_forward_backward_best_dtype']})")
EOF
rm -f BENCH_compute_smoke.json

echo "== ci ok =="
