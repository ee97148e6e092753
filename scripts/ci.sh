#!/usr/bin/env bash
# CI entry point: tier-1 suite (twice: serial + parallel workers), the
# benchmark smoke suite under perf/, the coverage floors (repro.parallel,
# repro.nn, repro.obs, repro.serving, repro.sta, repro.graphdata), then
# the smoke stage: the serving, observability, delta and quality suites,
# and the kernel speedup gate (benchmarks/test_kernel_speedup.py: fused
# forward+backward >= 2.5x naive on aes256 at scale 0.75).
#
#   scripts/ci.sh         # full tier-1 x2 + floors + smoke
#   scripts/ci.sh smoke   # smoke only (deselects @slow experiment tests)
#
# No stage reruns the suite under a numeric environment switch: tier-1
# checks every differential contract (fused == naive, arena == unplanned,
# incremental == full) in every {kernel backend, dtype, arena} cell
# (tests/test_contracts.py), and collects the kernel, model, arena and
# delta suites again on the naive backend and at float32
# (tests/test_naive_cell.py, tests/test_float32_cell.py).
#
# perf/ is the benchmark (see BENCHMARK.json).  The other performance
# gates are tier-1 tests: concurrent requests coalesce into batches
# (tests/test_serving.py), fused steps allocate less than naive ones
# (tests/test_arena.py), a single-edit delta beats rebuild-and-forward
# (tests/test_delta.py) and shadow audits score a finite slack error
# (tests/test_quality.py).
#
# The suite runs twice so the golden STA comparator and the differential
# parallel tests are proven under both execution modes: serial, and with
# REPRO_WORKERS=2 sharding every dataset build across worker processes.
# The smoke stage uses a throwaway cache, so it never reads artefacts
# left by an earlier run.
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
# addopts already holds -q; clearing it keeps one -q, which lists node
# ids (-qq would print only a per-file count).
out = subprocess.run(
    [sys.executable, "-m", "pytest", "--collect-only", "-q",
     "-o", "addopts=", "tests/test_golden.py"],
    capture_output=True, text=True)
assert "test_rebuild_matches_fixture_bit_for_bit" in out.stdout, \
    "golden comparator tests not collected"
print("golden comparator collected ok")
EOF

    echo "== benchmark smoke suite (perf/) =="
    # perf/spans.py wraps program entry points by name (for example
    # DelayPropagation.forward, and IncrementalForwardState.refresh with
    # its "dirty_nodes" stat), so a rename there must fail CI, not only
    # the benchmark.
    python -m pytest perf -q

    echo "== coverage floors (repro.parallel, repro.nn, repro.obs, repro.serving, repro.sta, repro.graphdata) =="
    python scripts/coverage_floor.py --min 80
fi

echo "== serving smoke (throwaway cache) =="
SMOKE_CACHE="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE"' EXIT
export REPRO_CACHE_DIR="$SMOKE_CACHE"

# Serving suite, then the delta differential harness (incremental ==
# full re-extract at 1e-9, in the service and over HTTP).
python -m pytest -x -q -m "not slow" tests/test_serving.py tests/test_obs.py
python -m pytest -x -q -m "not slow" tests/test_delta.py
python -m pytest -x -q -m "not slow" tests/test_quality.py

echo "== kernel speedup gate (fused vs. naive) =="
python -m pytest -q benchmarks/test_kernel_speedup.py

echo "== ci ok =="
