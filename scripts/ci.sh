#!/usr/bin/env bash
# CI entry point: tier-1 suite (twice: serial + parallel workers), a
# naive-backend kernel differential pass (including the delta-prediction
# differential harness), float32 and threaded reruns, the benchmark
# smoke suite under perf/, the coverage floors (repro.parallel, repro.nn,
# repro.obs, repro.serving, repro.sta, repro.graphdata), then the smoke
# stage: the serving, observability, delta and quality suites, and the
# kernel speedup gate (benchmarks/test_kernel_speedup.py: fused
# forward+backward >= 2.5x naive on aes256 at scale 0.75).
#
#   scripts/ci.sh         # full tier-1 x2 + differential + floors + smoke
#   scripts/ci.sh smoke   # smoke only (deselects @slow experiment tests)
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
