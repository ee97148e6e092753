#!/usr/bin/env python
"""Per-package line-coverage floors, stdlib-only.

The container has no ``coverage``/``pytest-cov``, so this harness uses
``sys.settrace`` directly: it records executed lines of the target
packages while running their test files in-process, then compares
against the executable lines reported by the compiled code objects
(``co_lines``).  Worker *processes* spawned by the tests are not
traced — the floors are calibrated for parent-process coverage.

Covered packages (each with its own test files and an 80% floor):

* ``src/repro/parallel`` — the process executor and the artifact
  store, driven by tests/test_parallel.py;
* ``src/repro/nn`` — the autograd engine and the fused kernel layer,
  driven by the autograd/module suites plus the model differential
  tests (which push the fused propagation path end to end);
* ``src/repro/obs`` — metrics/tracing/logging plus the run ledger,
  tape profiler, HTML report and ``repro top`` frame, the latency SLO
  and the shadow-audit quality monitor, driven by tests/test_obs.py,
  tests/test_runs.py and tests/test_quality.py;
* ``src/repro/serving`` — the prediction service, HTTP front-end,
  micro-batcher and delta sessions, driven by tests/test_serving.py,
  tests/test_delta.py and tests/test_quality.py;
* ``src/repro/sta`` — the static timing engine, incremental timer and
  path enumeration, driven by tests/test_sta.py,
  tests/test_sta_properties.py, tests/test_incremental.py,
  tests/test_paths.py and tests/test_delta.py (the differential
  harness drives the timer through the lazy label pass: after each ECO
  edit kind, and once over the union of several pending edits);
* ``src/repro/graphdata`` — the two-pass extraction, the ECO graph
  patcher and the dataset/batching layer, driven by
  tests/test_graphdata.py, tests/test_golden.py and tests/test_delta.py.

    python scripts/coverage_floor.py            # default floor 80%
    python scripts/coverage_floor.py --min 85
    python scripts/coverage_floor.py --package nn   # one package only
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _t(*names):
    return [os.path.join(REPO, "tests", name) for name in names]


TARGETS = {
    "parallel": {
        "dir": os.path.join(REPO, "src", "repro", "parallel"),
        "tests": _t("test_parallel.py"),
    },
    "nn": {
        "dir": os.path.join(REPO, "src", "repro", "nn"),
        "tests": _t("test_nn_autograd.py", "test_nn_modules.py",
                    "test_models.py", "test_training.py"),
    },
    "obs": {
        "dir": os.path.join(REPO, "src", "repro", "obs"),
        "tests": _t("test_obs.py", "test_runs.py", "test_quality.py"),
    },
    "serving": {
        "dir": os.path.join(REPO, "src", "repro", "serving"),
        "tests": _t("test_serving.py", "test_delta.py",
                    "test_quality.py"),
    },
    "sta": {
        "dir": os.path.join(REPO, "src", "repro", "sta"),
        "tests": _t("test_sta.py", "test_sta_properties.py",
                    "test_incremental.py", "test_paths.py",
                    "test_delta.py"),
    },
    "graphdata": {
        "dir": os.path.join(REPO, "src", "repro", "graphdata"),
        "tests": _t("test_graphdata.py", "test_golden.py",
                    "test_delta.py"),
    },
}

sys.path.insert(0, os.path.join(REPO, "src"))

_executed = set()
_target_dirs = tuple(spec["dir"] for spec in TARGETS.values())


def _local_trace(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local_trace


def _global_trace(frame, event, arg):
    # Only pay per-line tracing cost inside the target packages.
    if frame.f_code.co_filename.startswith(_target_dirs):
        return _local_trace(frame, event, arg)
    return None


def executable_lines(path):
    """Line numbers the compiler can execute, per code object."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _start, _end, line in obj.co_lines():
            if line is not None:
                lines.add(line)
        stack.extend(const for const in obj.co_consts
                     if hasattr(const, "co_lines"))
    # A module's code object reports line 0 for setup bytecode.
    lines.discard(0)
    return lines


def report_package(name, spec, floor):
    """Print the per-file table for one package; return False on miss."""
    target_dir = spec["dir"]
    total_exec = total_hit = 0
    print(f"\ncoverage of {os.path.relpath(target_dir, REPO)}:")
    paths = []
    for root, _dirs, files in os.walk(target_dir):
        paths += [os.path.join(root, f) for f in files
                  if f.endswith(".py")]
    for path in sorted(paths):
        fname = os.path.relpath(path, target_dir)
        executable = executable_lines(path)
        hit = {line for fn, line in _executed if fn == path}
        covered = executable & hit
        missed = sorted(executable - hit)
        pct = 100.0 * len(covered) / max(len(executable), 1)
        total_exec += len(executable)
        total_hit += len(covered)
        gaps = ",".join(str(line) for line in missed[:12])
        more = f" (+{len(missed) - 12} more)" if len(missed) > 12 else ""
        print(f"  {fname:<20}{pct:6.1f}%  "
              f"({len(covered)}/{len(executable)})"
              + (f"  missed: {gaps}{more}" if missed else ""))
    pct = 100.0 * total_hit / max(total_exec, 1)
    print(f"  {'TOTAL':<16}{pct:6.1f}%  ({total_hit}/{total_exec}, "
          f"floor {floor:.0f}%)")
    if pct < floor:
        print(f"coverage_floor: {pct:.1f}% is below the {floor:.0f}% "
              f"floor for src/repro/{name}", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=float, default=80.0,
                        help="minimum percent of executable lines "
                             "(default 80)")
    parser.add_argument("--package", choices=sorted(TARGETS), default=None,
                        help="check one package (default: all)")
    args = parser.parse_args()
    targets = ({args.package: TARGETS[args.package]} if args.package
               else TARGETS)

    import pytest

    test_files = []
    for spec in targets.values():
        test_files += [t for t in spec["tests"] if t not in test_files]

    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *test_files])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if rc != 0:
        print(f"coverage_floor: test run failed (exit {rc})",
              file=sys.stderr)
        return int(rc)

    ok = True
    for name, spec in targets.items():
        ok = report_package(name, spec, args.min) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
