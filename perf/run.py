"""Layer-attributed benchmark of the timing-GNN program.

Runs one workload (or all four), checks every answer against a
harness-side oracle and prints every metric by name with its unit.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"latency_geomean_ms": {"value": 61.2, "unit": "ms"}, ...}}

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
(``--trace 1``) print the per-layer breakdown.  Usage, from the root of a
checkout::

    python3 perf/run.py --workload warm_predict --seed 3 --trace 0
    python3 perf/run.py --workload eco_delta --trace 1 --out /tmp/perf-trace

See perf/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from harness import (ROOT, HarnessError, Scratch, environment_record,
                     prepare_harness_environment, require_source)


def benchmark_seconds():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"cannot read run_seconds: {exc!r}")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: print the per-layer breakdown instead")
    parser.add_argument("--out", type=Path,
                        help="write the spans and client ops as JSONL here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_seconds()
    return args


def result_line(outcome):
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()}})


def main(argv=None):
    # A caller's timeout arrives as SIGTERM: unwind so children are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_source()
        removed = prepare_harness_environment()
        import repro  # noqa: F401  (compile bytecode before any set-up)
        import workloads
        args = parse_args(argv, list(workloads.WORKLOADS))
        print("# env " + json.dumps(environment_record(removed)),
              flush=True)
        names = [args.workload] if args.workload else list(
            workloads.WORKLOADS)
        scratch = Scratch()
        try:
            for name in names:
                outcome = workloads.run(name, args.seed, args.seconds,
                                        bool(args.trace), scratch)
                for metric, (value, unit) in outcome.metrics.items():
                    print(f"# {name} {metric} = {value:.6g} {unit}")
                if args.out:
                    args.out.mkdir(parents=True, exist_ok=True)
                    path = args.out / f"{name}-seed{args.seed}-" \
                        f"trace{args.trace}.jsonl"
                    with open(path, "w") as fh:
                        for record in outcome.records:
                            fh.write(json.dumps(record) + "\n")
                print(result_line(outcome), flush=True)
        finally:
            scratch.close()
    except HarnessError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
