"""Paired comparison of two checkouts on the perf benchmark.

Usage::

    python3 perf/compare.py PARENT_DIR CHANGE_DIR [--workload NAME ...]
        [--pairs 10]

Each side runs its own ``BENCHMARK.json`` command from its own root.
Pair ``i`` runs both sides with seed ``FIRST_SEED + i``; odd pairs run
the change first, even pairs the parent.  For every workload and
end-to-end metric the table gives each side's median and quartiles over
its successful runs and the share of all pairs run that the change won
(ties count for neither side; a pair with a failed run is not a win).
The verdict uses the change's ``BENCHMARK.json`` bounds:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

A run that exits non-zero or reports ``correct: false`` has failed.  If
the change failed more runs of a workload than the parent, every metric
of that workload is ``regressed``; if any run failed otherwise, a
verdict that would be ``improved`` or ``unchanged`` is ``unresolved``.
The exit code is 1 if any run failed or any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 1000


def load_benchmark(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root, bench, workload, seed):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    if not result["correct"]:
        return {"error": f"{result['failed']} of {result['attempted']} "
                         f"operations failed", **result}
    return result


def failed(result):
    return "error" in result


def quartiles(values):
    if not values:
        return None
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, win_share):
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p3 - p1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if win_share >= 0.9 and worse_by < 0 and abs(c_med - p_med) > p3 - p1:
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def compare(runs, metrics):
    """Rows of (metric, parent q, change q, win share, verdict).

    ``runs`` is every pair run, as (parent result, change result);
    ``metrics`` is the ``end_to_end`` table of ``BENCHMARK.json``.
    """
    parent_failed = sum(failed(p) for p, _c in runs)
    change_failed = sum(failed(c) for _p, c in runs)
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _c in runs
                  if not failed(p)]
        change = [c["metrics"][name]["value"] for _p, c in runs
                  if not failed(c)]
        wins = sum(not failed(p) and not failed(c)
                   and sign * (c["metrics"][name]["value"]
                               - p["metrics"][name]["value"]) < 0
                   for p, c in runs)
        share = wins / len(runs)
        if change_failed > parent_failed or not change:
            decided = "regressed"
        elif not parent:
            decided = "unresolved"
        else:
            decided = verdict(parent, change, metric["better"],
                              metric["bound"], share)
            if parent_failed and decided != "regressed":
                decided = "unresolved"
        rows.append((name, quartiles(parent), quartiles(change), share,
                     decided))
    return rows


def _cell(q):
    if q is None:
        return f"{'-':>12}{'':>22}"
    return f"{q[1]:>12.5g} [{q[0]:.5g}, {q[2]:.5g}]".ljust(34)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    benches = {side: load_benchmark(getattr(args, side))
               for side in ("parent", "change")}
    spec = benches["change"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    any_failed = False
    verdicts = []
    for workload in names:
        runs = []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("change", "parent") if i % 2 else ("parent", "change")
            results = {side: run_once(getattr(args, side), benches[side],
                                      workload, seed)
                       for side in order}
            for side in order:
                if failed(results[side]):
                    any_failed = True
                    print(f"# {workload} seed {seed} {side}: "
                          f"{results[side]['error']}", file=sys.stderr)
            runs.append((results["parent"], results["change"]))
        print(f"\n{workload}: {args.pairs} pairs, failed runs: parent "
              f"{sum(failed(p) for p, _c in runs)}, change "
              f"{sum(failed(c) for _p, c in runs)}")
        print(f"{'metric':24} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'win':>5}  verdict")
        for name, pq, cq, share, decided in compare(runs,
                                                    spec["end_to_end"]):
            print(f"{name:24} {_cell(pq)} {_cell(cq)} {share:>5.2f}  "
                  f"{decided}")
            verdicts.append(decided)
    return 1 if any_failed or "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
