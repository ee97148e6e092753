"""Command-line interface: run the flow, train, predict, export files.

Usage (also available as ``python -m repro``):

    repro flow picorv32a                 # place/route/STA + timing report
    repro dataset --scale 1.0            # build + cache the 21-design suite
    repro build-dataset --workers 4      # parallel build of the design suite
    repro cache ls                       # inspect the on-disk artifact store
    repro train --variant full           # train the timer-inspired GNN
    repro predict usbf_device            # model vs. ground-truth slack
    repro serve --port 8080              # HTTP slack-prediction service
    repro bench-serve --clients 8        # loadgen benchmark of the service
    repro bench-compute --reps 5         # fused vs. naive kernel benchmark
    repro bench diff --check             # gate BENCH files vs. run ledger
    repro runs ls                        # recorded training/bench runs
    repro profile --backend fused        # per-op profile of a train step
    repro report --html -o report.html   # static HTML trajectory report
    repro stats --url http://host:8080   # stats/metrics of a live server
    repro top --url http://host:8080     # live server dashboard (ANSI)
    repro trace picorv32a -o t.jsonl     # traced flow run -> JSONL spans
    repro trace --export t.jsonl --trace-id 4f...  # one request timeline
    repro write-verilog des -o des.v     # export a benchmark netlist
    repro write-liberty -c late -o s.lib # export one library corner
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_flow(args):
    from .liberty import make_sky130_like_library
    from .netlist import build_benchmark, validate_design
    from .placement import place_design
    from .routing import route_design
    from .sta import build_timing_graph, format_path_report, run_sta, \
        timing_summary

    library = make_sky130_like_library()
    design = build_benchmark(args.benchmark, library, scale=args.scale)
    validate_design(design)
    placement = place_design(design, seed=args.seed)
    routing = route_design(design, placement)
    graph = build_timing_graph(design)
    result = run_sta(design, placement, routing, graph=graph,
                     clock_period=args.clock)
    stats = design.stats()
    print(f"design {stats['name']}: {stats['nodes']} pins, "
          f"{stats['net_edges']} net arcs, {stats['cell_edges']} cell "
          f"arcs, {stats['endpoints']} endpoints, "
          f"{routing.total_wirelength:.0f} um routed")
    for key, value in timing_summary(result).items():
        print(f"  {key}: {value:.1f}" if isinstance(value, float)
              else f"  {key}: {value}")
    print()
    print(format_path_report(result, mode="setup"))
    return 0


def _cmd_dataset(args):
    from .experiments import format_table1, get_dataset
    get_dataset(args.scale)
    print(format_table1(scale=args.scale))
    return 0


def _cmd_build_dataset(args):
    import time

    from .graphdata import load_dataset
    from .netlist import BENCHMARKS
    from .obs import get_registry

    benchmarks = BENCHMARKS
    if args.designs:
        by_name = {b.name: b for b in BENCHMARKS}
        unknown = [n for n in args.designs if n not in by_name]
        if unknown:
            print(f"unknown benchmarks: {unknown}", file=sys.stderr)
            return 2
        benchmarks = [by_name[n] for n in args.designs]
    t0 = time.perf_counter()
    records = load_dataset(scale=args.scale, cache=not args.no_cache,
                           cache_dir=args.cache_dir, benchmarks=benchmarks,
                           workers=args.workers)
    elapsed = time.perf_counter() - t0
    print(f"{'design':<16}{'split':<7}{'nodes':>7}{'net':>7}{'cell':>7}"
          f"{'EP':>6}{'flow s':>8}")
    for spec in benchmarks:
        record = records[spec.name]
        stats = record.graph.stats()
        print(f"{spec.name:<16}{spec.split:<7}{stats['nodes']:>7}"
              f"{stats['net_edges']:>7}{stats['cell_edges']:>7}"
              f"{stats['endpoints']:>6}{record.flow_time:>8.2f}")
    snapshot = get_registry().snapshot()
    hits = sum(entry["value"]
               for entry in snapshot.get("repro_dataset_designs_total", [])
               if entry["labels"].get("result") == "hit")
    print(f"\nbuilt {len(records)} designs in {elapsed:.2f}s "
          f"(workers={args.workers or 'REPRO_WORKERS'}, "
          f"cache hits {int(hits)})")
    return 0


def _cmd_cache(args):
    from .parallel import ArtifactStore

    root = os.path.join(args.cache_dir, "artifacts") \
        if args.cache_dir else None
    store = ArtifactStore(root)
    if args.action == "ls":
        entries = store.entries()
        if not entries:
            print(f"artifact store {store.root}: empty")
            return 0
        print(f"{'key':<26}{'kind':<15}{'ver':>4}{'KiB':>9}  meta")
        for rec in entries:
            meta = rec.get("meta") or {}
            desc = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            print(f"{rec['key']:<26}{rec.get('kind', '?'):<15}"
                  f"{rec.get('version', 0):>4}"
                  f"{rec.get('size', 0) / 1024:>9.1f}  {desc}")
        print(f"\n{len(entries)} entries, "
              f"{store.total_bytes() / 1024 / 1024:.1f} MiB in {store.root}")
        return 0
    if args.action == "clear":
        removed = store.clear(kind=args.kind)
        print(f"removed {removed} entries from {store.root}")
        return 0
    if args.action == "verify":
        problems = store.verify()
        total = len(store.keys())
        if not problems:
            print(f"artifact store {store.root}: {total} entries ok")
            return 0
        for key, reason in problems:
            print(f"CORRUPT {key}: {reason}", file=sys.stderr)
        print(f"{len(problems)} of {total} entries corrupt", file=sys.stderr)
        return 1
    raise AssertionError(args.action)


def _cmd_train(args):
    from .experiments import train_test_graphs, trained_timing_gnn
    from .obs import default_ledger
    from .training import evaluate_on

    model = trained_timing_gnn(args.variant, scale=args.scale,
                               epochs=args.epochs)
    train, test = train_test_graphs(args.scale)
    print(f"{'design':<16}{'split':<7}{'arrival R2':>12}{'slack R2':>10}")
    for split, graphs in (("train", train), ("test", test)):
        metrics = evaluate_on(model, graphs)
        for name, m in metrics.items():
            print(f"{name:<16}{split:<7}{m['arrival_r2']:>12.4f}"
                  f"{m['slack_r2']:>10.4f}")
    latest = default_ledger().latest(kind="train")
    if latest is not None:
        print(f"\nrun recorded: {latest['run_id']}  "
              f"(see `repro runs show {latest['run_id']}`)")
    else:
        print("\nmodel loaded from checkpoint cache; no new run recorded")
    return 0


def _cmd_predict(args):
    from .experiments import get_dataset, trained_timing_gnn
    from .graphdata import TIME_SCALE
    from .training import evaluate_timing_gnn, slack_from_arrival

    records = get_dataset(args.scale)
    if args.benchmark not in records:
        print(f"unknown benchmark {args.benchmark}", file=sys.stderr)
        return 2
    graph = records[args.benchmark].graph
    model = trained_timing_gnn(args.variant, scale=args.scale)
    metrics = evaluate_timing_gnn(model, graph)
    print(f"{args.benchmark}: arrival R2 {metrics['arrival_r2']:+.4f}, "
          f"slack R2 {metrics['slack_r2']:+.4f}, "
          f"slew R2 {metrics['slew_r2']:+.4f}")
    pred = model.predict(graph)
    slack_pred = slack_from_arrival(graph, pred.numpy_arrival())
    slack_true = graph.slack()
    wns_pred = float(np.nanmin(slack_pred[:, 2:4])) * TIME_SCALE
    wns_true = float(np.nanmin(slack_true[:, 2:4])) * TIME_SCALE
    print(f"setup WNS: true {wns_true:.1f} ps, predicted {wns_pred:.1f} ps")
    return 0


def _build_service(args):
    """The in-process PredictionService the CLI flags describe."""
    from .serving import ModelRegistry, PredictionService

    registry = ModelRegistry(scale=args.scale, epochs=args.epochs)
    return PredictionService(registry=registry, scale=args.scale,
                             batch_window_ms=args.batch_window_ms,
                             max_batch=args.max_batch)


def _cmd_serve(args):
    import signal
    import threading

    from .serving import ServingServer

    service = _build_service(args)
    if args.warm:
        print(f"warming model {args.model_variant!r} ...")
        service.warm(models=[args.model_variant])
    server = ServingServer(service, host=args.host, port=args.port,
                           quiet=False)

    # Graceful shutdown: SIGTERM/SIGINT stop accepting, drain in-flight
    # requests and close the service.  Handlers go in before the ready
    # line is printed, so a supervisor reacting to it can signal
    # immediately.
    stop = threading.Event()

    def _graceful(signum, _frame):
        print(f"\nsignal {signum}: draining and shutting down")
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    host, port = server.address
    print(f"serving on http://{host}:{port}  "
          f"(POST /predict, GET /models /healthz /stats /metrics)",
          flush=True)
    server.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0


def _bench_delta(args, designs):
    """One ECO iteration: incremental delta vs full rebuild, in-process.

    Drives the largest of ``designs`` (by node count).  After a cell
    move, a service without the delta path must rebuild the graph —
    re-route, full STA, re-extraction — and run a whole-graph forward;
    that conventional iteration is the ``full_latency_ms`` baseline.
    The delta iteration is one single-edit ``/predict/delta`` request
    end to end (feature patch + cone-limited forward; it neither routes
    nor runs STA).  Recorded as ``extra["delta"]`` in BENCH_serving.json;
    scripts/ci.sh asserts ``delta_speedup > 1``.
    """
    import time

    from . import nn
    from .graphdata import extract_graph
    from .routing import route_design
    from .serving.service import PredictRequest
    from .sta import build_timing_graph, run_sta

    service = _build_service(args)
    try:
        service.warm(models=[args.model_variant], designs=designs)

        def nodes(name):
            graph, _key, _hit = service.resolve_graph(
                PredictRequest(design=name,
                               model=args.model_variant).validate())
            return graph.num_nodes

        design = max(designs, key=nodes)
        body = {"design": design, "model": args.model_variant,
                "no_cache": True}
        session = service.delta_session(design)
        model = service.registry.get(args.model_variant).model
        patcher = session.patcher
        cells = patcher.design.combinational_cells
        die = patcher.placement.die
        rng = np.random.default_rng(0)

        def move_edit():
            cell = cells[int(rng.integers(len(cells)))]
            return {"op": "move_cell", "cell": cell.name,
                    "x": float(rng.uniform(0, die.width)),
                    "y": float(rng.uniform(0, die.height))}

        # Conventional iterations: the edit applies untimed, then the
        # timed section is everything a non-incremental service redoes —
        # re-route, full STA, re-extraction, whole-graph forward.
        full_ms = []
        from .graphdata.patch import parse_edits
        with session.lock:
            for _ in range(max(3, args.delta_edits // 4)):
                session.apply(parse_edits([move_edit()]))
                start = time.perf_counter()
                routing = route_design(patcher.design, patcher.placement)
                graph = build_timing_graph(patcher.design)
                result = run_sta(patcher.design, patcher.placement,
                                 routing, clock_period=patcher.clock_period,
                                 graph=graph)
                hetero = extract_graph(graph, patcher.placement, result,
                                       split=patcher.hetero.split)
                with nn.no_grad():
                    model.predict(hetero)
                full_ms.append((time.perf_counter() - start) * 1000.0)

        # First delta request pays the session catch-up (a full
        # incremental pass); run it untimed so the timed loop measures
        # steady-state single-edit cones.
        service.predict_delta(dict(body, edits=[]))
        delta_ms = []
        for _ in range(args.delta_edits):
            start = time.perf_counter()
            service.predict_delta(dict(body, edits=[move_edit()]))
            delta_ms.append((time.perf_counter() - start) * 1000.0)

        full = float(np.median(full_ms))
        delta = float(np.median(delta_ms))
        return {"design": design, "num_nodes": nodes(design),
                "edits": args.delta_edits,
                "full_latency_ms": round(full, 3),
                "delta_latency_ms": round(delta, 3),
                "delta_speedup": round(full / delta, 3) if delta > 0
                else 0.0}
    finally:
        service.close()


def _cmd_bench_serve(args):
    from .netlist import benchmark_names
    from .serving import (ServingServer, format_loadgen_report,
                          run_loadgen)

    designs = args.designs or benchmark_names("test")[:args.num_designs]

    service = _build_service(args)
    print(f"warming model {args.model_variant!r} and "
          f"{len(designs)} design graphs ...")
    service.warm(models=[args.model_variant], designs=designs)
    try:
        with ServingServer(service) as server:
            print(f"driving {server.url} with {args.clients} clients x "
                  f"{args.requests_per_client} requests over {designs}")
            result = run_loadgen(
                server.url, designs, clients=args.clients,
                requests_per_client=args.requests_per_client,
                model=args.model_variant, deadline_ms=args.deadline_ms,
                warmup_requests=args.warmup_requests,
                no_cache=args.no_cache)
    finally:
        service.close()
    print(format_loadgen_report(result))

    extra = {}
    quality = result.server_stats.get("quality") or {}
    if quality.get("enabled"):
        # Shadow-audit digest (REPRO_AUDIT_RATE > 0); scripts/ci.sh
        # asserts these fields are well-formed for audited runs.
        extra["audit"] = {
            "samples": int(quality.get("samples", 0) or 0),
            "slack_mae_ps": quality.get("slack_mae_ps"),
            "drift_score": quality.get("drift_score"),
            "rate": quality.get("rate"),
        }
        mae = extra["audit"]["slack_mae_ps"]
        print(f"shadow audits: {extra['audit']['samples']} scored, "
              f"slack MAE "
              + (f"{mae:.2f} ps" if mae is not None else "n/a"))
    if args.delta:
        print(f"[delta] timing {args.delta_edits} single-edit deltas "
              f"vs full rebuild-and-forward iterations ...")
        extra["delta"] = _bench_delta(args, designs)
        print(f"delta speedup on {extra['delta']['design']}: "
              f"{extra['delta']['delta_speedup']:.2f}x "
              f"({extra['delta']['full_latency_ms']:.1f} ms full -> "
              f"{extra['delta']['delta_latency_ms']:.1f} ms delta)")
    if args.bench_json:
        from .serving import write_bench_json
        path = write_bench_json(result, args.bench_json, params={
            "clients": args.clients,
            "requests_per_client": args.requests_per_client,
            "model": args.model_variant, "designs": list(designs),
            "scale": args.scale, "epochs": args.epochs,
            "deadline_ms": args.deadline_ms,
            "batch_window_ms": args.batch_window_ms,
            "max_batch": args.max_batch,
            "no_cache": args.no_cache}, extra=extra)
        print(f"wrote {path}")
    bad = result.errors + result.incorrect
    if bad:
        print(f"FAILED: {bad} bad responses", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_compute(args):
    from .bench import (format_compute_report, run_compute_bench,
                        write_compute_bench_json)
    from .graphdata import load_dataset
    from .netlist import BENCHMARKS

    scale = args.scale
    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    if args.quick:
        # Smoke mode: one design at a bounded scale, the two stages the
        # CI speedup gate reads, enough interleaved reps to dodge noise.
        # Explicit --scale / --designs still win.
        if args.scale is None:
            scale = min(scale, 0.5)
        if args.designs is None:
            args.num_designs = 1
        args.stages = ["forward", "forward_backward"]
        args.reps = max(args.reps, 7)
        args.warmup = max(args.warmup, 2)
    by_name = {b.name: b for b in BENCHMARKS}
    if args.designs:
        unknown = [n for n in args.designs if n not in by_name]
        if unknown:
            print(f"unknown benchmarks: {unknown}", file=sys.stderr)
            return 2
        benchmarks = [by_name[n] for n in args.designs]
        records = load_dataset(scale=scale, benchmarks=benchmarks)
        graphs = [records[b.name].graph for b in benchmarks]
    else:
        # Default: the --num-designs largest designs of the suite, where
        # the kernel-level differences actually show.
        records = load_dataset(scale=scale)
        graphs = sorted((r.graph for r in records.values()),
                        key=lambda g: g.num_nodes,
                        reverse=True)[:args.num_designs]
    from . import nn
    import contextlib

    threads_ctx = (nn.use_threads(args.threads)
                   if args.threads is not None else contextlib.nullcontext())
    with threads_ctx:
        threads = nn.thread_count()
        print(f"benchmarking {len(graphs)} designs at scale {scale} "
              f"({args.reps} reps, {args.warmup} warmup, "
              f"dtypes {args.dtypes}, threads {threads}) ...")
        result = run_compute_bench(graphs, reps=args.reps,
                                   warmup=args.warmup, stages=args.stages,
                                   dtypes=args.dtypes)
    print(format_compute_report(result))
    if args.bench_json:
        path = write_compute_bench_json(result, args.bench_json, params={
            "designs": [g.name for g in graphs], "scale": scale,
            "reps": args.reps, "warmup": args.warmup,
            "dtypes": list(args.dtypes), "threads": threads,
            "quick": bool(args.quick)})
        print(f"wrote {path}")
    return 0


def _summarize_run(record):
    """One-line description of a run record for `repro runs ls`."""
    kind = str(record.get("kind", "?"))
    if kind.startswith("train"):
        loss = record.get("loss") or []
        detail = (f"epochs={len(loss)} "
                  f"final_loss={record.get('final_loss'):.5g}"
                  if record.get("final_loss") is not None
                  else f"epochs={len(loss)}")
    elif kind.startswith("bench"):
        payload = record.get("payload") or {}
        if payload.get("benchmark") == "serving":
            detail = (f"rps={payload.get('throughput_rps', 0):.1f} "
                      f"p99={payload.get('latency_p99_ms', 0):.1f}ms")
        else:
            summary = payload.get("summary") or {}
            geo = summary.get("speedup_train_step_geomean")
            detail = f"speedup={geo:.2f}x" if geo else \
                f"designs={len(payload.get('designs', []))}"
    else:
        detail = ""
    return detail


def _cmd_runs(args):
    import json

    from .obs import default_ledger

    ledger = default_ledger()
    if args.action == "ls":
        records, corrupt = ledger.scan(kind=args.kind)
        if args.last:
            records = records[-args.last:]
        if not records:
            print(f"no runs recorded in {ledger.path}")
            return 0
        print(f"{'run':<42}{'recorded':<22}{'backend':<9}detail")
        for record in records:
            print(f"{record['run_id']:<42}"
                  f"{record.get('recorded_at', '?'):<22}"
                  f"{record.get('backend', '—') or '—':<9}"
                  f"{_summarize_run(record)}")
        note = f", {corrupt} corrupt lines skipped" if corrupt else ""
        print(f"\n{len(records)} runs in {ledger.path}{note}")
        return 0
    if args.action == "show":
        if not args.run_id:
            print("runs show: RUN_ID required", file=sys.stderr)
            return 2
        record = ledger.get(args.run_id)
        if record is None:
            print(f"no run matching {args.run_id!r} in {ledger.path}",
                  file=sys.stderr)
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.action == "export":
        records, corrupt = ledger.scan(kind=args.kind)
        out = sys.stdout if args.output in (None, "-") \
            else open(args.output, "w")
        try:
            for record in records:
                out.write(json.dumps(record) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()
                print(f"wrote {len(records)} runs to {args.output}"
                      + (f" ({corrupt} corrupt lines skipped)"
                         if corrupt else ""))
        return 0
    raise AssertionError(args.action)


def _cmd_audit(args):
    import json

    from .obs import AuditLog

    log = AuditLog(path=args.path)
    if args.action == "ls":
        records, corrupt = log.scan()
        if args.last:
            records = records[-args.last:]
        if not records:
            print(f"no audits recorded in {log.path}")
            return 0
        print(f"{'audit':<42}{'design':<14}{'model':<14}"
              f"{'mae_ps':>9}{'drift':>8}")
        for record in records:
            mae = record.get("slack_mae_ps")
            drift = record.get("drift_score")
            mae_col = f"{mae:>9.2f}" if mae is not None else f"{'—':>9}"
            drift_col = (f"{drift:>8.3f}" if drift is not None
                         else f"{'—':>8}")
            print(f"{record['audit_id']:<42}"
                  f"{record.get('design') or '—':<14}"
                  f"{record.get('model') or '—':<14}"
                  f"{mae_col}{drift_col}")
        note = f", {corrupt} corrupt lines skipped" if corrupt else ""
        print(f"\n{len(records)} audits in {log.path}{note}")
        return 0
    if args.action == "show":
        if not args.audit_id:
            print("audit show: AUDIT_ID required", file=sys.stderr)
            return 2
        record = log.get(args.audit_id)
        if record is None:
            print(f"no audit matching {args.audit_id!r} in {log.path}",
                  file=sys.stderr)
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    raise AssertionError(args.action)


def _cmd_bench(args):
    from .bench import (DEFAULT_TOLERANCE, check_bench_file,
                        format_diff_report)
    from .obs import default_ledger

    assert args.action == "diff"
    ledger = default_ledger()
    tolerance = args.tolerance if args.tolerance is not None \
        else DEFAULT_TOLERANCE
    regressed, seen = False, 0
    for path in (args.compute, args.serving):
        if not path:
            continue
        status, deltas = check_bench_file(
            path, ledger=ledger, tolerance=tolerance, record=args.record)
        if status == "missing":
            print(f"bench diff {path}: missing (skipped)")
            continue
        seen += 1
        print(format_diff_report(path, status, deltas, tolerance=tolerance))
        regressed = regressed or status == "regression"
    if seen == 0:
        print("bench diff: no BENCH files found — run `repro bench-compute`"
              " / `repro bench-serve` first")
    if regressed:
        print("bench diff: REGRESSION past tolerance "
              f"{tolerance * 100:.0f}%", file=sys.stderr)
        return 1 if args.check else 0
    return 0


def _cmd_profile(args):
    from .graphdata import load_dataset
    from .netlist import BENCHMARKS
    from .obs import format_profile_table, profile_train_step

    scale = args.scale
    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    by_name = {b.name: b for b in BENCHMARKS}
    if args.design not in by_name:
        print(f"unknown benchmark {args.design}", file=sys.stderr)
        return 2
    records = load_dataset(scale=scale, benchmarks=[by_name[args.design]])
    graph = records[args.design].graph
    backends = ["fused", "naive"] if args.backend == "both" \
        else [args.backend]
    for backend in backends:
        prof, reference_ms = profile_train_step(graph, backend=backend)
        title = (f"train step on {args.design} (scale {scale}, "
                 f"backend {backend})")
        print(format_profile_table(prof, top=args.top,
                                   reference_ms=reference_ms, title=title))
        print()
    return 0


def _cmd_report(args):
    from .obs import default_ledger, render_html_report, write_html_report

    ledger = default_ledger()
    if args.html:
        if args.output == "-":
            print(render_html_report(ledger=ledger))
        else:
            write_html_report(args.output, ledger=ledger)
            print(f"wrote {args.output}")
        return 0
    records, corrupt = ledger.scan()
    print(f"{len(records)} runs in {ledger.path}"
          + (f" ({corrupt} corrupt lines skipped)" if corrupt else ""))
    for record in records[-10:]:
        print(f"  {record['run_id']:<42}{_summarize_run(record)}")
    print("use `repro report --html -o report.html` for the full report")
    return 0


def _cmd_stats(args):
    import json
    import urllib.request

    url = args.url.rstrip("/")
    path = "/metrics" if args.metrics else "/stats"
    try:
        with urllib.request.urlopen(url + path, timeout=args.timeout) \
                as resp:
            body = resp.read().decode()
    except OSError as exc:
        print(f"cannot reach {url}{path}: {exc}", file=sys.stderr)
        return 1
    if args.metrics:
        print(body, end="")
    else:
        print(json.dumps(json.loads(body), indent=2, sort_keys=True))
    return 0


def _cmd_trace(args):
    from .obs import format_span_tree, get_tracer, iter_trace_records

    if args.export:
        # Stream an existing (possibly rotated) JSONL sink; with
        # --trace-id only the matching records are ever held in memory,
        # so one request timeline can be pulled out of a huge sink.
        records = list(iter_trace_records(args.export,
                                          trace_id=args.trace_id))
        if not records:
            what = (f"trace {args.trace_id!r}" if args.trace_id
                    else "spans")
            print(f"no {what} found in {args.export}", file=sys.stderr)
            return 1
        if args.output:
            import json
            with open(args.output, "w") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")
            print(f"wrote {len(records)} spans to {args.output}")
        else:
            print(format_span_tree(records))
            print(f"\n{len(records)} spans from {args.export}"
                  + (f" (trace {args.trace_id})" if args.trace_id
                     else ""))
        return 0

    if not args.benchmark:
        print("trace: a benchmark name is required unless --export is "
              "given", file=sys.stderr)
        return 2
    from .flow import Flow

    tracer = get_tracer()
    tracer.reset()
    output = args.output or f"trace_{args.benchmark}.jsonl"
    tracer.set_sink(output, mode="w")
    try:
        flow = Flow.from_benchmark(args.benchmark, scale=args.scale)
        flow.run(seed=args.seed)
        flow.extract()
    finally:
        tracer.clear_sink()
    spans = tracer.spans()
    print(format_span_tree(spans))
    print(f"\nwrote {len(spans)} spans to {output}")
    return 0


def _cmd_top(args):
    import json
    import time
    import urllib.request

    from .obs import render_top

    url = args.url.rstrip("/")

    def fetch(path):
        with urllib.request.urlopen(url + path,
                                    timeout=args.timeout) as resp:
            return json.loads(resp.read())

    prev = prev_t = None
    frames = 0
    try:
        while True:
            try:
                stats = fetch("/stats")
                healthz = fetch("/healthz")
            except OSError as exc:
                print(f"cannot reach {url}: {exc}", file=sys.stderr)
                return 1
            now = time.monotonic()
            frame = render_top(stats, healthz, prev=prev,
                               dt=(now - prev_t) if prev_t else None,
                               url=url)
            if not args.no_clear:
                sys.stdout.write("\x1b[H\x1b[2J")   # ANSI home + clear
            print(frame, flush=True)
            prev, prev_t = stats, now
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_write_verilog(args):
    from .liberty import make_sky130_like_library
    from .netlist import build_benchmark, write_verilog

    library = make_sky130_like_library()
    design = build_benchmark(args.benchmark, library, scale=args.scale)
    text = write_verilog(design)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_write_sdf(args):
    from .liberty import make_sky130_like_library
    from .netlist import build_benchmark
    from .placement import place_design
    from .routing import route_design
    from .sta import build_timing_graph, run_sta, write_sdf

    library = make_sky130_like_library()
    design = build_benchmark(args.benchmark, library, scale=args.scale)
    placement = place_design(design, seed=args.seed)
    routing = route_design(design, placement)
    graph = build_timing_graph(design)
    result = run_sta(design, placement, routing, graph=graph)
    text = write_sdf(result, design_name=design.name)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_write_spef(args):
    from .liberty import make_sky130_like_library
    from .netlist import build_benchmark
    from .placement import place_design
    from .routing import route_design, write_spef

    library = make_sky130_like_library()
    design = build_benchmark(args.benchmark, library, scale=args.scale)
    placement = place_design(design, seed=args.seed)
    routing = route_design(design, placement)
    text = write_spef(routing, corner=args.corner, design_name=design.name)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_write_liberty(args):
    from .liberty import make_sky130_like_library, write_liberty

    library = make_sky130_like_library()
    text = write_liberty(library, args.corner)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timing-engine-inspired GNN reproduction (DAC'22)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="run place/route/STA on a benchmark")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--clock", type=float, default=None,
                   help="clock period in ps (default: auto-derived)")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("dataset", help="build/cache the benchmark dataset")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("build-dataset",
                       help="build the design suite on a worker pool, "
                            "write-through the artifact store")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: REPRO_WORKERS, i.e. "
                        "serial unless set)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--designs", nargs="*", default=None,
                   help="benchmark subset (default: all 21)")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the artifact store entirely")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("cache",
                       help="inspect the on-disk artifact store")
    p.add_argument("action", choices=["ls", "clear", "verify"])
    p.add_argument("--cache-dir", default=None,
                   help="cache root; the store lives in its artifacts/ "
                        "subdirectory (default: REPRO_CACHE_DIR)")
    p.add_argument("--kind", default=None,
                   help="restrict `clear` to one artifact kind")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("train", help="train (or load) the timing GNN")
    p.add_argument("--variant", default="full",
                   choices=["full", "cell", "net", "none"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="evaluate the model on one design")
    p.add_argument("benchmark")
    p.add_argument("--variant", default="full")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("serve",
                       help="run the HTTP slack-prediction service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--model-variant", default="timing-full",
                   help="registry model to pre-warm (e.g. timing-full, "
                        "net-embedding)")
    p.add_argument("--scale", type=float, default=None,
                   help="design scale (default: REPRO_SCALE)")
    p.add_argument("--epochs", type=int, default=None,
                   help="training epochs if a checkpoint must be trained")
    p.add_argument("--batch-window-ms", type=float, default=2.0)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--no-warm", dest="warm", action="store_false",
                   help="skip eager model loading at startup")
    p.set_defaults(func=_cmd_serve, warm=True)

    p = sub.add_parser("bench-serve",
                       help="benchmark the serving layer with concurrent "
                            "clients")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests-per-client", type=int, default=8)
    p.add_argument("--model-variant", default="timing-full")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--designs", nargs="*", default=None,
                   help="benchmark names to request (default: first "
                        "--num-designs test designs)")
    p.add_argument("--num-designs", type=int, default=3)
    p.add_argument("--deadline-ms", type=float, default=None)
    p.add_argument("--batch-window-ms", type=float, default=2.0)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--cached", dest="no_cache", action="store_false",
                   help="let requests hit the server result cache "
                        "(default: bypass it so every request runs a "
                        "real model forward)")
    p.add_argument("--warmup-requests", type=int, default=None,
                   help="untimed /predict calls before the timed phase "
                        "(default: one per design; 0 disables)")
    p.add_argument("--bench-json", default="BENCH_serving.json",
                   help="record the run to this JSON file "
                        "('' disables)")
    p.add_argument("--delta", action="store_true",
                   help="also time single-edit /predict/delta requests "
                        "against conventional rebuild-and-forward ECO "
                        "iterations on the largest design")
    p.add_argument("--delta-edits", type=int, default=16,
                   help="number of timed move_cell deltas in the "
                        "--delta phase")
    p.set_defaults(func=_cmd_bench_serve, no_cache=True)

    p = sub.add_parser("bench-compute",
                       help="benchmark fused vs. naive kernel backends "
                            "on full-model passes")
    p.add_argument("--designs", nargs="*", default=None,
                   help="benchmark names (default: the --num-designs "
                        "largest designs of the suite)")
    p.add_argument("--num-designs", type=int, default=3)
    p.add_argument("--scale", type=float, default=None,
                   help="design scale (default: REPRO_SCALE)")
    p.add_argument("--reps", type=int, default=3,
                   help="timed passes per (design, backend, stage) cell")
    p.add_argument("--warmup", type=int, default=1,
                   help="untimed passes before timing each cell")
    p.add_argument("--stages", nargs="*",
                   default=["forward", "forward_backward", "train_step"],
                   choices=["forward", "forward_backward", "train_step"])
    p.add_argument("--dtypes", nargs="*", default=["float64", "float32"],
                   choices=["float64", "float32"],
                   help="dtypes the fused backend is timed at (naive "
                        "always runs the float64 reference)")
    p.add_argument("--threads", type=int, default=None,
                   help="compute-thread budget for the run (default: "
                        "REPRO_COMPUTE_THREADS)")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: largest design only, forward + "
                        "forward_backward, capped scale/reps — the CI "
                        "smoke settings")
    p.add_argument("--bench-json", default="BENCH_compute.json",
                   help="record the run to this JSON file ('' disables)")
    p.set_defaults(func=_cmd_bench_compute)

    p = sub.add_parser("bench",
                       help="bench artefact tooling (`bench diff` gates "
                            "BENCH files against the run ledger)")
    p.add_argument("action", choices=["diff"])
    p.add_argument("--check", action="store_true",
                   help="exit non-zero when any metric regresses past "
                        "the tolerance")
    p.add_argument("--record", action="store_true",
                   help="append the current BENCH payloads to the ledger "
                        "after comparing (start/extend the baseline "
                        "history)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative regression tolerance (default 0.5 = "
                        "50%%)")
    p.add_argument("--compute", default="BENCH_compute.json",
                   help="compute bench artefact ('' skips)")
    p.add_argument("--serving", default="BENCH_serving.json",
                   help="serving bench artefact ('' skips)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("runs",
                       help="inspect the run ledger (REPRO_RUNS_DIR)")
    p.add_argument("action", choices=["ls", "show", "export"])
    p.add_argument("run_id", nargs="?", default=None,
                   help="run id (or unique prefix) for `show`")
    p.add_argument("--kind", default=None,
                   help="filter by kind prefix (train, bench, ...)")
    p.add_argument("-n", "--last", type=int, default=None,
                   help="only the N most recent runs (ls)")
    p.add_argument("-o", "--output", default=None,
                   help="export destination ('-' = stdout)")
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser("audit",
                       help="inspect the shadow-audit log "
                            "(REPRO_RUNS_DIR/audits.jsonl)")
    p.add_argument("action", choices=["ls", "show"])
    p.add_argument("audit_id", nargs="?", default=None,
                   help="audit id (or unique prefix) for `show`")
    p.add_argument("-n", "--last", type=int, default=None,
                   help="only the N most recent audits (ls)")
    p.add_argument("--path", default=None,
                   help="explicit audit-log path (default: "
                        "REPRO_RUNS_DIR/audits.jsonl)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("profile",
                       help="tape-level profile of a full train step "
                            "per kernel backend")
    p.add_argument("--design", default="usbf_device",
                   help="benchmark design to profile on")
    p.add_argument("--backend", default="both",
                   choices=["fused", "naive", "both"])
    p.add_argument("--scale", type=float, default=None,
                   help="design scale (default: REPRO_SCALE)")
    p.add_argument("--top", type=int, default=20,
                   help="rows in the per-op table")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("report",
                       help="render the run-ledger trajectory (HTML "
                            "with --html)")
    p.add_argument("--html", action="store_true",
                   help="write the full static HTML report")
    p.add_argument("-o", "--output", default="report.html",
                   help="HTML destination ('-' = stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("stats",
                       help="print /stats (or /metrics) of a running "
                            "server")
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--metrics", action="store_true",
                   help="fetch the Prometheus text endpoint instead")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("top",
                       help="live terminal dashboard over a running "
                            "server (/stats + /healthz)")
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between refreshes")
    p.add_argument("-n", "--iterations", type=int, default=0,
                   help="frames to draw before exiting (0 = until "
                        "Ctrl-C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of redrawing in place")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("trace",
                       help="run a traced flow, or filter an existing "
                            "JSONL trace sink (--export)")
    p.add_argument("benchmark", nargs="?", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--export", default=None, metavar="SINK",
                   help="render spans from this (possibly rotated) JSONL "
                        "sink instead of running a flow")
    p.add_argument("--trace-id", default=None,
                   help="with --export: only spans of this trace id")
    p.add_argument("-o", "--output", default=None,
                   help="JSONL destination (default: "
                        "trace_<benchmark>.jsonl; with --export, write "
                        "the matching spans there instead of rendering)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("write-verilog", help="export a benchmark netlist")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_write_verilog)

    p = sub.add_parser("write-sdf", help="run the flow, export SDF delays")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_write_sdf)

    p = sub.add_parser("write-spef",
                       help="run place+route, export SPEF parasitics")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-c", "--corner", default="late",
                   choices=["early", "late"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_write_spef)

    p = sub.add_parser("write-liberty", help="export a library corner")
    p.add_argument("-c", "--corner", default="late",
                   choices=["early", "late"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_write_liberty)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro stats | head`) closed early.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
