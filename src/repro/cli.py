"""Command-line interface: run the flow, train, predict, export files.

Usage (also available as ``python -m repro``):

    repro flow picorv32a                 # place/route/STA + timing report
    repro dataset --scale 1.0            # build + cache the 21-design suite
    repro build-dataset --workers 4      # parallel build of the design suite
    repro cache ls                       # inspect the on-disk artifact store
    repro train --variant full           # train the timer-inspired GNN
    repro predict usbf_device            # model vs. ground-truth slack
    repro serve --port 8080              # HTTP slack-prediction service
    repro runs ls                        # recorded training runs
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

    # A model served from the checkpoint cache records no run, so only a
    # run newer than the one before the call belongs to this command.
    ledger = default_ledger()
    before = (ledger.latest(kind="train") or {}).get("run_id")
    model = trained_timing_gnn(args.variant, scale=args.scale,
                               epochs=args.epochs)
    train, test = train_test_graphs(args.scale)
    print(f"{'design':<16}{'split':<7}{'arrival R2':>12}{'slack R2':>10}")
    for split, graphs in (("train", train), ("test", test)):
        metrics = evaluate_on(model, graphs)
        for name, m in metrics.items():
            print(f"{name:<16}{split:<7}{m['arrival_r2']:>12.4f}"
                  f"{m['slack_r2']:>10.4f}")
    latest = ledger.latest(kind="train")
    if latest is not None and latest["run_id"] != before:
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


def _cmd_serve(args):
    import signal
    import threading

    from .serving import ModelRegistry, PredictionService, ServingServer

    registry = ModelRegistry(scale=args.scale, epochs=args.epochs)
    service = PredictionService(registry=registry, scale=args.scale,
                                batch_window_ms=args.batch_window_ms,
                                max_batch=args.max_batch)
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


def _summarize_run(record):
    """One-line description of a run record for `repro runs ls`."""
    if not str(record.get("kind", "?")).startswith("train"):
        return ""
    loss = record.get("loss") or []
    if record.get("final_loss") is None:
        return f"epochs={len(loss)}"
    return f"epochs={len(loss)} final_loss={record['final_loss']:.5g}"


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


def _cmd_profile(args):
    from .experiments import experiment_scale
    from .graphdata import load_dataset
    from .netlist import BENCHMARKS
    from .obs import format_profile_table, profile_train_step

    scale = experiment_scale() if args.scale is None else args.scale
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

    p = sub.add_parser("runs",
                       help="inspect the run ledger (REPRO_RUNS_DIR)")
    p.add_argument("action", choices=["ls", "show", "export"])
    p.add_argument("run_id", nargs="?", default=None,
                   help="run id (or unique prefix) for `show`")
    p.add_argument("--kind", default=None,
                   help="filter by kind prefix (train, train_gcnii, "
                        "...)")
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
