"""Observability semantics: metrics under concurrency, histogram
quantile accuracy and sketches, span nesting/export and trace-record
streaming, structured logging, the latency SLO window, the ``repro top``
frame renderer and the Prometheus ``/metrics`` endpoint."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import (Counter, Gauge, Histogram, JsonlLog, LogManager,
                       Logger, MetricsRegistry, SloTracker, Tracer,
                       format_span_tree, get_registry, jsonl,
                       mint_trace_id, render_top)


# -- counters / gauges under concurrency ---------------------------------------
class TestCounterGauge:
    def test_concurrent_counter_increments_are_exact(self):
        counter = Counter("test_total")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("test_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name!")
        with pytest.raises(ValueError):
            Counter("ok_total", **{"bad-label": "x"})


# -- histogram -----------------------------------------------------------------
class TestHistogram:
    def test_quantile_accuracy_exact_within_reservoir(self):
        hist = Histogram("lat_ms", reservoir=4096)
        values = np.arange(1.0, 1001.0)
        for v in values:
            hist.observe(v)
        assert hist.count == 1000
        assert hist.sum == pytest.approx(values.sum())
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == pytest.approx(
                np.quantile(values, q))

    def test_concurrent_observers_exact_count_sum(self):
        hist = Histogram("lat_ms", reservoir=100000)
        threads = [threading.Thread(
            target=lambda: [hist.observe(1.0) for _ in range(1000)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 8000
        assert hist.sum == pytest.approx(8000.0)

    def test_rolling_reservoir_tracks_recent_window(self):
        hist = Histogram("lat_ms", reservoir=100)
        for v in range(1000):
            hist.observe(float(v))
        # count/sum/min/max are exact over the whole stream ...
        assert hist.count == 1000
        assert hist.snapshot()["max"] == 999.0
        assert hist.snapshot()["min"] == 0.0
        # ... while quantiles come from the last `reservoir` samples.
        assert hist.quantile(0.5) == pytest.approx(949.5)

    def test_empty_histogram(self):
        hist = Histogram("lat_ms")
        assert np.isnan(hist.quantile(0.5))
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["p50"] == 0.0


class TestSketch:
    def test_sketch_exact_within_max_points(self):
        hist = Histogram("lat_ms")
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for v in values:
            hist.observe(v)
        sketch = hist.sketch(max_points=16)
        assert sketch["count"] == 5
        assert sketch["sum"] == pytest.approx(15.0)
        assert sketch["min"] == 1.0 and sketch["max"] == 5.0
        assert sketch["sample"] == sorted(values)

    def test_sketch_bounded_past_max_points(self):
        hist = Histogram("lat_ms")
        values = np.arange(1.0, 1001.0)
        for v in values:
            hist.observe(v)
        sketch = hist.sketch(max_points=64)
        assert len(sketch["sample"]) == 64
        assert sketch["count"] == 1000
        # The grid spans the reservoir and stays sorted.
        assert sketch["sample"][0] == pytest.approx(1.0)
        assert sketch["sample"][-1] == pytest.approx(1000.0)
        assert sketch["sample"] == sorted(sketch["sample"])


# -- registry ------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", cache="graph")
        b = registry.counter("x_total", cache="graph")
        c = registry.counter("x_total", cache="result")
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.histogram("x_total", cache="other")

    def test_concurrent_get_or_create_single_instrument(self):
        registry = MetricsRegistry()
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(registry.counter("c_total")))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is results[0] for c in results)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.histogram("h_ms").observe(5.0)
        snap = registry.snapshot()
        assert snap["a_total"][0]["value"] == 2
        assert snap["h_ms"][0]["value"]["count"] == 1


# -- Prometheus text format ----------------------------------------------------
class TestPrometheusRender:
    def test_counter_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.").inc(3)
        registry.gauge("depth", model="toy").set(2)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests.\n" in text
        assert "# TYPE req_total counter\n" in text
        assert "\nreq_total 3\n" in text
        assert "# TYPE depth gauge\n" in text
        assert 'depth{model="toy"} 2\n' in text

    def test_summary_lines_and_escaping(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms", quantiles=(0.5, 0.99),
                                  path='a"b\n')
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        text = registry.render_prometheus()
        assert "# TYPE lat_ms summary" in text
        assert re.search(
            r'lat_ms\{path="a\\"b\\n",quantile="0\.5"\} 2', text)
        assert re.search(r'lat_ms_sum\{path="a\\"b\\n"\} 6', text)
        assert re.search(r'lat_ms_count\{path="a\\"b\\n"\} 3', text)

    def test_every_sample_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total", x="1").inc()
        registry.histogram("b_ms").observe(1.5)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")
        for line in registry.render_prometheus().strip().splitlines():
            if line.startswith("#"):
                continue
            assert sample.match(line), line

    def test_backslash_escapes_before_quote_and_newline(self):
        # label value with a real backslash, quote and newline; the
        # backslash must be doubled FIRST or the other escapes corrupt
        registry = MetricsRegistry()
        registry.gauge("esc_g", path='a\\b"c\nd').set(1)
        text = registry.render_prometheus()
        assert 'esc_g{path="a\\\\b\\"c\\nd"} 1\n' in text
        # round-trips: unescaping yields the original value
        escaped = re.search(r'esc_g\{path="(.*)"\} 1', text).group(1)
        unescaped = escaped.replace("\\n", "\n").replace('\\"', '"') \
                           .replace("\\\\", "\\")
        assert unescaped == 'a\\b"c\nd'

    def test_nan_and_inf_render_prometheus_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("g_nan").set(float("nan"))
        registry.gauge("g_pinf").set(float("inf"))
        registry.gauge("g_ninf").set(float("-inf"))
        text = registry.render_prometheus()
        assert "\ng_nan NaN\n" in text
        assert "\ng_pinf +Inf\n" in text
        assert "\ng_ninf -Inf\n" in text

    def test_empty_histogram_renders_zero_samples(self):
        # snapshot() substitutes 0.0 for quantiles of an empty stream
        # (only quantile() itself reports NaN), so the exposition stays
        # parseable before the first observation
        registry = MetricsRegistry()
        hist = registry.histogram("idle_ms", quantiles=(0.5,))
        text = registry.render_prometheus()
        assert re.search(r'idle_ms\{quantile="0\.5"\} 0', text)
        assert "\nidle_ms_count 0\n" in text
        assert np.isnan(hist.quantile(0.5))


class TestQuantileStreams:
    def test_constant_stream_collapses_all_quantiles(self):
        hist = Histogram("const_ms", quantiles=(0.5, 0.9, 0.99))
        for _ in range(100):
            hist.observe(7.25)
        snap = hist.snapshot()
        assert snap["p50"] == snap["p90"] == snap["p99"] == 7.25
        assert snap["min"] == snap["max"] == snap["mean"] == 7.25
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(725.0)

    def test_two_point_stream_brackets_the_step(self):
        hist = Histogram("two_ms", quantiles=(0.5, 0.99))
        for _ in range(50):
            hist.observe(1.0)
        for _ in range(50):
            hist.observe(9.0)
        assert hist.quantile(0.01) == pytest.approx(1.0)
        assert hist.quantile(0.99) == pytest.approx(9.0)
        # the median falls between the two levels, never outside
        assert 1.0 <= hist.quantile(0.5) <= 9.0
        snap = hist.snapshot()
        assert snap["min"] == 1.0 and snap["max"] == 9.0
        assert snap["mean"] == pytest.approx(5.0)


# -- tracing -------------------------------------------------------------------
class TestTracing:
    def test_nesting_parent_child_and_trace_id(self):
        tracer = Tracer()
        with tracer.span("root", design="spm") as root:
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
            with tracer.span("sibling") as sib:
                assert sib.parent_id == root.span_id
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["child", "sibling", "root"]
        assert all(s["duration_ms"] >= 0 for s in spans)
        root_rec = spans[-1]
        assert root_rec["parent_id"] is None
        assert root_rec["attrs"] == {"design": "spm"}

    def test_threads_do_not_share_span_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as sp:
                time.sleep(0.01)
                seen[name] = sp.parent_id

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(parent is None for parent in seen.values())

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans()[0]["status"] == "error"

    def test_jsonl_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.jsonl"
        tracer.set_sink(path)
        with tracer.span("a"):
            with tracer.span("b", count=np.int64(3)):
                pass
        tracer.clear_sink()
        records, corrupt = JsonlLog(path, "span_id").scan()
        assert corrupt == 0
        assert records == json.loads(json.dumps(tracer.spans(),
                                                default=jsonl.jsonable))
        assert {r["name"] for r in records} == {"a", "b"}
        assert records[0]["attrs"] == {"count": 3}

    def test_streaming_sink(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "sink.jsonl"
        tracer.set_sink(path)
        with tracer.span("streamed"):
            pass
        tracer.clear_sink()
        record = json.loads(path.read_text().strip())
        assert record["name"] == "streamed"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible") as sp:
            sp.set(k=1)
        assert tracer.spans() == []

    def test_format_span_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tree = format_span_tree(tracer.spans())
        lines = tree.splitlines()
        assert "root" in lines[0] and "  child" in lines[1]


class TestTraceRotation:
    def test_append_mode_counts_preexisting_lines(self, tmp_path,
                                                  monkeypatch):
        """A sink set on a file that already holds records appends, and
        those records count toward the size bound."""
        path = tmp_path / "trace.jsonl"
        line = json.dumps(_span_records(("fills", "t0"))[0]) + "\n"
        path.write_text(line * 4)
        monkeypatch.setattr(jsonl, "ROTATE_BYTES", int(4.5 * len(line)))
        tracer = Tracer()
        tracer.set_sink(path)
        with tracer.span("fills"):
            pass                       # fifth record: under the bound
        with tracer.span("rolls"):
            pass                       # at the bound: rotates first
        tracer.clear_sink()
        old = (tmp_path / "trace.jsonl.1").read_text().splitlines()
        assert len(old) == 5
        assert json.loads(old[-1])["name"] == "fills"
        kept = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in kept] == ["rolls"]


class TestTraceSinkErrors:
    def test_missing_sink_directory_does_not_stop_startup(self, tmp_path):
        """``REPRO_TRACE`` under a directory that does not exist yet: the
        import succeeds and the first span creates the directory."""
        path = tmp_path / "missing" / "t.jsonl"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "REPRO_TRACE": str(path),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("from repro.obs import get_tracer\n"
                "with get_tracer().span('boot'):\n"
                "    pass\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        records, _corrupt = JsonlLog(path, "span_id").scan()
        assert [r["name"] for r in records] == ["boot"]

    def test_unwritable_sink_keeps_the_traced_result(self, tmp_path):
        """A span that cannot be written (the sink path is a directory)
        is dropped from the file only: the traced work returns its value
        and the tracer still retains the span."""
        tracer = Tracer()
        tracer.set_sink(tmp_path)

        def traced():
            with tracer.span("work"):
                return 42

        assert traced() == 42
        tracer.clear_sink()
        assert [r["name"] for r in tracer.spans()] == ["work"]


def _span_records(*named):
    """Finished span records, one per ``(name, trace_id)`` pair."""
    tracer = Tracer()
    for name, trace_id in named:
        with tracer.span(name, trace_id=trace_id):
            pass
    return tracer.spans()


class TestTraceRecords:
    def test_iter_reads_rotated_generation_first(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        older, newer = _span_records(("old", "t1"), ("new", "t2"))
        with open(str(path) + ".1", "w") as fh:
            fh.write(json.dumps(older) + "\n")
        with open(path, "w") as fh:
            fh.write("not json\n\n")
            fh.write(json.dumps({"no": "span_id"}) + "\n")
            fh.write(json.dumps(newer) + "\n")
        records, corrupt = JsonlLog(path, "span_id").scan()
        assert [r["name"] for r in records] == ["old", "new"]
        assert corrupt == 2

    def test_trace_id_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            for record in _span_records(("a", "t1"), ("b", "t2"),
                                        ("c", "t1")):
                fh.write(json.dumps(record) + "\n")
        sink = JsonlLog(path, "span_id")
        assert [r["name"] for r in sink.scan(trace_id="t1")[0]] == \
            ["a", "c"]
        assert sink.scan(trace_id="zzz") == ([], 0)

    def test_missing_file_yields_nothing(self, tmp_path):
        assert JsonlLog(tmp_path / "absent.jsonl", "span_id").scan() == \
            ([], 0)

    def test_mint_trace_id_shape(self):
        ids = {mint_trace_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


# -- structured logging --------------------------------------------------------
class TestStructuredLogging:
    def _logger(self, name, **kwargs):
        buf = io.StringIO()
        manager = LogManager(stream=buf, env="", **kwargs)
        return Logger(name, manager), buf

    def test_key_value_format(self):
        log, buf = self._logger("repro.test")
        log.info("epoch", epoch=3, loss=0.5, msg="two words")
        line = buf.getvalue().strip()
        assert "lvl=info" in line and "log=repro.test" in line
        assert "event=epoch" in line and "epoch=3" in line
        assert 'msg="two words"' in line
        assert re.search(r"ts=\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", line)

    def test_default_level_filters_debug(self):
        log, buf = self._logger("repro.test")
        log.debug("hidden")
        log.info("shown")
        assert "hidden" not in buf.getvalue()
        assert "shown" in buf.getvalue()

    def test_per_module_levels_longest_prefix(self):
        log, buf = self._logger("repro.training.trainer")
        log.manager.configure(**{"repro.training": "debug",
                                 "repro": "warning"})
        log.debug("visible")         # repro.training=debug wins over repro
        other = Logger("repro.sta", log.manager)
        other.info("suppressed")     # repro=warning applies
        out = buf.getvalue()
        assert "visible" in out and "suppressed" not in out

    def test_env_configuration(self):
        buf = io.StringIO()
        manager = LogManager(stream=buf,
                             env="repro.x=debug,default=error")
        assert Logger("repro.x.y", manager).enabled_for("debug")
        assert not Logger("repro.z", manager).enabled_for("warning")

    def test_bind_sticky_fields(self):
        log, buf = self._logger("repro.test")
        log.bind(model="gnn").info("step", n=1)
        assert "model=gnn" in buf.getvalue()

    def test_concurrent_emits_do_not_shear(self):
        log, buf = self._logger("repro.test")
        threads = [threading.Thread(
            target=lambda: [log.info("tick", i=j) for j in range(100)])
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 400
        assert all(line.startswith("ts=") for line in lines)


# -- latency SLO -----------------------------------------------------------------
class TestSloTracker:
    def test_good_bad_classification(self):
        slo = SloTracker(objective_ms=100.0, window=10)
        assert slo.record(50.0) is True
        assert slo.record(150.0) is False        # over objective
        assert slo.record(None, ok=False) is False   # internal fault
        summary = slo.summary()
        assert summary == {"objective_ms": 100.0, "window": 10,
                           "total": 3, "good": 1, "bad": 2,
                           "good_ratio": pytest.approx(1 / 3, abs=1e-3)}

    def test_window_is_rolling(self):
        slo = SloTracker(objective_ms=100.0, window=2)
        slo.record(500.0)
        slo.record(10.0)
        slo.record(10.0)
        assert slo.summary()["good_ratio"] == 1.0

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLO_LATENCY_MS", "250")
        monkeypatch.setenv("REPRO_SLO_WINDOW", "32")
        slo = SloTracker()
        assert slo.objective_ms == 250.0
        assert slo.window == 32

    def test_empty_window_is_healthy(self):
        assert SloTracker().summary()["good_ratio"] == 1.0


# -- repro top frame renderer ----------------------------------------------------
class TestRenderTop:
    def _stats(self, requests=10):
        return {"counts": {"requests": requests, "errors": 1,
                           "degraded": 2},
                "latency": {"p50_ms": 12.5, "p99_ms": 80.0,
                            "mean_ms": 20.0},
                "uptime_s": 5.0,
                "result_cache": {"hits": 5, "misses": 7},
                "graph_cache": {"hits": 9, "misses": 3},
                "batching": {"timing-full": {
                    "batches": 4, "mean_batch": 2.5, "max_batch": 4,
                    "queue_depth": 0}}}

    def test_rates_from_previous_sample(self):
        frame = render_top(self._stats(requests=100),
                           prev=self._stats(requests=50), dt=5.0)
        assert "qps 10.0" in frame
        # No previous sample: no rate yet.
        assert "qps 0.0" in render_top(self._stats(requests=100))

    def test_frame_contents(self):
        healthz = {"status": "degraded",
                   "slo": {"objective_ms": 500.0, "window": 512,
                           "total": 100, "good": 97, "bad": 3,
                           "good_ratio": 0.97}}
        frame = render_top(self._stats(), healthz,
                           url="http://127.0.0.1:8080")
        assert "status degraded" in frame
        assert "SLO 97.0% good" in frame
        assert "p50 12.5 ms" in frame
        assert "caches: result 5/7 h/m   graph 9/3 h/m" in frame

    def test_single_process_frame(self):
        frame = render_top(self._stats(), {})
        assert "batcher[timing-full]" in frame
        assert "pool" not in frame and "shed" not in frame


# -- serving integration: /metrics endpoint ------------------------------------
SCALE = 0.15


@pytest.fixture(scope="module")
def server():
    from repro.models import ModelConfig, TimingGNN
    from repro.serving import (ModelRegistry, PredictionService,
                               ServingServer)
    from repro.serving.registry import ModelEntry

    registry = ModelRegistry(scale=SCALE, names=[])
    registry.register("toy", lambda: ModelEntry(
        name="toy", kind="timing", version="vtest",
        model=TimingGNN(ModelConfig.benchmark()),
        loaded_at=time.time(), load_seconds=0.0))
    service = PredictionService(registry=registry, scale=SCALE,
                                metrics=MetricsRegistry())
    with ServingServer(service) as srv:
        yield srv


def _get_text(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode()


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


class TestMetricsEndpoint:
    def test_metrics_exposes_required_families(self, server):
        _post(server.url + "/predict", {"design": "spm", "model": "toy"})
        _post(server.url + "/predict", {"design": "spm", "model": "toy"})
        # include_slack forces a result-cache miss, so the expired
        # deadline is actually consulted and the fallback path taken.
        _post(server.url + "/predict", {"design": "spm", "model": "toy",
                                        "deadline_ms": 0,
                                        "include_slack": True})
        status, content_type, text = _get_text(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        # Batch-size histogram, cache hit/miss counters, latency
        # quantiles, deadline-degradation counter (acceptance criteria).
        assert re.search(
            r'repro_batch_size\{model="toy",quantile="0\.5"\} \d', text)
        assert re.search(
            r'repro_cache_hits_total\{cache="result"\} \d', text)
        assert re.search(
            r'repro_cache_misses_total\{cache="graph"\} \d', text)
        assert re.search(
            r'repro_request_latency_ms\{quantile="0\.99"\} ', text)
        assert re.search(r"repro_deadline_fallbacks_total 1", text)
        assert re.search(r"repro_requests_total 3", text)

    def test_metrics_agrees_with_stats(self, server):
        _post(server.url + "/predict", {"design": "spm", "model": "toy"})
        _status, _ct, text = _get_text(server.url + "/metrics")
        with urllib.request.urlopen(server.url + "/stats",
                                    timeout=30) as resp:
            stats = json.loads(resp.read())
        requests_metric = re.search(r"^repro_requests_total (\d+)$",
                                    text, re.M)
        assert int(requests_metric.group(1)) == stats["counts"]["requests"]
        hits_metric = re.search(
            r'^repro_cache_hits_total\{cache="result"\} (\d+)$', text,
            re.M)
        assert int(hits_metric.group(1)) == stats["result_cache"]["hits"]

    def test_global_registry_families_included(self, server):
        """Flow/STA instrumentation (default registry) rides along."""
        _status, _ct, text = _get_text(server.url + "/metrics")
        # The server extracted at least one graph, so the process-wide
        # flow-stage histogram must be present.
        assert get_registry().get("repro_flow_stage_ms",
                                  stage="place") is not None
        assert 'repro_flow_stage_ms_count{stage="place"}' in text
