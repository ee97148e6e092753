"""Run ledger, bench regression gating, tape profiler and HTML report.

The ledger tests prove the durability contract (atomic appends, corrupt
line tolerance, schema stamping); the diff tests prove the regression
gate direction and tolerance semantics on synthetic payloads; the
profiler tests prove patch/unpatch hygiene and that per-op self time
adds up to the real step cost; the report tests prove the stdlib HTML
rendering consumes real ledger records.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench import (bench_fingerprint, check_bench_file,
                         diff_payloads, find_baseline,
                         format_diff_report, record_bench_payload)
from repro.obs import (RunLedger, config_fingerprint, default_ledger,
                       new_run_id, profile, record_run)
from repro.obs.profile import format_profile_table, profile_train_step
from repro.obs.report import render_html_report


# -- ledger --------------------------------------------------------------------
class TestRunLedger:
    def test_append_read_round_trip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        record = ledger.append({"kind": "train_timing",
                                "loss": [np.float64(1.5), 0.5],
                                "epochs": np.int64(2)})
        from repro.obs.runs import RUNS_SCHEMA_VERSION
        assert record["schema_version"] == RUNS_SCHEMA_VERSION
        assert record["run_id"].startswith("train_timing-")
        assert record["recorded_at"].endswith("Z")
        back = ledger.read()
        assert len(back) == 1
        assert back[0]["loss"] == [1.5, 0.5]
        assert back[0]["epochs"] == 2
        assert back[0]["run_id"] == record["run_id"]

    def test_appends_accumulate_and_filter_by_kind(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        for kind in ("train_timing", "train_gcnii", "bench_compute"):
            ledger.append({"kind": kind})
        assert len(ledger.read()) == 3
        assert len(ledger.read(kind="train")) == 2
        assert len(ledger.read(kind="bench")) == 1
        latest = ledger.latest(kind="train")
        assert latest["kind"] == "train_gcnii"

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        first = ledger.append({"kind": "train_timing"})
        with open(ledger.path, "a") as fh:
            fh.write('{"kind": "train_timing", "truncat\n')   # torn write
            fh.write("not json at all\n")
            fh.write('"a bare string"\n')                     # not a dict
            fh.write('{"kind": "x"}\n')                       # no run_id
        second = ledger.append({"kind": "bench_compute"})
        records, corrupt = ledger.scan()
        assert [r["run_id"] for r in records] == \
            [first["run_id"], second["run_id"]]
        assert corrupt == 4

    def test_get_by_exact_id_and_unique_prefix(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        record = ledger.append({"kind": "train_timing"})
        ledger.append({"kind": "bench_compute"})
        assert ledger.get(record["run_id"])["kind"] == "train_timing"
        assert ledger.get("train_timing-")["run_id"] == record["run_id"]
        assert ledger.get("no-such-run") is None

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "nowhere"))
        assert ledger.read() == []
        assert ledger.latest() is None

    def test_default_ledger_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "envdir"))
        record = record_run("train_timing", final_loss=1.0)
        assert record is not None
        assert os.path.dirname(default_ledger().path) == \
            str(tmp_path / "envdir")
        assert default_ledger().read()[0]["run_id"] == record["run_id"]

    def test_config_fingerprint_stable_and_order_free(self):
        a = config_fingerprint(lr=1e-3, designs=["b", "a"],
                               arr=np.array([1.0, 2.0]))
        b = config_fingerprint(designs=["b", "a"],
                               arr=np.array([1.0, 2.0]), lr=1e-3)
        assert a == b and len(a) == 16
        assert a != config_fingerprint(lr=2e-3, designs=["b", "a"],
                                       arr=np.array([1.0, 2.0]))

    def test_run_ids_are_unique(self):
        ids = {new_run_id("train") for _ in range(64)}
        assert len(ids) == 64


# -- bench diff gate -----------------------------------------------------------
def _compute_payload(train_step_ms, run_id=None, forward_ms=10.0):
    return {
        "benchmark": "compute", "schema_version": 1,
        "run_id": run_id or new_run_id("bench_compute"),
        "generated_at": "2026-01-01T00:00:00Z",
        "params": {"scale": 1.0},
        "backends": ["naive", "fused"], "stages": ["forward", "train_step"],
        "designs": [{"name": "aes256",
                     "times_ms": {"fused": {"forward": forward_ms,
                                            "train_step": train_step_ms}}}],
        "summary": {"speedup_train_step_geomean": 1.5},
    }


def _serving_payload(rps, p99=20.0, run_id=None):
    return {
        "benchmark": "serving", "schema_version": 1,
        "run_id": run_id or new_run_id("bench_serving"),
        "generated_at": "2026-01-01T00:00:00Z",
        "params": {"designs": ["spm"], "model": "timing-full",
                   "scale": 1.0, "batch_window_ms": 2.0, "max_batch": 16},
        "clients": 8, "throughput_rps": rps,
        "latency_p50_ms": 5.0, "latency_p99_ms": p99,
    }


class TestBenchDiff:
    def test_identical_payloads_pass(self):
        base = _compute_payload(100.0)
        cur = _compute_payload(100.0)
        deltas = diff_payloads(cur, base, tolerance=0.5)
        assert len(deltas) == 2
        assert not any(d.regressed for d in deltas)

    def test_time_regression_fires_past_tolerance_only(self):
        base = _compute_payload(100.0)
        within = diff_payloads(_compute_payload(149.0), base, tolerance=0.5)
        assert not any(d.regressed for d in within)
        past = diff_payloads(_compute_payload(151.0), base, tolerance=0.5)
        bad = [d for d in past if d.regressed]
        assert [d.metric for d in bad] == ["aes256/fused/train_step_ms"]
        assert bad[0].ratio == pytest.approx(1.51)

    def test_faster_is_never_a_regression(self):
        base = _compute_payload(100.0)
        deltas = diff_payloads(_compute_payload(1.0), base, tolerance=0.5)
        assert not any(d.regressed for d in deltas)
        assert any(d.improved for d in deltas)

    def test_serving_throughput_direction_is_inverted(self):
        base = _serving_payload(100.0)
        drop = diff_payloads(_serving_payload(49.0), base, tolerance=0.5)
        assert [d.metric for d in drop if d.regressed] == ["throughput_rps"]
        rise = diff_payloads(_serving_payload(500.0, p99=200.0), base,
                             tolerance=0.5)
        assert [d.metric for d in rise if d.regressed] == ["latency_p99_ms"]

    def test_fingerprint_ignores_timings_but_not_shape(self):
        assert bench_fingerprint(_compute_payload(100.0)) == \
            bench_fingerprint(_compute_payload(999.0))
        other = _compute_payload(100.0)
        other["designs"][0]["name"] = "spm"
        assert bench_fingerprint(other) != \
            bench_fingerprint(_compute_payload(100.0))

    def test_baseline_excludes_own_run_id(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        payload = _compute_payload(100.0)
        record_bench_payload(payload, ledger)
        # only its own record in the ledger -> no baseline to gate on
        assert find_baseline(payload, ledger) is None
        newer = _compute_payload(120.0)
        assert find_baseline(newer, ledger)["run_id"] == payload["run_id"]

    def test_record_is_idempotent_per_run_id(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        payload = _compute_payload(100.0)
        record_bench_payload(payload, ledger)
        record_bench_payload(payload, ledger)
        assert len(ledger.read(kind="bench")) == 1

    def test_check_bench_file_gate(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        path = str(tmp_path / "BENCH_compute.json")
        assert check_bench_file(path, ledger)[0] == "missing"
        with open(path, "w") as fh:
            json.dump(_compute_payload(100.0), fh)
        status, _deltas = check_bench_file(path, ledger, record=True)
        assert status == "no-baseline"
        # identical re-run under a new run id: ok
        with open(path, "w") as fh:
            json.dump(_compute_payload(100.0), fh)
        status, deltas = check_bench_file(path, ledger, tolerance=0.5)
        assert status == "ok" and len(deltas) == 2
        # artificially slowed past the threshold: regression
        with open(path, "w") as fh:
            json.dump(_compute_payload(200.0), fh)
        status, deltas = check_bench_file(path, ledger, tolerance=0.5)
        assert status == "regression"
        report = format_diff_report(path, status, deltas)
        assert "REGRESSION" in report and "train_step" in report

    def test_bench_writers_record_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        from repro.bench.compute import (ComputeBenchResult, DesignBench,
                                         write_compute_bench_json)

        row = DesignBench(name="unit", nodes=10, net_edges=5,
                          cell_edges=5, levels=3)
        row.times_ms = {"fused": {"float64": {"forward": 1.0}}}
        result = ComputeBenchResult(backends=["fused"],
                                    dtypes=["float64"], stages=["forward"],
                                    reps=1, warmup=0, designs=[row],
                                    summary={})
        path = str(tmp_path / "BENCH_compute.json")
        write_compute_bench_json(result, path, params={"scale": 1.0})
        payload = json.load(open(path))
        assert payload["run_id"].startswith("bench_compute-")
        recorded = default_ledger().read(kind="bench_compute")
        assert [r["run_id"] for r in recorded] == [payload["run_id"]]
        assert recorded[0]["payload"]["designs"][0]["name"] == "unit"


# -- trainer ledger integration ------------------------------------------------
class TestTrainingRuns:
    def test_train_records_run_with_losses_and_eval(self, hetero_pair):
        from repro.models import ModelConfig
        from repro.training import TrainConfig, train_timing_gnn

        cfg = ModelConfig.fast()
        tcfg = TrainConfig(epochs=2, log_every=0)
        _model, history = train_timing_gnn(hetero_pair, cfg, tcfg)
        assert history.run_id.startswith("train_timing-")
        record = default_ledger().get(history.run_id)
        assert record is not None
        assert record["loss"] == pytest.approx(history.loss,
                                               rel=1e-4, abs=1e-5)
        assert record["backend"] in ("fused", "naive")
        assert len(record["fingerprint"]) == 16
        assert set(record["eval"]) == {g.name for g in hetero_pair}
        for metrics in record["eval"].values():
            assert "arrival_r2" in metrics and "slack_r2" in metrics
        scatter = record["slack_scatter"]
        assert scatter["design"] == hetero_pair[0].name
        assert len(scatter["true"]) == len(scatter["pred"]) > 0
        assert all(np.isfinite(scatter["true"]))

    def test_train_metrics_carry_run_label(self, hetero_pair):
        from repro.models import ModelConfig
        from repro.obs import get_registry
        from repro.training import TrainConfig, train_timing_gnn

        _model, history = train_timing_gnn(
            hetero_pair, ModelConfig.fast(), TrainConfig(epochs=1))
        snapshot = get_registry().snapshot()
        runs = {entry["labels"].get("run")
                for entry in snapshot.get("repro_train_epochs_total", [])}
        assert history.run_id in runs

    def test_same_config_same_fingerprint(self, hetero_pair):
        from repro.models import ModelConfig
        from repro.training import TrainConfig, train_timing_gnn

        cfg, tcfg = ModelConfig.fast(), TrainConfig(epochs=1)
        train_timing_gnn(hetero_pair, cfg, tcfg)
        train_timing_gnn(hetero_pair, cfg, tcfg)
        records = default_ledger().read(kind="train_timing")
        assert len(records) == 2
        assert records[0]["fingerprint"] == records[1]["fingerprint"]
        assert records[0]["run_id"] != records[1]["run_id"]


# -- tape profiler -------------------------------------------------------------
class TestProfiler:
    def test_profile_scopes_forward_and_backward_ops(self):
        from repro import nn

        with profile() as prof:
            x = nn.Tensor(np.random.default_rng(0).normal(size=(40, 8)),
                          requires_grad=True)
            w = nn.Tensor(np.random.default_rng(1).normal(size=(8, 4)),
                          requires_grad=True)
            ((x @ w).relu().sum()).backward(free=True)
        names = set(prof.stats)
        assert {"matmul", "relu", "sum", "autograd.backward"} <= names
        assert any(name.startswith("bwd:") for name in names)
        matmul = prof.stats["matmul"]
        assert matmul.calls == 1 and matmul.bytes_out == 40 * 4 * 8
        assert prof.wall_ms > 0
        assert 0 < prof.total_self_ms() <= prof.wall_ms * 1.5

    def test_patches_are_removed_on_exit(self):
        from repro import nn
        from repro.nn import kernels
        from repro.nn.tensor import Tensor

        before = (Tensor.__matmul__, kernels.mlp_chain, nn.segment_minmax)
        with profile():
            assert hasattr(Tensor.__matmul__, "__profiled_original__")
            assert hasattr(kernels.mlp_chain, "__profiled_original__")
            assert hasattr(nn.segment_minmax, "__profiled_original__")
        assert (Tensor.__matmul__, kernels.mlp_chain,
                nn.segment_minmax) == before

    def test_not_reentrant(self):
        with profile():
            with pytest.raises(RuntimeError):
                with profile():
                    pass

    def test_stale_tape_closures_no_op_after_exit(self):
        from repro import nn

        with profile():
            x = nn.Tensor(np.ones((3, 3)), requires_grad=True)
            y = (x * 2.0).sum()
        # backward AFTER the scope: wrapped closures fall through cleanly
        y.backward(free=True)
        assert x.grad is not None

    def test_self_time_excludes_children(self):
        from repro import nn
        from repro.nn import kernels

        t = nn.Tensor(np.random.default_rng(2).normal(size=(6, 4)))
        with profile() as prof:
            kernels.segment_minmax_csr(t, np.array([0, 0, 0, 1, 1, 1]), 2)
        stat = prof.stats.get("segment_minmax_csr")
        assert stat is not None
        assert stat.self_ms <= stat.total_ms

    def test_profile_train_step_total_tracks_wall_time(self, hetero):
        prof, reference_ms = profile_train_step(hetero, backend="fused",
                                                warmup=1, reps=3)
        total = prof.total_self_ms()
        assert reference_ms > 0
        # loose band: CI boxes are noisy; the CLI prints the exact ratio
        assert 0.5 * reference_ms < total < 1.8 * reference_ms
        names = set(prof.stats)
        assert "adam.step" in names and "autograd.backward" in names
        # the propagation step driver and its backward closure
        assert "propagate_levels" in names
        assert "bwd:fused_propagate" in names
        table = format_profile_table(prof, top=5,
                                     reference_ms=reference_ms)
        assert "TOTAL (self)" in table and "% of unprofiled" in table
        assert "more ops" in table

    def test_naive_backend_profiles_composed_ops(self, hetero):
        from repro.models import ModelConfig

        prof, _ref = profile_train_step(hetero, backend="naive",
                                        cfg=ModelConfig.fast(),
                                        warmup=1, reps=1)
        # the naive backend decomposes fused kernels into tensor ops
        assert any(name.startswith("bwd:") for name in prof.stats)
        assert len(prof.stats) > 10
        assert prof.total_self_ms() > 0


# -- HTML report ---------------------------------------------------------------
class TestHtmlReport:
    def _seed_ledger(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.append({
            "kind": "train_timing", "backend": "fused",
            "loss": [3.0, 2.0, 1.5], "wall_time_s": 1.0,
            "eval": {"spm": {"arrival_r2": 0.91, "slack_r2": 0.8},
                     "aes256": {"arrival_r2": 0.7, "slack_r2": 0.6}},
            "slack_scatter": {"design": "spm", "unit": "ns",
                              "true": [0.1, 0.5, -0.2],
                              "pred": [0.12, 0.44, -0.3]}})
        record_bench_payload(_compute_payload(100.0), ledger)
        record_bench_payload(_serving_payload(80.0), ledger)
        return ledger

    def test_report_renders_all_sections(self, tmp_path):
        page = render_html_report(ledger=self._seed_ledger(tmp_path))
        for probe in ("per-epoch training loss", "Per-design R²",
                      "Bench trajectory", "Figure 4", "<svg",
                      "polyline", "train_timing-", "throughput"):
            assert probe in page
        assert page.startswith("<!doctype html>")

    def test_report_on_empty_ledger_is_valid(self, tmp_path):
        page = render_html_report(ledger=RunLedger(str(tmp_path / "empty")))
        assert "no training runs recorded" in page
        assert "no bench runs recorded" in page

    def test_write_html_report(self, tmp_path):
        from repro.obs import write_html_report

        out = str(tmp_path / "report.html")
        assert write_html_report(out,
                                 ledger=self._seed_ledger(tmp_path)) == out
        assert os.path.getsize(out) > 1000
