"""Run ledger, ``repro train`` run reporting, tape profiler and HTML report.

The ledger tests prove the durability contract (atomic appends, corrupt
line tolerance, schema stamping); the profiler tests prove patch/unpatch
hygiene and that per-op self time adds up to the real step cost; the
report tests prove the stdlib HTML rendering consumes real ledger
records.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

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

    def test_cli_train_reports_only_its_own_run(self, hetero_pair,
                                                monkeypatch, tmp_path,
                                                capsys):
        """A second ``repro train`` served from the checkpoint cache
        trains nothing, so it must not report the first call's run."""
        import types

        import repro.experiments.common as common
        from repro.cli import main
        from repro.netlist import benchmark_names

        records = {name: types.SimpleNamespace(graph=hetero_pair[i % 2])
                   for i, name in enumerate(benchmark_names())}
        monkeypatch.setattr(common, "load_dataset", lambda **_kw: records)
        monkeypatch.setattr(common, "_DATASETS", {})
        monkeypatch.setattr(common, "_MODELS", {})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["train", "--scale", "0.1", "--epochs", "1"]

        assert main(argv) == 0
        runs = default_ledger().read(kind="train")
        assert len(runs) == 1
        assert f"run recorded: {runs[0]['run_id']}" in \
            capsys.readouterr().out

        common._MODELS.clear()   # as a new process: the checkpoint serves
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(default_ledger().read(kind="train")) == 1
        assert "run recorded:" not in out
        assert "no new run recorded" in out


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
        return ledger

    def test_report_renders_all_sections(self, tmp_path):
        page = render_html_report(ledger=self._seed_ledger(tmp_path))
        for probe in ("per-epoch training loss", "Per-design R²",
                      "Figure 4", "<svg", "polyline", "train_timing-"):
            assert probe in page
        assert page.startswith("<!doctype html>")

    def test_report_on_empty_ledger_is_valid(self, tmp_path):
        from repro.cli import build_parser

        page = render_html_report(ledger=RunLedger(str(tmp_path / "empty")))
        assert "no training runs recorded" in page
        # The hint for missing endpoint metrics names a command the CLI
        # accepts.
        hint = re.search(r"no endpoint-evaluated training runs.*?"
                         r"<code>repro ([^<]*)</code>", page)
        assert hint is not None
        build_parser().parse_args(hint.group(1).split())

    def test_write_html_report(self, tmp_path):
        from repro.obs import write_html_report

        out = str(tmp_path / "report.html")
        assert write_html_report(out,
                                 ledger=self._seed_ledger(tmp_path)) == out
        assert os.path.getsize(out) > 1000
