"""Prediction-quality observability: shadow-STA audits, endpoint
accuracy metrics, feature drift and the accuracy SLO.

The headline differential here mirrors the delta harness's discipline:
the *online* audit loop and the *offline* ``training.evaluate`` path
must produce identical endpoint metrics (to 1e-9) for the same
(model, design) pair, because they share one implementation
(``repro.ml.endpoint_metrics``).  The rest pins down the operational
contract: auditing never blocks the request path and respects its
token budget (the audit log's rotation is tested with the other JSONL
writers in ``test_jsonl.py``).

Models are untrained (random init): every property under test is
independent of model quality.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from repro.flow import Flow
from repro.ml import (endpoint_slack_metrics, spearman_correlation,
                      top_k_negative_recall, worst_slack_per_endpoint)
from repro.models import ModelConfig, TimingGNN
from repro.obs.quality import (AccuracySlo, AuditLog, DriftTracker,
                               FeatureProfile, QualityMonitor)
from repro.serving import ModelRegistry, PredictionService
from repro.serving.registry import ModelEntry
from repro.training.evaluate import endpoint_metrics_for, evaluate_timing_gnn

SCALE = 0.15
DESIGNS = ["spm", "usb_cdc_core"]


# -- fixtures ------------------------------------------------------------------
@pytest.fixture(scope="module")
def graphs():
    out = {}
    for name in DESIGNS:
        out[name] = Flow.from_benchmark(name, scale=SCALE).place(
            seed=1).extract()
    return out


@pytest.fixture(scope="module")
def toy_model():
    return TimingGNN(ModelConfig.benchmark())


def toy_registry(toy_model):
    registry = ModelRegistry(scale=SCALE, names=[])
    registry.register("toy", lambda: ModelEntry(
        name="toy", kind="timing", version="vtest", model=toy_model,
        loaded_at=time.time(), load_seconds=0.0))
    return registry


def _arrival(toy_model, graph):
    return toy_model.predict(graph).numpy_arrival()


# -- rank correlation ----------------------------------------------------------
class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman_correlation(x, x ** 3) == pytest.approx(1.0)
        assert spearman_correlation(x, -x) == pytest.approx(-1.0)

    def test_ties_get_fractional_ranks(self):
        # ranks of [1, 1, 2] are [1.5, 1.5, 3]; Spearman equals the
        # Pearson correlation of the hand-computed rank vectors.
        t = np.array([1.0, 1.0, 2.0])
        p = np.array([1.0, 2.0, 3.0])
        rt = np.array([1.5, 1.5, 3.0])
        rp = np.array([1.0, 2.0, 3.0])
        expected = np.corrcoef(rt, rp)[0, 1]
        assert spearman_correlation(t, p) == pytest.approx(expected)

    def test_nan_pairs_ignored(self):
        t = np.array([1.0, np.nan, 3.0, 4.0])
        p = np.array([2.0, 9.0, 5.0, np.nan])
        assert spearman_correlation(t, p) == pytest.approx(
            spearman_correlation([1.0, 3.0], [2.0, 5.0]))

    def test_degenerate_is_nan(self):
        assert math.isnan(spearman_correlation([1.0], [2.0]))


# -- endpoint metrics ----------------------------------------------------------
class TestEndpointMetrics:
    def _slack(self, values):
        return np.array(values, dtype=np.float64)

    def test_identical_predictions_are_perfect(self):
        slack = self._slack([[0.1, 0.2, -0.3, 0.4],
                             [0.5, 0.1, 0.2, -0.6],
                             [0.2, 0.9, 0.7, 0.3]])
        m = endpoint_slack_metrics(slack, slack)
        for mode in ("setup", "hold"):
            assert m[f"wns_{mode}_err"] == 0.0
            assert m[f"tns_{mode}_err"] == 0.0
            assert m[f"slack_mae_{mode}"] == 0.0
            assert m[f"rank_{mode}"] == pytest.approx(1.0)
            assert m[f"recall_{mode}"] == 1.0
        assert m["slack_mae"] == 0.0

    def test_worst_slack_and_shape_validation(self):
        slack = self._slack([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.0]])
        np.testing.assert_allclose(
            worst_slack_per_endpoint(slack, "hold"), [1.0, -1.0])
        np.testing.assert_allclose(
            worst_slack_per_endpoint(slack, "setup"), [3.0, 0.0])
        with pytest.raises(ValueError):
            worst_slack_per_endpoint(np.zeros((3, 2)))

    def test_known_errors(self):
        true = self._slack([[9, 9, -2.0, 9], [9, 9, 1.0, 9],
                            [9, 9, 3.0, 9]])
        pred = self._slack([[9, 9, -1.0, 9], [9, 9, 2.0, 9],
                            [9, 9, 2.5, 9]])
        m = endpoint_slack_metrics(true, pred, time_scale=10.0)
        # WNS: -20 vs -10 ps; TNS likewise (one violating endpoint).
        assert m["wns_setup_err"] == pytest.approx(10.0)
        assert m["tns_setup_err"] == pytest.approx(10.0)
        assert m["slack_mae_setup"] == pytest.approx(
            (10.0 + 10.0 + 5.0) / 3.0)
        assert m["rank_setup"] == pytest.approx(1.0)
        # k = 1 violating endpoint, recovered by the prediction.
        assert m["recall_setup"] == 1.0

    def test_top_k_recall(self):
        t = np.array([-3.0, -2.0, 1.0, 5.0])
        # Worst-2 true = {0, 1}; prediction swaps one of them out.
        p = np.array([-3.0, 4.0, -1.0, 5.0])
        assert top_k_negative_recall(t, p) == pytest.approx(0.5)
        assert top_k_negative_recall(t, t) == 1.0
        assert math.isnan(top_k_negative_recall([], []))


# -- feature drift -------------------------------------------------------------
class TestFeatureDrift:
    def test_psi_of_reference_is_zero(self, graphs):
        profile = FeatureProfile.from_graphs([graphs["spm"]])
        counts = profile.bin_counts(graphs["spm"].node_features)
        np.testing.assert_allclose(profile.psi(counts), 0.0, atol=1e-12)

    def test_shifted_features_score_positive(self, graphs):
        profile = FeatureProfile.from_graphs([graphs["spm"]])
        shifted = np.asarray(graphs["spm"].node_features,
                             dtype=np.float64) * 3.0 + 1.0
        psi = profile.psi(profile.bin_counts(shifted))
        assert psi.max() > 0.25

    def test_constant_channel_never_drifts(self):
        X = np.zeros((100, 2))
        X[:, 1] = np.linspace(0.0, 1.0, 100)

        class _G:
            node_features = X
        profile = FeatureProfile.from_graphs([_G()])
        psi = profile.psi(profile.bin_counts(X))
        assert psi[0] == pytest.approx(0.0, abs=1e-12)

    def test_save_load_roundtrip(self, graphs, tmp_path):
        profile = FeatureProfile.from_graphs([graphs["spm"]])
        path = str(tmp_path / "p.profile.json")
        profile.save(path)
        loaded = FeatureProfile.load(path)
        np.testing.assert_array_equal(loaded.edges, profile.edges)
        np.testing.assert_array_equal(loaded.probs, profile.probs)
        assert loaded.count == profile.count

    def test_tracker_accumulates(self, graphs):
        profile = FeatureProfile.from_graphs([graphs["spm"]])
        tracker = DriftTracker(profile)
        assert tracker.score()["graphs"] == 0
        tracker.observe(graphs["usb_cdc_core"].node_features)
        score = tracker.score()
        assert score["graphs"] == 1
        assert score["max"] >= score["mean"] >= 0.0
        assert len(score["channels"]) == profile.num_channels


# -- the audit log -------------------------------------------------------------
class TestAuditLog:
    def test_append_scan_roundtrip(self, tmp_path):
        log = AuditLog(path=str(tmp_path / "audits.jsonl"))
        stamped = log.append({"design": "spm", "slack_mae_ps": 1.25})
        assert stamped["audit_id"].startswith("audit-")
        records, corrupt = log.scan()
        assert corrupt == 0 and len(records) == 1
        assert records[0]["design"] == "spm"
        assert log.get(stamped["audit_id"]) == records[0]
        # Prefix lookup, run-ledger style.
        assert log.get(stamped["audit_id"][:12]) == records[0]

    def test_corrupt_lines_skipped(self, tmp_path):
        path = str(tmp_path / "audits.jsonl")
        log = AuditLog(path=path)
        log.append({"design": "a"})
        with open(path, "a") as fh:
            fh.write("{truncated\n")
            fh.write('{"no_audit_id": true}\n')
        log.append({"design": "b"})
        records, corrupt = log.scan()
        assert [r["design"] for r in records] == ["a", "b"]
        assert corrupt == 2


# -- the accuracy SLO ----------------------------------------------------------
class TestAccuracySlo:
    def test_window_and_ratio(self):
        slo = AccuracySlo(objective_ps=10.0, window=4, min_ratio=0.75)
        for value in (1.0, 2.0, 3.0, 4.0):
            assert slo.record(value)
        assert slo.ok()
        slo.record(100.0)    # 3/4 good in the window: exactly at ratio
        assert slo.ok()
        slo.record(100.0)    # 2/4: below
        assert not slo.ok()
        summary = slo.summary()
        assert summary["total"] == 4 and summary["bad"] == 2
        assert summary["good_ratio"] == pytest.approx(0.5)

    def test_rolling_mae_ignores_nonfinite(self):
        slo = AccuracySlo(objective_ps=10.0, window=8)
        assert slo.rolling_mae() is None
        slo.record(4.0)
        slo.record(float("nan"))
        slo.record(8.0)
        assert slo.rolling_mae() == pytest.approx(6.0)

    def test_empty_window_is_ok(self):
        assert AccuracySlo().ok()


# -- the monitor ---------------------------------------------------------------
class TestQualityMonitor:
    def _monitor(self, tmp_path, **kwargs):
        kwargs.setdefault("rate", 1.0)
        kwargs.setdefault("log_path", str(tmp_path / "audits.jsonl"))
        return QualityMonitor(**kwargs)

    def test_disabled_by_default_rate(self, graphs, toy_model, tmp_path):
        monitor = self._monitor(tmp_path, rate=0.0)
        assert not monitor.enabled
        assert monitor.maybe_audit(graphs["spm"],
                                   _arrival(toy_model, graphs["spm"])) \
            is False
        assert monitor.stats() == {"enabled": False, "samples": 0}
        assert monitor.healthz() == {"ok": True, "enabled": False}
        monitor.close()

    def test_audit_scores_and_logs(self, graphs, toy_model, tmp_path):
        monitor = self._monitor(tmp_path)
        graph = graphs["spm"]
        arrival = _arrival(toy_model, graph)
        assert monitor.maybe_audit(graph, arrival, model="toy",
                                   request_id="r-1")
        assert monitor.flush()
        stats = monitor.stats()
        assert stats["samples"] == 1
        expected = endpoint_metrics_for(graph, arrival)
        assert stats["slack_mae_ps"] == pytest.approx(
            expected["slack_mae"], abs=1e-3)
        records, corrupt = monitor.log.scan()
        assert corrupt == 0 and len(records) == 1
        assert records[0]["model"] == "toy"
        assert records[0]["request_id"] == "r-1"
        assert records[0]["design"] == "spm"
        monitor.close()

    def test_arrival_copied_at_enqueue(self, graphs, toy_model, tmp_path):
        """Served outputs live in arena-recycled buffers: the audit must
        score the values at enqueue time, not whatever the buffer holds
        when the background thread gets to it."""
        monitor = self._monitor(tmp_path)
        graph = graphs["spm"]
        arrival = _arrival(toy_model, graph)
        expected = endpoint_metrics_for(graph, arrival)
        assert monitor.maybe_audit(graph, arrival)
        arrival[:] = 0.0            # simulate arena reuse
        assert monitor.flush()
        record = monitor.log.scan()[0][0]
        assert record["endpoint"]["slack_mae"] == pytest.approx(
            expected["slack_mae"], abs=1e-9)
        monitor.close()

    def test_budget_cap_respected(self, graphs, toy_model, tmp_path):
        monitor = self._monitor(tmp_path, budget_per_min=3)
        graph = graphs["spm"]
        arrival = _arrival(toy_model, graph)
        sampled = sum(monitor.maybe_audit(graph, arrival)
                      for _ in range(10))
        # The bucket starts full at 3 tokens and refills at 3/min —
        # nowhere near a token over this test's lifetime.
        assert sampled == 3
        assert monitor.flush()
        stats = monitor.stats()
        assert stats["samples"] == 3
        assert stats["dropped"]["budget"] == 7
        monitor.close()

    def test_queue_full_drops_instead_of_blocking(self, graphs, toy_model,
                                                  tmp_path):
        monitor = self._monitor(tmp_path, queue_size=1,
                                budget_per_min=1e9)
        monitor._ensure_thread = lambda: None   # keep the queue parked
        graph = graphs["spm"]
        arrival = _arrival(toy_model, graph)
        results = [monitor.maybe_audit(graph, arrival) for _ in range(3)]
        assert results == [True, False, False]
        assert monitor.stats()["dropped"]["queue_full"] == 2
        monitor._stopped = True

    def test_never_blocks_request_path(self, graphs, toy_model, tmp_path):
        """The request-path cost of an audit is one array copy and a
        non-blocking put — even with the audit thread wedged mid-score,
        ``maybe_audit`` must return immediately."""
        monitor = self._monitor(tmp_path, queue_size=64,
                                budget_per_min=1e9)
        slow = {"entered": 0}
        original = monitor._process

        def wedged(item):
            slow["entered"] += 1
            time.sleep(0.25)
            original(item)
        monitor._process = wedged
        graph = graphs["spm"]
        arrival = _arrival(toy_model, graph)
        monitor.maybe_audit(graph, arrival)     # wedges the thread
        deadline = time.monotonic() + 2.0
        while not slow["entered"] and time.monotonic() < deadline:
            time.sleep(0.005)
        t0 = time.perf_counter()
        for _ in range(5):
            assert monitor.maybe_audit(graph, arrival)
        elapsed = time.perf_counter() - t0
        # 5 enqueues while the scorer sleeps 250 ms per item: anything
        # close to even one processing interval means we blocked.
        assert elapsed < 0.2, f"maybe_audit blocked for {elapsed:.3f}s"
        monitor.flush(timeout=10.0)
        monitor.close()

    def test_drift_alert_and_healthz_breach(self, graphs, toy_model,
                                            tmp_path):
        profile = FeatureProfile.from_graphs([graphs["spm"]])
        monitor = self._monitor(tmp_path, threshold=1e-4,
                                slo=AccuracySlo(objective_ps=1e12))
        other = graphs["usb_cdc_core"]
        assert monitor.maybe_audit(other, _arrival(toy_model, other),
                                   model="toy", profile=profile)
        assert monitor.flush()
        stats = monitor.stats()
        assert stats["drift_score"] > 1e-4
        assert stats["drift_alerts"] >= 1
        health = monitor.healthz()
        assert health["breached"] == ["drift"]
        assert not health["ok"]
        record = monitor.log.scan()[0][0]
        assert record["drift_score"] == pytest.approx(
            stats["drift_score"])
        monitor.close()

    def test_accuracy_slo_breach(self, graphs, toy_model, tmp_path):
        monitor = self._monitor(
            tmp_path, slo=AccuracySlo(objective_ps=0.0, window=8,
                                      min_ratio=0.9))
        graph = graphs["spm"]
        assert monitor.maybe_audit(graph, _arrival(toy_model, graph))
        assert monitor.flush()
        health = monitor.healthz()
        assert health["breached"] == ["accuracy_slo"]
        assert health["accuracy_slo"]["bad"] == 1
        monitor.close()


# -- online == offline (the headline differential) -----------------------------
class TestOnlineOfflineDifferential:
    def test_audit_metrics_equal_training_evaluate(self, graphs, toy_model,
                                                   monkeypatch, tmp_path):
        """The shadow auditor and ``training.evaluate`` must report
        *identical* endpoint metrics (1e-9) for the same model/design:
        both call repro.ml.endpoint_metrics on a batch-of-1 forward that
        is bit-identical to ``model.predict``."""
        monkeypatch.setenv("REPRO_AUDIT_RATE", "1")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        service = PredictionService(registry=toy_registry(toy_model),
                                    scale=SCALE)
        try:
            response = service.predict({"design": "spm", "model": "toy",
                                        "no_cache": True})
            assert not response.degraded
            assert service.quality.flush()
            records, corrupt = service.quality.log.scan()
        finally:
            service.close()
        assert corrupt == 0 and len(records) == 1
        online = records[0]["endpoint"]
        offline = evaluate_timing_gnn(toy_model,
                                      graphs["spm"])["endpoint"]
        assert set(online) == set(offline)
        for key, offline_value in offline.items():
            online_value = online[key]
            if isinstance(offline_value, float) \
                    and math.isnan(offline_value):
                assert math.isnan(online_value), key
            else:
                assert online_value == pytest.approx(
                    offline_value, abs=1e-9), key

    def test_audit_record_names_model_version(self, toy_model, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_AUDIT_RATE", "1")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        service = PredictionService(registry=toy_registry(toy_model),
                                    scale=SCALE)
        try:
            service.predict({"design": "spm", "model": "toy",
                             "no_cache": True})
            assert service.quality.flush()
            records, _corrupt = service.quality.log.scan()
            version = service.registry.get("toy").version
        finally:
            service.close()
        assert len(records) == 1
        assert records[0]["model"] == "toy"
        assert records[0]["model_version"] == version

    def test_service_stats_and_healthz_surface_quality(
            self, toy_model, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_AUDIT_RATE", "1")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        service = PredictionService(registry=toy_registry(toy_model),
                                    scale=SCALE)
        try:
            service.predict({"design": "spm", "model": "toy",
                             "no_cache": True})
            assert service.quality.flush()
            stats = service.stats()
            assert stats["quality"]["enabled"]
            assert stats["quality"]["samples"] == 1
            assert stats["quality"]["slack_mae_ps"] is not None
            assert math.isfinite(stats["quality"]["slack_mae_ps"])
            health = service.healthz()
            assert health["quality"]["samples"] == 1
        finally:
            service.close()

    def test_degraded_on_accuracy_slo_breach(self, toy_model, monkeypatch,
                                             tmp_path):
        # An untrained model against a 0-ps objective: every audit is
        # bad, so /healthz must flip to degraded.
        monkeypatch.setenv("REPRO_AUDIT_RATE", "1")
        monkeypatch.setenv("REPRO_SLO_SLACK_MAE_PS", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        service = PredictionService(registry=toy_registry(toy_model),
                                    scale=SCALE)
        try:
            service.predict({"design": "spm", "model": "toy",
                             "no_cache": True})
            assert service.quality.flush()
            health = service.healthz()
            assert health["status"] == "degraded"
            assert "accuracy_slo" in health["quality"]["breached"]
        finally:
            service.close()


# -- CLI surfacing -------------------------------------------------------------
class TestAuditCli:
    def test_ls_and_show(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        log = AuditLog()
        stamped = log.append({"design": "spm", "model": "toy",
                              "slack_mae_ps": 12.5, "drift_score": 0.01})
        log.append({"design": "aes128", "model": "toy",
                    "slack_mae_ps": None})
        assert main(["audit", "ls"]) == 0
        out = capsys.readouterr().out
        assert "spm" in out and "aes128" in out
        assert "2 audits" in out
        assert main(["audit", "show", stamped["audit_id"]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["design"] == "spm"
        assert shown["slack_mae_ps"] == 12.5
        assert main(["audit", "show", "audit-nope"]) == 1
        capsys.readouterr()

    def test_show_requires_id(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["audit", "show"]) == 2
        capsys.readouterr()


# -- schema compatibility ------------------------------------------------------
class TestLedgerSchemaCompat:
    def test_v1_records_still_parse(self, tmp_path):
        """The schema bump to v2 is additive (eval gains a nested
        ``endpoint`` dict): v1 records without it must scan and render
        exactly as before."""
        from repro.obs.runs import RUNS_SCHEMA_VERSION, RunLedger
        assert RUNS_SCHEMA_VERSION == 2
        ledger = RunLedger(root=str(tmp_path))
        ledger.append({"run_id": "train-20250101-abcd1234",
                       "kind": "train_timing", "schema_version": 1,
                       "eval": {"spm": {"arrival_r2": 0.5}}})
        records, corrupt = ledger.scan()
        assert corrupt == 0 and len(records) == 1
        assert records[0]["eval"]["spm"]["arrival_r2"] == 0.5

    def test_evaluate_records_endpoint_metrics(self, graphs, toy_model):
        metrics = evaluate_timing_gnn(toy_model, graphs["spm"])
        endpoint = metrics["endpoint"]
        for key in ("wns_setup_err", "tns_setup_err", "slack_mae_setup",
                    "rank_setup", "recall_setup", "wns_hold_err",
                    "slack_mae", "recall_hold"):
            assert key in endpoint, key
        assert endpoint["slack_mae"] >= 0.0
        # Everything the trainer puts in the ledger must JSON-serialize.
        json.dumps(endpoint)
