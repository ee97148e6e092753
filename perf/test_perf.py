"""Smoke tests of the perf harness at reduced sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import math

import pytest

import compare
import harness
import run
import spans
import workloads

# Every design at its minimum size, one set-up per run, one-second phases.
SMALL = workloads.Sizes(scale=0.05, serve_designs=("spm", "xtea", "usb"),
                        train_designs=("usb", "zipdiv"), eco_design="spm",
                        eco_pool=5, setups=1, epochs_per_call=2)
SECONDS = 1.0
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def scratch():
    scratch = harness.Scratch()
    yield scratch
    scratch.close()


@pytest.fixture(scope="module")
def outcomes(scratch):
    """One small run of every workload, untraced and traced."""
    return {(name, trace): workloads.run(name, 1, SECONDS, trace, scratch,
                                         SMALL)
            for name in workloads.WORKLOADS for trace in (False, True)}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(outcomes, name, trace):
    outcome = outcomes[name, trace]
    assert outcome.attempted >= 1 and outcome.failed == 0
    result = json.loads(run.result_line(outcome))
    assert result["correct"] is True
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layers_transport_and_unattributed_sum_to_latency(outcomes, name):
    metrics = outcomes[name, True].metrics
    parts = sum(value for metric, (value, _unit) in metrics.items()
                if metric.endswith(".ms_per_op"))
    total = metrics["trace.latency_ms_per_op"][0]
    assert total > 0
    assert parts == pytest.approx(total, rel=1e-6)
    assert 0 <= metrics["trace.unattributed_share"][0] < 1


@pytest.mark.parametrize("name", ["cold_predict", "warm_predict",
                                  "eco_delta"])
def test_oracle_catches_a_wrong_payload(monkeypatch, scratch, name):
    request = harness.HttpClient.request

    def corrupted(self, method, path, body=None, op=None):
        status, payload, start, elapsed = request(self, method, path, body,
                                                  op)
        if method == "POST" and status == 200:
            payload["prediction"]["wns_setup_ps"] += 0.5
        return status, payload, start, elapsed

    monkeypatch.setattr(harness.HttpClient, "request", corrupted)
    outcome = workloads.run(name, 2, SECONDS, False, scratch, SMALL)
    assert outcome.failed >= 1
    assert json.loads(run.result_line(outcome))["correct"] is False


def test_training_oracle_rejects_bad_losses():
    assert workloads.TrainPhase.call_ok({"loss": [3.0, 2.0]})
    assert not workloads.TrainPhase.call_ok({"loss": [3.0, 3.5]})
    assert not workloads.TrainPhase.call_ok({"loss": [3.0, math.nan]})


def test_stray_repro_env_does_not_reach_measured_process(monkeypatch,
                                                         scratch):
    monkeypatch.setenv("REPRO_DTYPE", "float32")
    with harness.MeasuredProcess("server.py", {"scale": SMALL.scale},
                                 scratch.fresh_dir("env")) as proc:
        ready = proc.ready
        proc.stop()
    assert ready["dtype"] == "float64"
    assert set(ready["repro_env"]) == {"REPRO_CACHE_DIR", "REPRO_RUNS_DIR"}


def fake_result(cost):
    """A passing result whose every end-to-end metric scales with cost."""
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        m["name"]: {"value": cost if m["better"] == "lower" else 1 / cost,
                    "unit": m["unit"]}
        for m in BENCHMARK["end_to_end"]}}


FAILED = {"error": "exit status 2"}


def test_compare_verdicts_from_clean_pairs():
    faster = [(fake_result(100 + i), fake_result(50 + i)) for i in range(10)]
    same = [(fake_result(100 + i), fake_result(100 + i)) for i in range(10)]
    table = BENCHMARK["end_to_end"]
    assert {row[4] for row in compare.compare(faster, table)} == {"improved"}
    assert {row[4] for row in compare.compare(same, table)} == {"unchanged"}


def test_compare_counts_failed_change_runs_against_the_change():
    table = BENCHMARK["end_to_end"]
    # Faster in the pairs it finishes, but failing the other half.
    half = [(fake_result(100 + i), fake_result(50 + i) if i % 2 else FAILED)
            for i in range(10)]
    rows = compare.compare(half, table)
    assert {row[4] for row in rows} == {"regressed"}
    assert {row[3] for row in rows} == {0.5}
    # Failing every run leaves no change values at all.
    rows = compare.compare([(fake_result(100), FAILED)] * 10, table)
    assert {row[4] for row in rows} == {"regressed"}
    assert {row[2] for row in rows} == {None}
    # A parent failure leaves the comparison unresolved, not unchanged.
    rows = compare.compare([(FAILED, fake_result(100))]
                           + [(fake_result(100), fake_result(100))] * 9,
                           table)
    assert {row[4] for row in rows} == {"unresolved"}


def test_compare_exits_non_zero_when_the_change_fails(monkeypatch, capsys,
                                                      tmp_path):
    def run_once(root, bench, workload, seed):
        return FAILED if root.name == "change" else fake_result(100 + seed)

    monkeypatch.setattr(compare, "load_benchmark", lambda root: BENCHMARK)
    monkeypatch.setattr(compare, "run_once", run_once)
    code = compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--workload", "warm_predict", "--pairs", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed runs: parent 0, change 4" in out
    assert "regressed" in out and "unchanged" not in out


def test_shared_batch_counts_once_per_op_and_self_times_add_up():
    def span(sid, name, start, end, parent=None, op=None, **extra):
        return {"id": sid, "name": name, "phase": "timed", "op": op,
                "parent": parent, "start": start, "end": end, **extra}

    # Two requests whose submits were served by one batch forward.
    recorded = [
        span(1, "serving.http", 0.0, 10.0, op="a"),
        span(2, "serving.service", 1.0, 9.0, parent=1, op="a"),
        span(3, "serving.batching", 2.0, 8.0, parent=2, op="a"),
        span(4, "serving.http", 1.0, 9.0, op="b"),
        span(5, "serving.batching", 2.0, 8.5, parent=4, op="b"),
        span(6, "models.timing_gnn", 3.0, 7.0, parent=3, op="a", also=[5]),
        span(7, "models.propagation", 4.0, 6.0, parent=6, op="a"),
    ]
    self_s, calls = spans.attribute(recorded, "timed")
    assert sum(self_s.values()) == pytest.approx(10.0 + 8.0)
    assert calls["models.propagation"] == 2
    assert self_s["models.propagation"] == pytest.approx(4.0)
    assert self_s["serving.batching"] == pytest.approx(2.0 + 2.5)
    assert self_s[spans.UNATTRIBUTED] == pytest.approx(2.0 + 1.5)
