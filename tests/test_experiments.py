"""Experiment harness: tables/figures regenerate at a tiny scale.

These tests run the *entire* experiment pipeline (dataset, training,
evaluation) at REPRO_SCALE=0.25 with 2 epochs in a temporary cache, so
they validate wiring and output schemas, not model quality — quality is
the benchmarks' job.
"""

import json
import os
import urllib.request

import numpy as np
import pytest

import repro.experiments.common as common
from repro.experiments import (ascii_scatter, figure1_data, figure4_data,
                               format_table1, format_table4, format_table5,
                               table1_rows, table4_rows,
                               table5_accuracy_rows, table5_runtime_rows)
from repro.netlist import benchmark_names

# The full experiment pipeline (dataset regeneration + training) is the
# heaviest part of the suite; the CI smoke path deselects it.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module", autouse=True)
def tiny_experiment_env(tmp_path_factory):
    cache = tmp_path_factory.mktemp("exp_cache")
    old = {k: os.environ.get(k)
           for k in ("REPRO_SCALE", "REPRO_EPOCHS", "REPRO_CACHE_DIR")}
    os.environ["REPRO_SCALE"] = "0.25"
    os.environ["REPRO_EPOCHS"] = "2"
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    common._DATASETS.clear()
    common._MODELS.clear()
    yield
    for key, value in old.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    common._DATASETS.clear()
    common._MODELS.clear()


class TestTable1:
    def test_rows_cover_all_benchmarks(self):
        rows = table1_rows()
        names = {r["benchmark"] for r in rows}
        for name in benchmark_names():
            assert name in names
        assert "Total Train" in names and "Total Test" in names

    def test_totals_sum(self):
        rows = table1_rows()
        train_rows = [r for r in rows if r["split"] == "train"
                      and not r["benchmark"].startswith("Total")]
        total = next(r for r in rows if r["benchmark"] == "Total Train")
        assert total["nodes"] == sum(r["nodes"] for r in train_rows)

    def test_paper_columns_present(self):
        rows = table1_rows()
        assert rows[0]["paper_nodes"] == 55568      # blabla, from Table 1

    def test_format(self):
        text = format_table1()
        assert "blabla" in text and "Total Test" in text


class TestTable4:
    def test_rows_schema(self):
        rows = table4_rows(rf_estimators=3, mlp_epochs=3)
        assert len(rows) == 21 + 2
        for row in rows:
            for key in ("rf_r2", "mlp_r2", "gnn_r2"):
                assert np.isfinite(row[key]) or row[key] == -np.inf

    def test_format(self):
        text = format_table4(table4_rows(rf_estimators=3, mlp_epochs=3))
        assert "Avg. Test" in text


class TestTable5:
    def test_accuracy_rows_schema(self):
        rows = table5_accuracy_rows()
        assert len(rows) == 23
        for row in rows:
            for key in ("gcnii_4", "gcnii_8", "gcnii_16", "ours_full",
                        "ours_cell", "ours_net"):
                assert key in row
            assert row["openroad"] == 1.0

    def test_runtime_rows_schema(self):
        rows = table5_runtime_rows(repeats=1)
        for row in rows:
            assert row["flow_s"] > 0
            assert row["gnn_s"] > 0
            if not row["benchmark"].startswith("Avg."):
                # Average rows report mean-of-speedups, not the ratio of
                # means, so the identity only holds per design.
                assert row["speedup"] == pytest.approx(
                    row["flow_s"] / row["gnn_s"])
            assert row["flow_s"] == pytest.approx(
                row["routing_s"] + row["sta_s"])

    def test_format(self):
        text = format_table5(table5_accuracy_rows(),
                             table5_runtime_rows(repeats=1))
        assert "GCNII-16" in text and "Speedup" in text


class TestFigure4:
    def test_scatter_data(self):
        data = figure4_data("usbf_device")
        for mode in ("setup", "hold"):
            series = data[mode]
            assert len(series["true"]) == len(series["pred"])
            assert len(series["true"]) > 5
            assert np.isfinite(series["r2"])

    def test_ascii_scatter_renders(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=50)
        art = ascii_scatter(t, t + 0.1 * rng.normal(size=50), title="demo")
        assert "demo" in art
        assert "*" in art


class TestFigure1:
    def test_receptive_field_respects_k_hops(self):
        data = figure1_data("usb_cdc_core", layer_counts=(1, 2, 4))
        for row in data["rows"]:
            assert row["within_k_hops"], (
                "gradient escaped the K-hop neighbourhood")

    def test_coverage_grows_with_depth(self):
        data = figure1_data("usb_cdc_core", layer_counts=(1, 2, 4))
        covs = [r["coverage"] for r in data["rows"]]
        assert covs == sorted(covs)

    def test_shallow_gnn_cannot_see_whole_graph(self):
        data = figure1_data("usb_cdc_core", layer_counts=(2,))
        assert data["rows"][0]["coverage"] < 0.9


class TestModelCache:
    def test_trained_model_cached_on_disk(self):
        from repro.experiments import trained_timing_gnn
        common._MODELS.clear()
        model_a = trained_timing_gnn("full")
        cache_dir = os.environ["REPRO_CACHE_DIR"]
        cached = [f for f in os.listdir(cache_dir)
                  if f.startswith("model_timing_full")]
        assert cached
        common._MODELS.clear()
        model_b = trained_timing_gnn("full")
        for (na, pa), (nb, pb) in zip(model_a.named_parameters(),
                                      model_b.named_parameters()):
            assert na == nb
            np.testing.assert_allclose(pa.data, pb.data)


class TestTrainedCheckpointServing:
    def test_registry_serves_the_checkpoint_over_http(self, monkeypatch):
        """The registry's default loader reads the trained checkpoint
        from the cache directory, and the model answers ``/predict``."""
        from repro.experiments import trained_timing_gnn
        from repro.serving import (ModelRegistry, PredictionService,
                                   ServingServer)
        trained_timing_gnn("full")        # the checkpoint on disk
        common._MODELS.clear()
        trainings = []
        monkeypatch.setattr(common, "train_timing_gnn",
                            lambda *args, **kwargs: trainings.append(args))
        registry = ModelRegistry(names=["timing-full"])
        with ServingServer(PredictionService(registry=registry)) as server:
            request = urllib.request.Request(
                server.url + "/predict", data=json.dumps(
                    {"design": "spm", "model": "timing-full"}).encode())
            with urllib.request.urlopen(request, timeout=120) as resp:
                status, body = resp.status, json.loads(resp.read())
        assert status == 200
        assert not body["degraded"]
        assert body["model_version"] == registry.get("timing-full").version
        assert trainings == []


class TestReportGenerator:
    def test_markdown_generates(self):
        from repro.experiments.report import generate_experiments_markdown
        text = generate_experiments_markdown()
        assert "# EXPERIMENTS" in text
        assert "Table 4" in text and "Table 5" in text
        assert "Figure 4" in text and "Figure 1" in text
        # Measured numbers present (R2 columns rendered).
        assert "R2" in text or "r2" in text

    def test_paper_averages_match_paper_text(self):
        from repro.experiments.report import PAPER_AVERAGES
        # Spot values transcribed from the paper's tables.
        assert PAPER_AVERAGES["table4"]["rf_test"] == 0.9418
        assert PAPER_AVERAGES["table5"]["full_test"] == 0.8957
        assert PAPER_AVERAGES["table5"]["gcnii16_test"] == -1.5101
