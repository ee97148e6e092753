"""Serving-layer semantics: batching equivalence, concurrency, caches,
deadlines, degradation, request validation, the HTTP front-end under
concurrent clients and ``repro serve`` shutdown.

Models here are deliberately *untrained* (random initialization): every
serving property under test — numerical equivalence of micro-batched
forwards, cache identity, thread-safety, fallback behaviour — is
independent of model quality, and skipping training keeps the suite
fast.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.flow import Flow
from repro.graphdata import batch_graphs, split_rows
from repro.models import ModelConfig, NetEmbedding, TimingGNN
from repro.serving import (LRUCache, ModelRegistry, PredictionService,
                           RequestError, ServingServer)
from repro.serving.registry import ModelEntry, ModelLoadError

SCALE = 0.15
DESIGNS = ["spm", "usb_cdc_core", "wbqspiflash"]


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


def _toy_registry(toy_model):
    registry = ModelRegistry(scale=SCALE, names=[])
    registry.register("toy", lambda: ModelEntry(
        name="toy", kind="timing", version="vtest", model=toy_model,
        loaded_at=time.time(), load_seconds=0.0))
    registry.register("toy-net", lambda: ModelEntry(
        name="toy-net", kind="netdelay", version="vtest",
        model=NetEmbedding(ModelConfig.benchmark()),
        loaded_at=time.time(), load_seconds=0.0))

    def broken():
        raise RuntimeError("checkpoint corrupted")
    registry.register("broken", broken)
    return registry


@pytest.fixture()
def service(toy_model):
    svc = PredictionService(registry=_toy_registry(toy_model), scale=SCALE)
    yield svc
    svc.close()


# -- graph batching ------------------------------------------------------------
class TestBatchGraphs:
    def test_union_shapes(self, graphs):
        members = list(graphs.values())
        union, slices = batch_graphs(members)
        assert union.num_nodes == sum(g.num_nodes for g in members)
        assert union.num_net_edges == sum(g.num_net_edges for g in members)
        assert union.num_cell_edges == sum(g.num_cell_edges
                                           for g in members)
        assert len(slices) == len(members)
        for g, sl in zip(members, slices):
            assert sl.num_nodes == g.num_nodes
            assert sl.name == g.name
        # Edge indices stay inside their member's node range.
        for sl in slices:
            src = union.net_src[sl.net_lo:sl.net_hi]
            assert src.min() >= sl.node_lo and src.max() < sl.node_hi

    def test_split_rows_roundtrip(self, graphs):
        members = list(graphs.values())
        union, slices = batch_graphs(members)
        parts = split_rows(union.node_features, slices)
        for g, part in zip(members, parts):
            np.testing.assert_array_equal(part, g.node_features)

    def test_singleton_batch_is_identity(self, graphs):
        g = next(iter(graphs.values()))
        union, slices = batch_graphs([g])
        assert union is g
        assert slices[0].num_nodes == g.num_nodes

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])


class TestBatchedEquivalence:
    """Micro-batched predictions == single-request predictions."""

    def test_timing_gnn(self, graphs, toy_model):
        members = list(graphs.values())
        singles = [toy_model.predict(g) for g in members]
        batched = toy_model.predict_batch(members)
        for single, out in zip(singles, batched):
            np.testing.assert_allclose(out["arrival"],
                                       single.numpy_arrival(),
                                       rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(out["slew"], single.numpy_slew(),
                                       rtol=1e-7, atol=1e-9)

    def test_net_embedding(self, graphs):
        import repro.nn as nn
        model = NetEmbedding(ModelConfig.benchmark())
        members = list(graphs.values())
        batched = model.predict_batch(members)
        for g, out in zip(members, batched):
            with nn.no_grad():
                _, single = model.forward(g)
            np.testing.assert_allclose(out["net_delay"], single.data,
                                       rtol=1e-7, atol=1e-9)

    def test_batch_order_invariance(self, graphs, toy_model):
        members = list(graphs.values())
        fwd = toy_model.predict_batch(members)
        rev = toy_model.predict_batch(members[::-1])[::-1]
        for a, b in zip(fwd, rev):
            np.testing.assert_allclose(a["arrival"], b["arrival"],
                                       rtol=1e-7, atol=1e-9)


# -- LRU cache -----------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refresh "a"
        cache.put("c", 3)                # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_hit_miss_accounting(self):
        cache = LRUCache(capacity=4)
        cache.put("x", 1)
        cache.get("x")
        cache.get("y")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_get_or_create_runs_factory_once_concurrently(self):
        cache = LRUCache(capacity=4)
        calls = []

        def factory():
            calls.append(1)
            time.sleep(0.05)
            return "value"

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(
                cache.get_or_create("k", factory)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(value == "value" for value, _hit in results)
        assert sum(1 for _v, hit in results if not hit) == 1


# -- service semantics ---------------------------------------------------------
class TestPredictionService:
    def test_predict_and_cache_hit_same_payload(self, service):
        first = service.predict({"design": "spm", "model": "toy"})
        second = service.predict({"design": "spm", "model": "toy"})
        assert not first.cache_hit and second.cache_hit
        assert not first.degraded and not second.degraded
        assert second.prediction == first.prediction
        assert service.stats()["result_cache"]["hit_rate"] > 0

    def test_deadline_exceeded_degrades_not_500(self, service, graphs):
        response = service.predict({"design": "spm", "model": "toy",
                                    "deadline_ms": 0})
        assert response.degraded
        # The degraded path answers from ground-truth STA labels.
        truth = graphs["spm"]
        from repro.graphdata import TIME_SCALE
        expected = float(np.nanmin(truth.slack()[:, 2:4])) * TIME_SCALE
        assert response.prediction["wns_setup_ps"] == pytest.approx(
            expected, abs=1e-2)
        assert service.stats()["counts"]["deadline_fallbacks"] == 1

    def test_model_load_failure_degrades(self, service):
        response = service.predict({"design": "spm", "model": "broken"})
        assert response.degraded
        assert response.model_version == "unavailable"
        assert response.prediction["num_endpoints"] > 0

    def test_unknown_model_is_request_error(self, service):
        with pytest.raises(RequestError):
            service.predict({"design": "spm", "model": "nope"})

    def test_unknown_design_is_request_error(self, service):
        with pytest.raises(RequestError) as err:
            service.predict({"design": "not_a_benchmark", "model": "toy"})
        assert err.value.status == 404

    def test_seed_must_be_a_nonnegative_integer(self):
        from repro.serving.service import seed_integer
        assert seed_integer(2.0) == 2 and seed_integer("3") == 3
        for bad in (-1, 2.7, float("nan"), float("inf"), "2.5", None):
            with pytest.raises(RequestError, match="'seed'"):
                seed_integer(bad)

    def test_validation_rejects_ambiguous_source(self, service):
        with pytest.raises(RequestError):
            service.predict({"model": "toy"})
        with pytest.raises(RequestError):
            service.predict({"design": "spm", "verilog": "module m; "
                             "endmodule", "model": "toy"})

    def test_netdelay_model_payload(self, service):
        response = service.predict({"design": "spm", "model": "toy-net"})
        assert response.kind == "netdelay"
        assert response.prediction["num_net_sinks"] > 0

    def test_include_slack_payload(self, service, graphs):
        response = service.predict({"design": "spm", "model": "toy",
                                    "include_slack": True})
        slacks = response.prediction["endpoint_setup_slack_ps"]
        assert len(slacks) == graphs["spm"].num_endpoints

    def test_concurrent_requests_correct_per_design(self, service,
                                                    toy_model, graphs):
        """>= 8 threads, mixed designs: every answer matches its own
        design's single-request prediction."""
        from repro.graphdata import TIME_SCALE
        from repro.training import slack_from_arrival
        expected = {}
        for name, graph in graphs.items():
            arrival = toy_model.predict(graph).numpy_arrival()
            setup = slack_from_arrival(graph, arrival)[:, 2:4] * TIME_SCALE
            expected[name] = float(np.nanmin(setup))

        results, errors = {}, []

        def worker(i):
            design = DESIGNS[i % len(DESIGNS)]
            try:
                response = service.predict({"design": design,
                                            "model": "toy"})
                results[i] = (design, response)
            except Exception as exc:   # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 12
        for i, (design, response) in results.items():
            assert response.design == design
            assert not response.degraded
            assert response.prediction["wns_setup_ps"] == pytest.approx(
                expected[design], abs=1e-2)

    def test_verilog_request_roundtrip(self, service):
        from repro.netlist import write_verilog
        design = Flow.from_benchmark("spm", scale=SCALE).design
        text = write_verilog(design)
        response = service.predict({"verilog": text, "model": "toy"})
        assert not response.degraded
        assert response.prediction["num_endpoints"] > 0


# -- HTTP front-end ------------------------------------------------------------
def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTPServer:
    @pytest.fixture()
    def server(self, toy_model):
        svc = PredictionService(registry=_toy_registry(toy_model),
                                scale=SCALE)
        with ServingServer(svc) as srv:
            yield srv

    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_keep_alive_has_no_nagle_stall(self, server):
        """Requests on one keep-alive connection answer without the
        ~40 ms Nagle/delayed-ACK stall between header and body sends."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            rtts = []
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                rtts.append(time.perf_counter() - start)
                assert resp.status == 200
        finally:
            conn.close()
        assert float(np.median(rtts)) < 0.020, rtts

    def test_models_endpoint(self, server):
        status, body = _get(server.url + "/models")
        assert status == 200
        names = {m["name"] for m in body}
        assert {"toy", "toy-net", "broken"} <= names

    def test_predict_roundtrip_and_stats(self, server):
        status, body = _post(server.url + "/predict",
                             {"design": "spm", "model": "toy"})
        assert status == 200
        assert body["design"] == "spm" and not body["degraded"]
        status, again = _post(server.url + "/predict",
                              {"design": "spm", "model": "toy"})
        assert again["cache_hit"]
        assert again["prediction"] == body["prediction"]
        status, stats = _get(server.url + "/stats")
        assert status == 200
        assert stats["result_cache"]["hit_rate"] > 0
        assert stats["counts"]["requests"] >= 2

    def test_bad_requests_are_4xx(self, server):
        status, body = _post(server.url + "/predict", {"model": "toy"})
        assert status == 400 and "error" in body
        status, _ = _post(server.url + "/predict",
                          {"design": "nope", "model": "toy"})
        assert status == 404
        status, _ = _get(server.url + "/stats")
        assert status == 200

    @pytest.mark.parametrize("path", ["/predict", "/predict/delta"])
    @pytest.mark.parametrize("seed", [-1, 2.7])
    def test_bad_seed_is_400(self, server, path, seed):
        """A negative seed would fail inside ``np.random.default_rng``
        (a 500), and ``int()`` would serve 2.7 as seed 2."""
        status, body = _post(server.url + path,
                             {"design": "spm", "model": "toy",
                              "seed": seed})
        assert status == 400, body
        assert "'seed'" in body["error"]

    @pytest.mark.parametrize("path", ["/predict", "/predict/delta"])
    def test_internal_fault_is_500_and_counts_against_slo(
            self, server, path, monkeypatch):
        def fault(request):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(server.service, "resolve_graph", fault)
        status, body = _post(server.url + path,
                             {"design": "spm", "model": "toy"})
        assert status == 500 and "injected fault" in body["error"]
        assert server.service.slo.summary()["bad"] == 1
        _status, health = _get(server.url + "/healthz")
        assert health["slo"]["good_ratio"] == 0.0

    def test_unknown_route_404(self, server):
        try:
            status, _ = _get(server.url + "/nope")
        except urllib.error.HTTPError as err:
            status = err.code
        assert status == 404


class TestConcurrentClients:
    def test_eight_clients_answered_correctly_and_batched(self, toy_model):
        """8 clients x 8 ``no_cache`` requests over HTTP: every answer is
        a 200 for the client's own design and not degraded, and the
        micro-batcher coalesced concurrent forwards (``batch_max > 1``)."""
        designs = DESIGNS[:2]
        clients, per_client = 8, 8
        svc = PredictionService(registry=_toy_registry(toy_model),
                                scale=SCALE)
        svc.warm(models=["toy"], designs=designs)
        start = threading.Barrier(clients)
        answers = []

        def client(i, url):
            start.wait()
            for k in range(per_client):
                design = designs[(i + k) % len(designs)]
                try:
                    status, body = _post(url + "/predict",
                                         {"design": design, "model": "toy",
                                          "no_cache": True})
                except OSError as exc:
                    status, body = None, {"error": repr(exc)}
                answers.append((design, status, body))

        with ServingServer(svc) as server:
            threads = [threading.Thread(target=client, args=(i, server.url),
                                        daemon=True)
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            stats = svc.stats()
        assert len(answers) == clients * per_client
        bad = [(design, status, body) for design, status, body in answers
               if status != 200 or body.get("design") != design
               or body.get("degraded") or not body.get("prediction")]
        assert not bad, bad[:3]
        assert stats["batch_max"] > 1, stats["batching"]


# -- `repro serve` graceful shutdown -------------------------------------------
class TestServeShutdown:
    def test_sigterm_exits_cleanly(self):
        """SIGTERM sent the moment `repro serve` prints its ready line
        drains and exits 0, so the signal handlers were installed before
        that line."""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"),
                   PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-warm", "--scale", str(SCALE)],
            cwd=repo, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        # A server that hangs before its ready line is killed, which
        # closes stdout and ends the scan below.
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            ready = next((line for line in proc.stdout
                          if "serving on http" in line), None)
            assert ready is not None, "server never reported ready"
            proc.send_signal(signal.SIGTERM)
            rest, _ = proc.communicate(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, rest
        assert "draining and shutting down" in rest


# -- experiments.common thread-safety -----------------------------------------
class TestCommonThreadSafety:
    def test_concurrent_get_dataset_loads_once(self, monkeypatch, tmp_path):
        import repro.experiments.common as common
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def fake_load_dataset(scale=1.0, **kwargs):
            calls.append(scale)
            time.sleep(0.05)
            return {"fake": scale}

        monkeypatch.setattr(common, "load_dataset", fake_load_dataset)
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(common.get_dataset(scale=0.123)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r == {"fake": 0.123} for r in results)

    def test_memo_keyed_by_cache_dir(self, monkeypatch, tmp_path):
        import repro.experiments.common as common

        def fake_load_dataset(scale=1.0, **kwargs):
            return {"dir": common.default_cache_dir()}

        monkeypatch.setattr(common, "load_dataset", fake_load_dataset)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = common.get_dataset(scale=0.456)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = common.get_dataset(scale=0.456)
        assert first["dir"] != second["dir"]
