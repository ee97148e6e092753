"""repro.parallel: differential, cache-integrity and crash-retry tests.

The load-bearing guarantee of the parallel pipeline is *determinism*:
a dataset built on a worker pool must be byte-identical to one built
serially, and a warm artifact cache must return exactly what a cold
build produced.  These tests compare the builds bit-for-bit, corrupt
cache entries on purpose, crash worker processes on purpose, and pin
the seed-determinism property the cache keys rely on.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.flow import Flow
from repro.graphdata.dataset import (DATASET_VERSION, generate_design,
                                     load_dataset)
from repro.netlist import BENCHMARKS
from repro.parallel import (ArtifactStore, ParallelExecutor,
                            WorkerCrashError, default_workers)

SMALL = [b for b in BENCHMARKS if b.name in ("spm", "zipdiv", "usb")]
SCALE = 0.25


def graph_bytes(graph):
    """Every array of a HeteroGraph, concatenated, for exact comparison."""
    h = hashlib.sha256()
    for name in graph._ARRAY_FIELDS:
        h.update(getattr(graph, name).tobytes())
    h.update(np.float64(graph.clock_period).tobytes())
    return h.hexdigest()


def assert_records_identical(a, b):
    assert set(a) == set(b)
    for name in a:
        ga, gb = a[name].graph, b[name].graph
        for field in ga._ARRAY_FIELDS:
            va, vb = getattr(ga, field), getattr(gb, field)
            assert va.dtype == vb.dtype, (name, field)
            assert va.tobytes() == vb.tobytes(), (name, field)
        assert ga.clock_period == gb.clock_period
        assert ga.slack().tobytes() == gb.slack().tobytes()


# -- module-level task functions (must be picklable for worker pools) ---------
def _square(x):
    return x * x


def _raise_value_error(x):
    raise ValueError(f"task failure {x}")


def _crash_once(args):
    """Hard-exit the worker process the first time; succeed after.

    The marker file records that the crash already happened, so the
    retried attempt (in a fresh worker) completes.
    """
    value, marker = args
    if value == "crash" and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(13)
    return value


def _crash_always(x):
    os._exit(13)


def _flow_fingerprint(args):
    name, scale, seed = args
    flow = Flow.from_benchmark(name, scale=scale).place(seed=seed)
    return flow.fingerprint()


def _seeded_build(args):
    """(placement bytes, graph hash) of one deterministic small flow."""
    from repro.graphdata import extract_graph
    from repro.liberty import make_sky130_like_library
    from repro.netlist import generate_circuit
    from repro.placement import place_design
    from repro.routing import route_design
    from repro.sta import build_timing_graph, run_sta

    seed = args
    library = make_sky130_like_library()
    design = generate_circuit("prop", 180, "control", library, seed=seed)
    placement = place_design(design, seed=seed)
    routing = route_design(design, placement)
    graph = build_timing_graph(design)
    result = run_sta(design, placement, routing, graph=graph)
    hetero = extract_graph(graph, placement, result)
    return (hashlib.sha256(placement.pin_xy.tobytes()).hexdigest(),
            float(routing.total_wirelength), graph_bytes(hetero))


# -- ArtifactStore -------------------------------------------------------------
class TestArtifactStore:
    def test_roundtrip(self, tmp_path, rng):
        store = ArtifactStore(str(tmp_path))
        payload = {"x": rng.normal(size=(7, 3)), "tag": "hello",
                   "nested": [1, 2, {"three": 4.0}]}
        store.put("k1", payload, kind="test", version=5,
                  meta={"design": "d"})
        loaded = store.get("k1", kind="test", version=5)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["x"], payload["x"])
        assert loaded["tag"] == "hello"
        assert loaded["nested"] == payload["nested"]

    def test_miss_returns_default(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("nope") is None
        assert store.get("nope", default=42) == 42

    def test_version_and_kind_stamp_mismatch_is_stale(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("k", [1, 2], kind="test", version=1)
        assert store.get("k", kind="test", version=2) is None
        assert store.get("k", kind="other", version=1) is None
        assert store.get("k", kind="test", version=1) == [1, 2]

    def test_contains(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert not store.contains("k", kind="test", version=1)
        store.put("k", "v", kind="test", version=1)
        assert store.contains("k", kind="test", version=1)
        assert not store.contains("k", kind="test", version=2)

    def test_truncated_entry_is_corrupt_and_evicted(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("k", list(range(1000)), kind="test")
        path = store._path("k")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) - len(data) // 3])
        assert store.get("k", kind="test") is None
        # Evicted: the entry file is gone, a re-put starts clean.
        assert not os.path.exists(path)
        store.put("k", [7], kind="test")
        assert store.get("k", kind="test") == [7]

    def test_garbled_payload_digest_mismatch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("k", b"payload-bytes", kind="test")
        path = store._path("k")
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff\x00\xff")
        assert store.get("k", kind="test") is None

    def test_garbled_header(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("k", "v", kind="test")
        with open(store._path("k"), "r+b") as fh:
            fh.write(b"{not an artifact")
        assert store.get("k", kind="test") is None

    def test_verify_reports_without_evicting(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("good", "v", kind="test")
        store.put("bad", list(range(1000)), kind="test")
        path = store._path("bad")
        with open(path, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(b"\x00\x01\x02\x03")
        problems = store.verify()
        assert [key for key, _ in problems] == ["bad"]
        assert problems[0][1] == "digest mismatch"
        assert os.path.exists(path)  # verify() is read-only
        # A header-smashed entry is reported too.
        with open(store._path("good"), "r+b") as fh:
            fh.write(b"XXXX")
        assert ("good", "unreadable header") in store.verify()

    def test_entries_and_clear(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("a", 1, kind="x", meta={"design": "da"})
        store.put("b", 2, kind="y")
        entries = store.entries()
        assert [e["key"] for e in entries] == ["a", "b"]
        assert entries[0]["meta"] == {"design": "da"}
        assert store.total_bytes() > 0
        assert store.clear(kind="x") == 1
        assert store.keys() == ["b"]
        assert store.clear() == 1
        assert store.keys() == []

    def test_concurrent_same_key_puts_stay_consistent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        errors = []

        def writer(value):
            try:
                for _ in range(20):
                    store.put("k", [value] * 100, kind="test")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = store.get("k", kind="test")
        assert loaded is not None and len(set(loaded)) == 1


# -- ParallelExecutor ----------------------------------------------------------
class TestParallelExecutor:
    def test_serial_map_ordered(self):
        ex = ParallelExecutor(workers=1)
        assert ex.map(_square, range(7)) == [x * x for x in range(7)]

    def test_pool_map_ordered(self):
        ex = ParallelExecutor(workers=4)
        assert ex.map(_square, range(13)) == [x * x for x in range(13)]

    def test_default_workers_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        assert ParallelExecutor().workers == 6
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        assert default_workers() == 1

    def test_task_exception_propagates(self):
        ex = ParallelExecutor(workers=2)
        with pytest.raises(ValueError, match="task failure"):
            ex.map(_raise_value_error, [1, 2, 3])

    def test_serial_fallback_when_pool_unavailable(self, monkeypatch):
        ex = ParallelExecutor(workers=4)
        monkeypatch.setattr(
            ParallelExecutor, "_make_pool",
            lambda self, n: (_ for _ in ()).throw(OSError("no sem")))
        assert ex.map(_square, range(5)) == [x * x for x in range(5)]

    def test_worker_crash_retried_once(self, tmp_path):
        marker = str(tmp_path / "crashed.marker")
        items = [("a", marker), ("crash", marker), ("b", marker),
                 ("c", marker)]
        ex = ParallelExecutor(workers=2, retries=1)
        assert ex.map(_crash_once, items) == ["a", "crash", "b", "c"]
        assert os.path.exists(marker)

    def test_repeated_crashes_raise(self):
        ex = ParallelExecutor(workers=2, retries=1)
        with pytest.raises(WorkerCrashError, match="crashed 2 times"):
            ex.map(_crash_always, [1, 2, 3])

    def test_start_method_auto_pick(self):
        """spawn while another thread is alive; fork, where the platform
        has it, in a fresh single-threaded interpreter."""
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert ParallelExecutor._start_method() == "spawn"
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.parallel import pick_start_method\n"
             "print(pick_start_method())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        expected = "fork" if "fork" in \
            multiprocessing.get_all_start_methods() else "spawn"
        assert proc.stdout.strip() == expected

    @pytest.mark.parametrize("env, shown", [(None, 1), ("2", 2)])
    def test_build_dataset_prints_worker_count(self, env, shown,
                                               monkeypatch, capsys):
        from repro.cli import main
        if env is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", env)
        assert main(["build-dataset", "--scale", "0.15", "--designs",
                     "spm", "--no-cache"]) == 0
        assert f"(workers={shown}," in capsys.readouterr().out


# -- differential: parallel == serial -----------------------------------------
class TestParallelSerialIdentical:
    def test_dataset_bitwise_identical_and_cache_roundtrip(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        serial = load_dataset(scale=SCALE, cache_dir=serial_dir,
                              benchmarks=SMALL, workers=1)
        parallel = load_dataset(scale=SCALE, cache_dir=parallel_dir,
                                benchmarks=SMALL, workers=4)
        assert_records_identical(serial, parallel)
        # Warm-cache reload (serial and parallel) returns the same bytes.
        warm_serial = load_dataset(scale=SCALE, cache_dir=serial_dir,
                                   benchmarks=SMALL, workers=1)
        warm_parallel = load_dataset(scale=SCALE, cache_dir=parallel_dir,
                                     benchmarks=SMALL, workers=4)
        assert_records_identical(serial, warm_serial)
        assert_records_identical(serial, warm_parallel)
        # The caches of both builds contain identical record payloads
        # under identical keys.
        store_s = ArtifactStore(os.path.join(serial_dir, "artifacts"))
        store_p = ArtifactStore(os.path.join(parallel_dir, "artifacts"))
        assert store_s.keys() == store_p.keys()
        for key in store_s.keys():
            rec_s = store_s.get(key, kind="design_record",
                                version=DATASET_VERSION)
            rec_p = store_p.get(key, kind="design_record",
                                version=DATASET_VERSION)
            assert graph_bytes(rec_s.graph) == graph_bytes(rec_p.graph)

    def test_flow_fingerprints_match_across_worker_counts(self):
        tasks = [(b.name, SCALE, 1) for b in SMALL]
        serial = ParallelExecutor(workers=1).map(_flow_fingerprint, tasks)
        parallel = ParallelExecutor(workers=4).map(_flow_fingerprint, tasks)
        assert serial == parallel

    def test_no_cache_build_matches_cached_build(self, tmp_path):
        cached = load_dataset(scale=SCALE, cache_dir=str(tmp_path),
                              benchmarks=SMALL[:1], workers=1)
        uncached = load_dataset(scale=SCALE, cache=False,
                                benchmarks=SMALL[:1], workers=1)
        assert_records_identical(cached, uncached)


# -- cache integration: corruption recovery, hit accounting -------------------
class TestDatasetCacheIntegration:
    def test_corrupted_cache_rebuilds_not_crashes(self, tmp_path):
        cache_dir = str(tmp_path)
        first = load_dataset(scale=SCALE, cache_dir=cache_dir,
                             benchmarks=SMALL[:2], workers=1)
        store = ArtifactStore(os.path.join(cache_dir, "artifacts"))
        keys = store.keys()
        assert len(keys) == 2
        # Truncate one entry, garble the other's payload bytes.
        with open(store._path(keys[0]), "wb") as fh:
            fh.write(b"trash")
        with open(store._path(keys[1]), "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(b"\x00\xff\x00\xff")
        rebuilt = load_dataset(scale=SCALE, cache_dir=cache_dir,
                               benchmarks=SMALL[:2], workers=1)
        assert_records_identical(first, rebuilt)
        assert not store.verify()  # rebuilt entries are intact again

    def test_benchmarks_accepts_plain_names(self, tmp_path):
        by_spec = load_dataset(scale=SCALE, cache_dir=str(tmp_path),
                               benchmarks=SMALL[:2], workers=1)
        by_name = load_dataset(scale=SCALE, cache_dir=str(tmp_path),
                               benchmarks=[b.name for b in SMALL[:2]],
                               workers=1)
        assert_records_identical(by_spec, by_name)
        with pytest.raises(KeyError, match="no_such_design"):
            load_dataset(scale=SCALE, cache_dir=str(tmp_path),
                         benchmarks=["no_such_design"], workers=1)

    def test_second_build_hits_cache(self, tmp_path):
        from repro.obs import get_registry

        def hits():
            snap = get_registry().snapshot()
            return sum(e["value"] for e in
                       snap.get("repro_dataset_designs_total", [])
                       if e["labels"]["result"] == "hit")

        cache_dir = str(tmp_path)
        load_dataset(scale=SCALE, cache_dir=cache_dir,
                     benchmarks=SMALL, workers=1)
        before = hits()
        load_dataset(scale=SCALE, cache_dir=cache_dir,
                     benchmarks=SMALL, workers=1)
        assert hits() - before == len(SMALL)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.graphdata.dataset as dataset_mod

        cache_dir = str(tmp_path)
        load_dataset(scale=SCALE, cache_dir=cache_dir,
                     benchmarks=SMALL[:1], workers=1)
        store = ArtifactStore(os.path.join(cache_dir, "artifacts"))
        assert len(store.keys()) == 1
        monkeypatch.setattr(dataset_mod, "DATASET_VERSION",
                            DATASET_VERSION + 1)
        load_dataset(scale=SCALE, cache_dir=cache_dir,
                     benchmarks=SMALL[:1], workers=1)
        # New version key written alongside; the stale entry is ignored.
        assert len(store.keys()) == 2


# -- memo keying regression (REPRO_CACHE_DIR flips mid-process) ---------------
class TestExperimentMemoKeying:
    def test_get_dataset_resolves_cache_dir_once(self, monkeypatch,
                                                 tmp_path):
        import repro.experiments.common as common

        seen = []

        def fake_load_dataset(scale=1.0, cache_dir=None, **kwargs):
            seen.append(cache_dir)
            return {"from": cache_dir}

        monkeypatch.setattr(common, "load_dataset", fake_load_dataset)
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.setenv("REPRO_CACHE_DIR", dir_a)
        first = common.get_dataset(scale=0.771)
        monkeypatch.setenv("REPRO_CACHE_DIR", dir_b)
        second = common.get_dataset(scale=0.771)
        # The build received exactly the directory its memo key names —
        # not whatever REPRO_CACHE_DIR happened to be at build time.
        assert seen == [dir_a, dir_b]
        assert first == {"from": dir_a}
        assert second == {"from": dir_b}
        # Flipping back returns the original memo without a rebuild.
        monkeypatch.setenv("REPRO_CACHE_DIR", dir_a)
        assert common.get_dataset(scale=0.771) is first
        assert seen == [dir_a, dir_b]

    def test_model_cache_path_honors_resolved_dir(self, monkeypatch,
                                                  tmp_path):
        from repro.experiments.common import (model_cache_path,
                                              model_config, train_config)

        cfg, tcfg = model_config(), train_config(epochs=1)
        explicit = model_cache_path("timing_full", cfg, tcfg, 0.25,
                                    cache_dir=str(tmp_path))
        assert explicit.startswith(str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        via_env = model_cache_path("timing_full", cfg, tcfg, 0.25)
        assert via_env.startswith(str(tmp_path / "env"))
        assert os.path.basename(explicit) == os.path.basename(via_env)


# -- seed-determinism property ------------------------------------------------
class TestSeedDeterminismProperty:
    """Same seed => identical artifacts, in-process and across processes."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_repeated_runs_identical(self, seed):
        assert _seeded_build(seed) == _seeded_build(seed)

    def test_identical_across_processes(self):
        seeds = [0, 3]
        local = [_seeded_build(s) for s in seeds]
        remote = ParallelExecutor(workers=2).map(_seeded_build, seeds)
        assert local == remote

    def test_different_seeds_differ(self):
        assert _seeded_build(0) != _seeded_build(1)

    def test_generate_design_stable_across_calls(self):
        a = generate_design("spm", "test", scale=SCALE)
        b = generate_design("spm", "test", scale=SCALE)
        assert graph_bytes(a.graph) == graph_bytes(b.graph)


# -- instrumentation ----------------------------------------------------------
class TestInstrumentation:
    def test_build_latency_histogram_recorded(self, tmp_path):
        from repro.obs import get_registry

        load_dataset(scale=SCALE, cache_dir=str(tmp_path),
                     benchmarks=SMALL[:1], workers=1)
        hist = get_registry().get("repro_design_build_ms",
                                  design=SMALL[0].name)
        assert hist is not None and hist.count >= 1

    def test_artifact_counters_recorded(self, tmp_path):
        from repro.obs import get_registry

        store = ArtifactStore(str(tmp_path))
        store.get("missing", kind="probe")
        store.put("k", 1, kind="probe")
        store.get("k", kind="probe")
        reg = get_registry()
        assert reg.get("repro_artifact_total", result="miss",
                       kind="probe").value >= 1
        assert reg.get("repro_artifact_total", result="hit",
                       kind="probe").value >= 1

    def test_busy_worker_gauge_settles_to_zero(self):
        from repro.obs import get_registry

        ParallelExecutor(workers=2).map(_square, range(4))
        gauge = get_registry().get("repro_parallel_busy_workers")
        assert gauge is not None and gauge.value == 0


# -- flow artifact hooks ------------------------------------------------------
class TestFlowArtifactHooks:
    def test_run_cached_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        flow = Flow.from_benchmark("spm", scale=SCALE)
        flow.run_cached(store=store, seed=2)
        fresh = Flow.from_benchmark("spm", scale=SCALE)
        assert fresh.load_artifacts(store=store, seed=2)
        assert fresh.fingerprint() == flow.fingerprint()
        assert graph_bytes(fresh.extract()) == graph_bytes(flow.extract())
        assert fresh.timing_summary() == flow.timing_summary()

    def test_artifact_key_is_parameter_sensitive(self):
        flow = Flow.from_benchmark("spm", scale=SCALE)
        base = flow.artifact_key(seed=1)
        assert flow.artifact_key(seed=1) == base
        assert flow.artifact_key(seed=2) != base
        assert flow.artifact_key(seed=1, clock_period=500.0) != base

    def test_load_artifacts_miss_returns_false(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        flow = Flow.from_benchmark("spm", scale=SCALE)
        assert not flow.load_artifacts(store=store, seed=9)
