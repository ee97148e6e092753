"""Differential equivalence harness for incremental (delta) prediction.

The delta path — :class:`~repro.graphdata.patch.GraphPatcher` feature
patching, :class:`~repro.models.incremental.IncrementalForwardState`
cone-limited forwards, and the ``/predict/delta`` serving surface — is
only trustworthy if it is *indistinguishable* from throwing the graph
away and redoing everything.  Every test here states that contract as a
differential: apply edits incrementally, then rebuild the same design
from scratch (full re-route + full STA + full extraction + whole-graph
forward) and require equality — bit-for-bit on graph feature arrays,
the dtype contract tolerance on model predictions — across edit kinds,
edit sequences (hypothesis), the service, and the HTTP front-end (the
edit-kind differential runs in every kernel backend, dtype and arena
cell in ``test_contracts.py``).  Labels are compared
after the lazy label pass (``materialize()``).  The request path itself
is pinned label-free (no routing, STA or incremental timer), and its
degraded answers use only labels of the current version or fail with a
504.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro import nn
from repro.flow import Flow
from repro.graphdata import extract_graph
from repro.graphdata.hetero import HeteroGraph
from repro.graphdata.patch import EditError, parse_edits
from repro.liberty import make_sky130_like_library, sizing_alternatives
from repro.models import ModelConfig, NetEmbedding, TimingGNN
from repro.netlist import build_benchmark
from repro.placement import place_design
from repro.routing import route_design
from repro.serving import (DeadlineExceeded, DeltaSession, ModelRegistry,
                           PredictionService, RequestError, ServingServer)
from repro.serving.registry import ModelEntry
from repro.serving.service import _timing_payload
from repro.sta import build_timing_graph, run_sta
from repro.sta.incremental import IncrementalTimer
from repro.sta.paths import enumerate_worst_paths

SCALE = 0.15
DESIGN = "spm"
ATOL = 1e-9

# Label arrays carry STA results: the incremental timer recomputes them
# along cones, so they are compared at tolerance; everything else —
# topology and features — must be bit-identical to a re-extraction.
_LABEL_FIELDS = ("net_delay", "arrival", "slew", "required",
                 "cell_arc_delay")


# -- fixtures ------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def base_clock():
    """Clock period of the cached base graph a service would build."""
    return Flow.from_benchmark(DESIGN, scale=SCALE).place(seed=1) \
        .extract().clock_period


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
    return registry


@pytest.fixture()
def service(toy_model):
    svc = PredictionService(registry=_toy_registry(toy_model), scale=SCALE)
    yield svc
    svc.close()


def _entry(toy_model):
    return ModelEntry(name="toy", kind="timing", version="vtest",
                      model=toy_model, loaded_at=time.time(),
                      load_seconds=0.0)


# -- the from-scratch reference ------------------------------------------------
def full_reextract(patcher):
    """Rebuild the session's edited design with the batch pipeline.

    This is the independent ground truth the incremental path must
    reproduce: a full re-route, a full STA from a cold start, and a
    whole-graph feature extraction of the *same* (mutated) design.
    """
    routing = route_design(patcher.design, patcher.placement)
    graph = build_timing_graph(patcher.design)
    result = run_sta(patcher.design, patcher.placement, routing,
                     clock_period=patcher.clock_period, graph=graph)
    return extract_graph(graph, patcher.placement, result,
                         split=patcher.hetero.split)


def assert_graph_matches(hetero, ref):
    """Patched graph == re-extracted graph: features bitwise, labels 1e-9."""
    assert hetero.num_nodes == ref.num_nodes
    for name in HeteroGraph._ARRAY_FIELDS:
        ours, theirs = getattr(hetero, name), getattr(ref, name)
        if name in _LABEL_FIELDS:
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=ATOL,
                                       equal_nan=True, err_msg=name)
        else:
            np.testing.assert_array_equal(ours, theirs, err_msg=name)


def assert_predictions_match(state, ref_hetero, model):
    """Incremental head values (arrival, slew, net delay) == whole-graph
    forward on the reference, within the dtype contract tolerance."""
    with nn.no_grad():
        ref = model.predict(ref_hetero)
    rtol, atol = nn.contract_tol()
    for name, ours, theirs in (
            ("arrival", state.arrival, ref.numpy_arrival()),
            ("slew", state.slew, ref.numpy_slew()),
            ("net_delay", state.net_delay, ref.net_delay.data)):
        np.testing.assert_allclose(ours, theirs, rtol=rtol, atol=atol,
                                   err_msg=name)


# -- edit construction against a live session ---------------------------------
def _move_edit(patcher, frac=(0.25, 0.75), idx=5):
    cells = patcher.design.combinational_cells
    die = patcher.placement.die
    return {"op": "move_cell", "cell": cells[idx % len(cells)].name,
            "x": float(die.width * frac[0]),
            "y": float(die.height * frac[1])}


def _resize_edit(patcher):
    library = patcher.design.library
    for cell in patcher.design.combinational_cells:
        alts = sizing_alternatives(library, cell.cell_type)
        others = [a for a in alts if a.name != cell.cell_type.name]
        if others:
            return {"op": "resize_cell", "cell": cell.name,
                    "cell_type": others[-1].name}
    pytest.skip("no resizable cell in benchmark")


def _register_resize_edit(patcher):
    """DFF_X1 -> DFF_X2: new setup/hold move the D-pin endpoint rows."""
    for cell in patcher.design.cells:
        if cell.cell_type.name == "DFF_X1":
            return {"op": "resize_cell", "cell": cell.name,
                    "cell_type": "DFF_X2"}
    pytest.skip("no DFF_X1 register in benchmark")


def _buffer_candidates(patcher):
    for net in patcher.design.nets:
        if net.driver is None or net.driver.is_clock:
            continue
        sinks = [s for s in net.sinks
                 if s.cell is not None and not s.is_clock]
        if len(net.sinks) >= 2 and sinks:
            yield net, sinks[0]


def _buffer_edit(patcher, name="tbuf0"):
    net, sink = next(iter(_buffer_candidates(patcher)))
    return {"op": "insert_buffer", "net": net.name, "sink": sink.name,
            "name": name, "new_net": f"{name}_net"}


# -- edit parsing --------------------------------------------------------------
class TestParseEdits:
    def test_normalizes_every_edit_kind(self):
        edits = parse_edits([
            {"op": "move_cell", "cell": "u1", "x": 1, "y": "2.5"},
            {"op": "resize_cell", "cell": "u1", "cell_type": "INV_X4"},
            {"op": "insert_buffer", "net": "n1", "sink": "u2/A"},
            {"op": "remove_buffer", "name": "b0"},
        ])
        assert edits[0] == {"op": "move_cell", "cell": "u1",
                            "x": 1.0, "y": 2.5}
        assert edits[1]["cell_type"] == "INV_X4"
        assert edits[2]["buffer_cell"] and edits[2]["name"] is None
        assert edits[3] == {"op": "remove_buffer", "name": "b0"}

    def test_rejects_unknown_op_and_missing_fields(self):
        with pytest.raises(EditError):
            parse_edits([{"op": "explode"}])
        with pytest.raises(EditError):
            parse_edits([{"op": "move_cell", "cell": "u1", "x": 0}])
        with pytest.raises(EditError):
            parse_edits(["not a dict"])

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_coordinates(self, bad):
        edit = json.loads(f'{{"op": "move_cell", "cell": "u1", '
                          f'"x": {bad}, "y": 1.0}}')
        with pytest.raises(EditError, match="finite"):
            parse_edits([edit])
        with pytest.raises(EditError, match="finite"):
            parse_edits([dict(edit, x=1.0, y=edit["x"])])


# -- edit differentials --------------------------------------------------------
class TestEditDifferential:
    """Incremental session == full rebuild.  The per-edit-kind
    differential runs in every numeric cell in ``test_contracts.py``."""

    def test_one_label_pass_over_pending_edits(self, monkeypatch):
        """One timer update over the union of several pending moves and
        resizes labels the design exactly as one update per edit does."""
        per_edit, batched = (
            DeltaSession(DESIGN, 1, SCALE, key=key, clock_period=base_clock())
            for key in ("per-edit", "batched"))
        per_edit.materialize()
        batched.materialize()
        edits = [_move_edit(per_edit.patcher),
                 _resize_edit(per_edit.patcher),
                 _register_resize_edit(per_edit.patcher),
                 _move_edit(per_edit.patcher, frac=(0.6, 0.3), idx=9)]
        for edit in edits:
            per_edit.apply(parse_edits([edit]))
            per_edit.materialize()
        calls = _spy_label_layers(monkeypatch)
        batched.apply(parse_edits(edits))
        batched.materialize()
        assert calls == ["IncrementalTimer"]
        for name in HeteroGraph._ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(batched.hetero, name),
                                          getattr(per_edit.hetero, name),
                                          err_msg=name)
        assert_graph_matches(batched.hetero,
                             full_reextract(batched.patcher))

    def test_cone_refresh_is_actually_partial(self, toy_model,
                                              monkeypatch):
        """A single move re-executes a cone, not the whole graph, and
        embeds only the pins of the nets that touch the moved cell."""
        session = DeltaSession(DESIGN, 1, SCALE, key="cone",
                               clock_period=base_clock())
        entry = _entry(toy_model)
        _, stats = session.refresh(entry)
        assert stats["full"]

        embedded = []
        forward = NetEmbedding.forward

        def spy(self, graph):
            embedded.append(graph)
            return forward(self, graph)

        monkeypatch.setattr(NetEmbedding, "forward", spy)
        edit = _move_edit(session.patcher)
        session.apply(parse_edits([edit]))
        _, stats = session.refresh(entry)
        assert not stats["full"]
        n = session.hetero.num_nodes
        assert 0 < stats["dirty_nodes"] < n

        patcher = session.patcher
        cell = next(c for c in patcher.design.cells if c.name == edit["cell"])
        expected = set()
        for pin in cell.pins.values():
            if pin.is_clock or pin.net is None:
                continue
            for p in [pin.net.driver, *pin.net.sinks]:
                expected.add(patcher.graph.node_of_pin[p.index])
        [view] = embedded
        assert sorted(expected) == view.nodes.tolist()
        assert view.num_nodes < 0.1 * n

    def test_structural_edit_forces_full_refresh(self, toy_model):
        session = DeltaSession(DESIGN, 1, SCALE, key="full",
                               clock_period=base_clock())
        entry = _entry(toy_model)
        session.refresh(entry)
        session.apply(parse_edits([_buffer_edit(session.patcher,
                                                name="tbuf1")]))
        _, stats = session.refresh(entry)
        assert stats["full"]


# -- random edit sequences (hypothesis) ----------------------------------------
def _concretize(patcher, op, rng, stack, i):
    """Turn an abstract op into a valid edit for the *current* design."""
    if op == "remove" and not stack:
        op = "move"
    if op == "insert":
        candidates = list(_buffer_candidates(patcher))
        if not candidates:
            op = "move"
    if op == "move":
        cells = patcher.design.combinational_cells
        cell = cells[int(rng.integers(len(cells)))]
        die = patcher.placement.die
        return {"op": "move_cell", "cell": cell.name,
                "x": float(rng.uniform(0, die.width)),
                "y": float(rng.uniform(0, die.height))}
    if op == "resize":
        library = patcher.design.library
        cells = patcher.design.cells
        order = rng.permutation(len(cells))
        for j in order:
            cell = cells[int(j)]
            others = [a for a in
                      sizing_alternatives(library, cell.cell_type)
                      if a.name != cell.cell_type.name]
            if others:
                pick = others[int(rng.integers(len(others)))]
                return {"op": "resize_cell", "cell": cell.name,
                        "cell_type": pick.name}
        return _concretize(patcher, "move", rng, stack, i)
    if op == "insert":
        net, sink = candidates[int(rng.integers(len(candidates)))]
        name = f"hbuf{i}"
        stack.append(name)
        return {"op": "insert_buffer", "net": net.name, "sink": sink.name,
                "name": name, "new_net": f"{name}_net"}
    return {"op": "remove_buffer", "name": stack.pop()}


class TestDeltaSequenceProperty:
    @settings(max_examples=3, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(ops=st.lists(st.sampled_from(["move", "move", "resize",
                                         "insert", "remove"]),
                        min_size=1, max_size=20),
           seed=st.integers(0, 2**31 - 1))
    # Always: a buffer edit, then moves and resizes pending together.
    @example(ops=["move", "insert", "move", "resize", "move", "resize"],
             seed=7)
    def test_incremental_state_equals_from_scratch(self, toy_model, ops,
                                                   seed):
        """1-20 random mixed deltas: the incrementally maintained session
        equals (a) a fresh label-free session replaying the same edits
        with a full forward and one full-STA label pass and (b) a
        from-scratch batch re-extraction.  The session's final labels
        come from one incremental timer update over every edit since
        its last full label pass (the start or the last buffer edit)."""
        rng = np.random.default_rng(seed)
        session = DeltaSession(DESIGN, 1, SCALE, key="prop",
                               clock_period=base_clock())
        entry = _entry(toy_model)
        session.refresh(entry)
        session.materialize()             # full STA; later passes: cones
        stack, applied = [], []
        for i, op in enumerate(ops):
            edit = _concretize(session.patcher, op, rng, stack, i)
            applied.append(edit)
            session.apply(parse_edits([edit]))
            session.refresh(entry)        # refresh per edit: cones chain
            if session.dirty_log[-1].structural:
                session.materialize()     # new netlist: full STA again
        state, _ = session.refresh(entry)
        session.materialize()             # one cone over the pending union

        replay = DeltaSession(DESIGN, 1, SCALE, key="prop-replay",
                              clock_period=base_clock())
        replay.apply(parse_edits(applied))
        rstate, rstats = replay.refresh(_entry(toy_model))
        assert rstats["full"]             # fresh state: whole-graph pass
        replay.materialize()              # label-free: route + full STA

        assert session.version == replay.version == len(applied)
        for name in HeteroGraph._ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(session.hetero, name),
                getattr(replay.hetero, name), err_msg=name)
        rtol, atol = nn.contract_tol()
        for name in ("arrival", "slew", "net_delay"):
            np.testing.assert_allclose(getattr(state, name),
                                       getattr(rstate, name),
                                       rtol=rtol, atol=atol, err_msg=name)
        ref = full_reextract(session.patcher)
        assert_graph_matches(session.hetero, ref)
        assert_predictions_match(state, ref, toy_model)


# -- the serving surface -------------------------------------------------------
class TestServiceDelta:
    def test_empty_delta_equals_full_predict(self, service):
        delta = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": []})
        full = service.predict({"design": DESIGN, "model": "toy"})
        assert delta.graph_version == 0 and delta.num_edits == 0
        assert delta.prediction == full.prediction
        assert not delta.degraded

    def test_netdelay_model_delta(self, service):
        delta = service.predict_delta(
            {"design": DESIGN, "model": "toy-net", "edits": []})
        full = service.predict({"design": DESIGN, "model": "toy-net"})
        assert delta.prediction == full.prediction

    def test_edit_matches_independent_reextract(self, service, toy_model):
        session = service.delta_session(DESIGN)
        edit = _move_edit(session.patcher)
        response = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": [edit]})
        assert response.graph_version == 1 and response.num_edits == 1
        ref = full_reextract(session.patcher)
        with nn.no_grad():
            arrival = toy_model.predict(ref).numpy_arrival()
        assert response.prediction == _timing_payload(ref, arrival, False)

    def test_bad_edit_is_a_request_error(self, service):
        with pytest.raises(RequestError) as err:
            service.predict_delta({"design": DESIGN, "model": "toy",
                                   "edits": [{"op": "move_cell",
                                              "cell": "no-such-cell",
                                              "x": 0.0, "y": 0.0}]})
        assert err.value.status == 400
        assert "session at version" in str(err.value)

    def test_unknown_model_404(self, service):
        with pytest.raises(RequestError) as err:
            service.predict_delta({"design": DESIGN, "model": "nope",
                                   "edits": []})
        assert err.value.status == 404

    def test_delta_metrics_exported(self, service):
        service.predict_delta({"design": DESIGN, "model": "toy",
                               "edits": [_move_edit(
                                   service.delta_session(DESIGN).patcher)]})
        text = service.metrics_text()
        assert "repro_delta_requests_total" in text
        assert "repro_delta_edits_total" in text
        assert "repro_delta_dirty_nodes" in text


class TestDeltaSpeedup:
    def test_single_edit_delta_beats_rebuild_and_forward(self, service,
                                                         toy_model):
        """The ECO iteration ``/predict/delta`` replaces: after a cell
        move, re-route, full STA, re-extraction and a whole-graph
        forward.  The median single-edit delta request must be faster
        than the median of that conventional iteration."""
        body = {"design": DESIGN, "model": "toy", "no_cache": True}
        session = service.delta_session(DESIGN)
        patcher = session.patcher
        cells = patcher.design.combinational_cells
        die = patcher.placement.die
        rng = np.random.default_rng(0)

        def move_edit():
            cell = cells[int(rng.integers(len(cells)))]
            return {"op": "move_cell", "cell": cell.name,
                    "x": float(rng.uniform(0, die.width)),
                    "y": float(rng.uniform(0, die.height))}

        # Each conventional iteration applies its edit untimed, then
        # times everything a service without the delta path redoes.
        full_ms = []
        with session.lock:
            for _ in range(4):
                session.apply(parse_edits([move_edit()]))
                start = time.perf_counter()
                hetero = full_reextract(patcher)
                with nn.no_grad():
                    toy_model.predict(hetero)
                full_ms.append((time.perf_counter() - start) * 1000.0)

        # The first delta request catches up on the edits above; leave it
        # untimed so the loop times steady-state single-edit cones.
        service.predict_delta(dict(body, edits=[]))
        delta_ms = []
        for _ in range(16):
            start = time.perf_counter()
            service.predict_delta(dict(body, edits=[move_edit()]))
            delta_ms.append((time.perf_counter() - start) * 1000.0)

        full, delta = float(np.median(full_ms)), float(np.median(delta_ms))
        assert full / delta > 1, (full_ms, delta_ms)


class TestPayloadCacheVersioning:
    def test_cache_respects_graph_version(self, service):
        """Regression: cached payloads are keyed by graph version, so an
        edit can never be answered with a stale pre-edit prediction, and
        the base (non-delta) entry is never polluted by a session."""
        base = service.predict({"design": DESIGN, "model": "toy"})
        first = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": []})
        again = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": []})
        assert not first.cache_hit and again.cache_hit
        assert again.prediction == first.prediction

        edit = _move_edit(service.delta_session(DESIGN).patcher)
        moved = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": [edit]})
        assert moved.graph_version == 1
        assert not moved.cache_hit
        assert moved.prediction != first.prediction

        cached = service.predict_delta(
            {"design": DESIGN, "model": "toy", "edits": []})
        assert cached.cache_hit and cached.graph_version == 1
        assert cached.prediction == moved.prediction

        rebase = service.predict({"design": DESIGN, "model": "toy"})
        assert rebase.cache_hit
        assert rebase.prediction == base.prediction


# -- service-driven optimizer loops (opt.use_service) --------------------------
class TestServiceDrivenOpt:
    def test_sizing_keeps_local_and_served_designs_in_sync(self, service):
        from repro.flow import Flow
        from repro.opt import size_for_setup
        from repro.serving import DeltaClient
        flow = Flow.from_benchmark(DESIGN, scale=SCALE).place(seed=1)
        timer = flow.incremental_timer(tolerance=0.0)
        client = DeltaClient(service, DESIGN, model="toy")
        outcome = size_for_setup(timer, max_swaps=3, k_paths=4,
                                 max_rounds=1, use_service=client)
        assert outcome.predicted_wns == pytest.approx(
            client.wns_setup_ps())
        session = service.delta_session(DESIGN)
        rejects = outcome.trials - len(outcome.swaps)
        assert session.version == outcome.trials + rejects
        for ours, theirs in zip(flow.design.cells,
                                session.patcher.design.cells):
            assert ours.name == theirs.name
            assert ours.cell_type.name == theirs.cell_type.name

    def test_buffering_keeps_local_and_served_designs_in_sync(self,
                                                              service):
        from repro.flow import Flow
        from repro.opt import buffer_critical_nets
        from repro.serving import DeltaClient
        flow = Flow.from_benchmark(DESIGN, scale=SCALE).place(seed=1)
        flow.extract()
        client = DeltaClient(service, DESIGN, model="toy")
        _result, outcome = buffer_critical_nets(
            flow.design, flow.placement, flow.result, max_buffers=2,
            use_service=client)
        assert outcome.predicted_wns == pytest.approx(
            client.wns_setup_ps())
        session = service.delta_session(DESIGN)
        rejects = outcome.trials - len(outcome.inserted)
        assert session.version == outcome.trials + rejects
        assert len(session.patcher.design.cells) == len(flow.design.cells)
        assert [c.name for c in session.patcher.design.cells] == \
            [c.name for c in flow.design.cells]


# -- the label-free request path and its degraded answers ----------------------
def _spy_label_layers(monkeypatch):
    """Record calls of ``route_design``, ``run_sta`` and every
    ``IncrementalTimer`` construction, under any name a repro module
    holds them by."""
    from repro import routing, sta
    calls = []
    for fn in (routing.route_design, sta.run_sta):
        def spy(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, spy)
    init = IncrementalTimer.__init__

    def spy_init(self, *args, **kwargs):
        calls.append("IncrementalTimer")
        init(self, *args, **kwargs)
    monkeypatch.setattr(IncrementalTimer, "__init__", spy_init)
    return calls


def _counts(service):
    stats = service.stats()
    return (stats["counts"]["deadline_fallbacks"],
            stats["counts"]["errors"], stats["slo"]["bad"])


class TestLabelFreeDelta:
    def test_edits_and_refresh_never_route_or_time(self, toy_model,
                                                   monkeypatch):
        """Session build, every edit kind and the cone refresh run no
        routing and no STA; labels come only from materialize()."""
        clock = base_clock()
        calls = _spy_label_layers(monkeypatch)
        session = DeltaSession(DESIGN, 1, SCALE, key="spy",
                               clock_period=clock)
        entry = _entry(toy_model)
        session.refresh(entry)
        for edit in (_move_edit(session.patcher),
                     _resize_edit(session.patcher),
                     _register_resize_edit(session.patcher),
                     _buffer_edit(session.patcher, name="sbuf0"),
                     {"op": "remove_buffer", "name": "sbuf0"}):
            session.apply(parse_edits([edit]))
            session.refresh(entry)
        assert calls == []
        assert session.labelled() is None

        session.materialize()       # no result yet: route + full STA
        assert calls == ["route_design", "run_sta"]
        assert session.labelled() is session.hetero
        session.apply(parse_edits([_move_edit(session.patcher, idx=2)]))
        assert session.labelled() is None
        session.materialize()       # pending dirty nets: one cone update
        assert calls[2:] == ["IncrementalTimer"]
        assert_graph_matches(session.hetero,
                             full_reextract(session.patcher))

    def test_non_finite_move_leaves_the_session_untouched(self, service):
        session = service.delta_session(DESIGN)
        edit = _move_edit(session.patcher)
        service.predict_delta({"design": DESIGN, "model": "toy",
                               "edits": [edit]})
        pin_xy = session.patcher.placement.pin_xy.copy()
        # A valid edit ahead of the bad one must not apply either.
        body = json.loads(json.dumps(
            {"design": DESIGN, "model": "toy",
             "edits": [_move_edit(session.patcher, idx=3),
                       dict(edit, x=float("nan"))]}))
        with pytest.raises(RequestError) as err:
            service.predict_delta(body)
        assert err.value.status == 400
        assert session.version == 1
        np.testing.assert_array_equal(session.patcher.placement.pin_xy,
                                      pin_xy)
        after = service.predict_delta({"design": DESIGN, "model": "toy",
                                       "edits": [edit]})
        assert math.isfinite(after.prediction["tns_setup_ps"])
        assert math.isfinite(after.prediction["tns_hold_ps"])

    @pytest.mark.parametrize("method", ["predict", "predict_delta"])
    @pytest.mark.parametrize("field", ["deadline_ms", "scale", "seed"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_a_400(self, service, method, field,
                                          value):
        body = json.loads(f'{{"design": "{DESIGN}", "model": "toy", '
                          f'"edits": [], "{field}": {value}}}')
        if method == "predict":
            del body["edits"]
        with pytest.raises(RequestError) as err:
            getattr(service, method)(body)
        assert err.value.status == 400


class TestDeltaDegraded:
    """Degraded delta answers come only from labels that describe the
    session's current version, and never start STA past the deadline."""

    def test_expired_deadline_answers_from_current_labels(self, service):
        before = _counts(service)
        base = Flow.from_benchmark(DESIGN, scale=SCALE).place(seed=1) \
            .extract()
        expired = {"design": DESIGN, "model": "toy", "edits": [],
                   "deadline_ms": 0, "no_cache": True}
        # Version 0: the cached base graph's labels.
        response = service.predict_delta(dict(expired))
        assert response.degraded and response.graph_version == 0
        assert response.prediction == _timing_payload(base, base.arrival,
                                                      False)
        # After an edit and a label pass: that pass's labels.
        session = service.delta_session(DESIGN)
        service.predict_delta({"design": DESIGN, "model": "toy",
                               "edits": [_move_edit(session.patcher)]})
        session.materialize()
        response = service.predict_delta(dict(expired))
        assert response.degraded and response.graph_version == 1
        ref = full_reextract(session.patcher)
        assert response.prediction == _timing_payload(ref, ref.arrival,
                                                      False)
        fallbacks, errors, bad = _counts(service)
        assert fallbacks == before[0] + 2 and errors == before[1]

    def test_expired_deadline_refuses_edits_before_they_apply(
            self, service, monkeypatch):
        session = service.delta_session(DESIGN)
        edit = _move_edit(session.patcher)
        pin_xy = session.patcher.placement.pin_xy.copy()
        before = _counts(service)
        calls = _spy_label_layers(monkeypatch)
        with pytest.raises(DeadlineExceeded) as err:
            service.predict_delta({"design": DESIGN, "model": "toy",
                                   "edits": [edit], "deadline_ms": 0})
        assert err.value.status == 504
        assert "session unchanged" in str(err.value)
        assert calls == []
        assert session.version == 0
        np.testing.assert_array_equal(session.patcher.placement.pin_xy,
                                      pin_xy)
        assert _counts(service) == (before[0] + 1, before[1], before[2] + 1)
        # The retry applies the edit exactly once.
        response = service.predict_delta({"design": DESIGN, "model": "toy",
                                          "edits": [edit]})
        assert response.graph_version == session.version == 1

    def test_expired_deadline_with_stale_labels_is_a_504(self, service,
                                                         monkeypatch):
        session = service.delta_session(DESIGN)
        service.predict_delta({"design": DESIGN, "model": "toy",
                               "edits": [_move_edit(session.patcher)]})
        before = _counts(service)
        calls = _spy_label_layers(monkeypatch)
        with pytest.raises(DeadlineExceeded) as err:
            service.predict_delta({"design": DESIGN, "model": "toy",
                                   "edits": [], "deadline_ms": 0,
                                   "no_cache": True})
        assert err.value.status == 504
        assert "session at version 1" in str(err.value)
        assert calls == []
        assert session.version == 1
        assert session.labelled() is None
        assert _counts(service) == (before[0] + 1, before[1], before[2] + 1)

    def test_broken_checkpoint_runs_the_label_pass(self, toy_model,
                                                   monkeypatch):
        registry = _toy_registry(toy_model)

        def broken():
            raise RuntimeError("corrupt checkpoint")
        registry.register("broken", broken)
        svc = PredictionService(registry=registry, scale=SCALE)
        try:
            session = svc.delta_session(DESIGN)
            edit = _move_edit(session.patcher)
            response = svc.predict_delta({"design": DESIGN,
                                          "model": "broken",
                                          "edits": [edit]})
            assert response.degraded and response.graph_version == 1
            assert response.model_version == "unavailable"
            assert session.labelled() is session.hetero
            ref = full_reextract(session.patcher)
            assert response.prediction == _timing_payload(
                ref, ref.arrival, False)
            # Same checkpoint past the deadline: an edit would leave no
            # labels for its version -> 504, session unchanged.
            calls = _spy_label_layers(monkeypatch)
            expired = {"design": DESIGN, "model": "broken",
                       "deadline_ms": 0}
            with pytest.raises(DeadlineExceeded):
                svc.predict_delta(dict(expired, edits=[
                    _move_edit(session.patcher, idx=2)]))
            assert session.version == 1
            # Without edits the labels of version 1 still answer.
            again = svc.predict_delta(dict(expired, edits=[]))
            assert again.degraded and again.prediction == response.prediction
            assert calls == []
        finally:
            svc.close()


# -- HTTP front-end ------------------------------------------------------------
def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTPDelta:
    @pytest.fixture()
    def server(self, toy_model):
        svc = PredictionService(registry=_toy_registry(toy_model),
                                scale=SCALE)
        with ServingServer(svc) as srv:
            yield srv

    def test_delta_endpoint_roundtrip(self, server):
        status, body = _post(server.url + "/predict/delta",
                             {"design": DESIGN, "model": "toy",
                              "edits": []})
        assert status == 200
        assert body["graph_version"] == 0 and body["num_edits"] == 0
        assert body["prediction"]["num_endpoints"] > 0
        assert body["trace_id"]

        status, full = _post(server.url + "/predict",
                             {"design": DESIGN, "model": "toy"})
        assert full["prediction"] == body["prediction"]

    def test_delta_endpoint_applies_edits(self, server, toy_model):
        session = server.service.delta_session(DESIGN)
        edit = _move_edit(session.patcher)
        status, body = _post(server.url + "/predict/delta",
                             {"design": DESIGN, "model": "toy",
                              "edits": [edit]})
        assert status == 200
        assert body["graph_version"] == 1 and body["num_edits"] == 1
        ref = full_reextract(session.patcher)
        with nn.no_grad():
            arrival = toy_model.predict(ref).numpy_arrival()
        assert body["prediction"] == _timing_payload(ref, arrival, False)

    def test_delta_endpoint_4xx(self, server):
        status, body = _post(server.url + "/predict/delta",
                             {"model": "toy", "edits": []})
        assert status == 400 and "error" in body
        status, _ = _post(server.url + "/predict/delta",
                          {"design": DESIGN, "model": "toy",
                           "edits": [{"op": "explode"}]})
        assert status == 400

    def test_delta_endpoint_504_past_deadline_without_labels(self, server):
        session = server.service.delta_session(DESIGN)
        status, body = _post(server.url + "/predict/delta",
                             {"design": DESIGN, "model": "toy",
                              "edits": [_move_edit(session.patcher)],
                              "deadline_ms": 0})
        assert status == 504 and "error" in body
        assert session.version == 0


# -- IncrementalTimer edge cases (satellite: sta substrate) --------------------
@pytest.fixture()
def timer_setup():
    library = make_sky130_like_library()
    design = build_benchmark("zipdiv", library)
    placement = place_design(design, seed=1)
    routing = route_design(design, placement)
    graph = build_timing_graph(design)
    result = run_sta(design, placement, routing, graph=graph)
    timer = IncrementalTimer(design, placement, routing, graph, result)
    return design, placement, graph, result, result.clock_period, timer


def _full_reference(design, placement, graph, clock):
    routing = route_design(design, placement)
    return run_sta(design, placement, routing, clock_period=clock,
                   graph=graph)


def _assert_timer_matches(timer, result, reference):
    timer.refresh_required()
    np.testing.assert_allclose(result.arrival, reference.arrival,
                               atol=1e-6)
    np.testing.assert_allclose(result.slew, reference.slew, atol=1e-6)
    np.testing.assert_allclose(result.required, reference.required,
                               atol=1e-6, equal_nan=True)


class TestTimerEdgeCases:
    def test_move_cell_in_primary_input_cone(self, timer_setup):
        """A cell fed directly by a PI: the cone starts at level 0."""
        design, placement, graph, result, clock, timer = timer_setup
        cell = next(
            c for c in design.combinational_cells
            if any(p.direction == "input" and p.net is not None
                   and p.net.driver is not None and p.net.driver.is_port
                   and not p.net.driver.is_clock
                   for p in c.pins.values()))
        timer.move_cell(cell, [placement.die.width * 0.05,
                               placement.die.height * 0.05])
        reference = _full_reference(design, placement, graph, clock)
        _assert_timer_matches(timer, result, reference)

    def test_move_worst_endpoint_driver(self, timer_setup):
        """Editing the critical path's endpoint updates the WNS."""
        design, placement, graph, result, clock, timer = timer_setup
        path = enumerate_worst_paths(result, k=1, mode="setup")[0]
        pin = graph.node_pins[path.endpoint]
        cell = pin.cell if pin.cell is not None else pin.net.driver.cell
        assert cell is not None
        timer.move_cell(cell, [placement.die.width * 0.95,
                               placement.die.height * 0.95])
        reference = _full_reference(design, placement, graph, clock)
        _assert_timer_matches(timer, result, reference)
        assert timer.wns("setup") == pytest.approx(
            reference.wns("setup"), abs=1e-6)

    def test_back_to_back_overlapping_cones(self, timer_setup):
        """Two cells on the same path, edited alternately: the second
        cone overlaps the first and must not resurrect stale state."""
        design, placement, graph, result, clock, timer = timer_setup
        first = next(
            c for c in design.combinational_cells
            if any(p.direction == "output" and p.net is not None
                   and any(s.cell is not None and not s.cell.is_sequential
                           for s in p.net.sinks)
                   for p in c.pins.values()))
        out = next(p for p in first.pins.values()
                   if p.direction == "output" and p.net is not None)
        second = next(s.cell for s in out.net.sinks
                      if s.cell is not None and not s.cell.is_sequential)
        die = placement.die
        timer.move_cell(first, [die.width * 0.2, die.height * 0.2])
        timer.move_cell(second, [die.width * 0.8, die.height * 0.8])
        timer.move_cell(first, [die.width * 0.5, die.height * 0.5])
        reference = _full_reference(design, placement, graph, clock)
        _assert_timer_matches(timer, result, reference)

    def test_move_last_level_cell_empty_downstream_cone(self, timer_setup):
        """A cell whose fanout is all endpoints: the downstream cone is
        empty, so the update must terminate after the touched nodes."""
        design, placement, graph, result, clock, timer = timer_setup
        cell = next(
            c for c in design.combinational_cells
            if all(s.is_port or (s.cell is not None
                                 and s.cell.is_sequential
                                 and not s.is_clock)
                   for p in c.pins.values()
                   if p.direction == "output" and p.net is not None
                   for s in p.net.sinks))
        timer.move_cell(cell, [placement.die.width * 0.4,
                               placement.die.height * 0.6])
        assert 0 < timer.last_update_nodes < graph.num_nodes
        reference = _full_reference(design, placement, graph, clock)
        _assert_timer_matches(timer, result, reference)
