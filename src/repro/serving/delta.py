"""Delta sessions: incremental ECO prediction through the serving stack.

A :class:`DeltaRequest` names a base graph already servable by the
graph cache (design + seed + scale) and a small edit list (move cell,
resize cell, insert/remove buffer).  The service keeps one
:class:`DeltaSession` per base graph key: a deterministic, label-free
rebuild of the cached design (same generator, placement seed and scale,
at the cached graph's clock period, so the shared cache entry itself is
never mutated) wrapped in a :class:`~repro.graphdata.patch.GraphPatcher`,
plus one cached
:class:`~repro.models.incremental.IncrementalForwardState` per model.
Each request applies its edits under the session lock, which patches
feature rows only, bumps the graph version, and re-predicts
cone-limited: only the levels/segments downstream of the touched pins
re-execute.  Nothing on this path routes or runs STA; ground-truth
labels come from :meth:`DeltaSession.materialize` when asked for.

:class:`DeltaClient` is the closed-loop face of the endpoint: the
optimizers in :mod:`repro.opt` use it (``use_service=``) to drive trial
edits against the model instead of ground-truth STA.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import nn
from ..graphdata.extract import extract_features
from ..graphdata.patch import GraphPatcher
from ..models.incremental import IncrementalForwardState
from .service import RequestError, validate_shared_fields

__all__ = ["DeltaRequest", "DeltaSession", "DeltaClient"]


@dataclass
class DeltaRequest:
    """One incremental prediction request against a delta session."""

    design: str = None
    model: str = "timing-full"
    seed: int = 1
    scale: float = None
    edits: list = field(default_factory=list)
    include_slack: bool = False
    no_cache: bool = False
    deadline_ms: float = None
    request_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    created_at: float = field(default_factory=time.perf_counter)

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        known = {"design", "model", "seed", "scale", "edits",
                 "include_slack", "no_cache", "deadline_ms", "request_id"}
        unknown = set(payload) - known
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        kwargs = {k: payload[k] for k in known if k in payload}
        if not kwargs.get("request_id"):
            kwargs.pop("request_id", None)
        return cls(**kwargs)

    def validate(self):
        if not self.design or not isinstance(self.design, str):
            raise RequestError(
                "'design' (a named benchmark) is required for delta "
                "requests")
        if not isinstance(self.edits, list):
            raise RequestError("'edits' must be a list of edit objects")
        validate_shared_fields(self)
        return self

    def remaining_s(self):
        if self.deadline_ms is None:
            return None
        elapsed = time.perf_counter() - self.created_at
        return self.deadline_ms / 1000.0 - elapsed

    def base_request(self):
        """The equivalent whole-graph request (resolves the base key)."""
        from .service import PredictRequest
        return PredictRequest(design=self.design, model=self.model,
                              seed=self.seed, scale=self.scale,
                              include_slack=self.include_slack).validate()


class DeltaSession:
    """One design's live edit session.

    Rebuilds the cached base graph's design deterministically (same
    generator, placement seed and scale as the graph cache entry) and
    runs only the feature pass at the base graph's ``clock_period``,
    hence feature arrays bit-identical to the cached graph's.  All
    mutation happens under :attr:`lock`; the ``nonce`` makes
    result-cache keys unique to this session instance, so an
    evicted-and-rebuilt session can never collide with payloads cached
    by its predecessor at the same version number.
    """

    def __init__(self, design, seed, scale, key, clock_period):
        from ..flow import Flow
        flow = Flow.from_benchmark(design, scale=scale).place(seed=seed)
        hetero = extract_features(flow.graph, flow.placement, clock_period)
        self.design = design
        self.seed = seed
        self.scale = scale
        self.key = key
        self.nonce = uuid.uuid4().hex[:8]
        self.lock = threading.RLock()
        self.patcher = GraphPatcher(flow.design, flow.placement, None,
                                    flow.graph, None, hetero)
        self.dirty_log = []        # dirty_log[i]: the edit taking i -> i+1
        self._states = {}          # (model name, version) -> forward state

    @property
    def version(self):
        return self.patcher.version

    @property
    def hetero(self):
        return self.patcher.hetero

    @property
    def clock_period(self):
        return self.patcher.clock_period

    def apply(self, edits):
        """Apply parsed edits in order; appends each to the dirty log."""
        for edit in edits:
            self.dirty_log.append(self.patcher.apply(edit))
        return len(edits)

    def state_for(self, entry):
        skey = (entry.name, entry.version)
        state = self._states.get(skey)
        if state is None:
            state = IncrementalForwardState(entry.model)
            self._states[skey] = state
        return state

    def refresh(self, entry):
        """Bring ``entry``'s forward state up to the current version.

        Returns ``(state, stats)`` where ``state.arrival``/``.slew`` are
        fresh predictions for the patched graph.
        """
        state = self.state_for(entry)
        deltas = (self.dirty_log[max(state.version, 0):]
                  if state.he is not None else [])
        stats = state.refresh(self.hetero, deltas, self.version)
        return state, stats

    def netdelay(self, entry):
        """Full net-embedding forward (netdelay-kind models)."""
        with nn.no_grad():
            _h, net_delay = entry.model.forward(self.hetero)
        return net_delay.data

    def labelled(self):
        """The patched graph if its labels describe the current version
        (after a label pass, with no edit since), else None."""
        patcher = self.patcher
        return (patcher.hetero if patcher.labels_version == patcher.version
                else None)

    def materialize(self):
        """Run the lazy label pass (see GraphPatcher.materialize)."""
        return self.patcher.materialize()


class DeltaClient:
    """Closed-loop optimizer client for ``predict_delta``.

    Binds one (service, design, model, seed, scale) tuple; every call
    sends one delta request and returns the prediction payload.  The
    convenience methods return the predicted setup WNS in ps (timing
    models only), which is what the greedy accept/revert loops in
    :mod:`repro.opt` key their decisions on.
    """

    def __init__(self, service, design, model="timing-full", seed=1,
                 scale=None, include_slack=False):
        self.service = service
        self.design = design
        self.model = model
        self.seed = seed
        self.scale = scale
        self.include_slack = include_slack

    def apply(self, edits):
        body = {"design": self.design, "model": self.model,
                "seed": self.seed, "edits": list(edits),
                "include_slack": self.include_slack}
        if self.scale is not None:
            body["scale"] = self.scale
        return self.service.predict_delta(body).prediction

    def wns_setup_ps(self, edits=()):
        return float(self.apply(edits)["wns_setup_ps"])

    def move_cell(self, cell, x, y):
        return self.wns_setup_ps([{"op": "move_cell", "cell": cell,
                                   "x": float(x), "y": float(y)}])

    def resize_cell(self, cell, cell_type):
        return self.wns_setup_ps([{"op": "resize_cell", "cell": cell,
                                   "cell_type": cell_type}])

    def insert_buffer(self, net, sink, buffer_cell="BUF_X2", name=None,
                      new_net=None):
        edit = {"op": "insert_buffer", "net": net, "sink": sink,
                "buffer_cell": buffer_cell}
        if name:
            edit["name"] = name
        if new_net:
            edit["new_net"] = new_net
        return self.wns_setup_ps([edit])

    def remove_buffer(self, name):
        return self.wns_setup_ps([{"op": "remove_buffer", "name": name}])
