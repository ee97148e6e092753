"""Transport-agnostic prediction service core.

:class:`PredictionService` owns the three warm layers the serving story
is built on:

* a :class:`~repro.serving.registry.ModelRegistry` of named, versioned
  checkpoints loaded once and kept in memory;
* two LRU caches — extracted ``HeteroGraph`` artefacts keyed by content
  hash of the placed netlist, and finished prediction payloads keyed by
  (model version, graph key);
* one :class:`~repro.serving.batching.MicroBatcher` per model that
  coalesces concurrent requests into a single disjoint-union forward
  pass.

Failure policy ("graceful degradation"): if the model cannot answer —
load failure, or the request's deadline expires before the batch runs —
the service falls back to ground-truth STA labels and marks the
response ``degraded`` instead of erroring.  A whole-graph request
answers from the labels computed while extracting its cached graph.  A
delta request answers only from labels that describe its session's
current version; with none it runs the label pass, unless the deadline
has passed, in which case it fails with :class:`DeadlineExceeded`
(504) rather than start STA.  A delta request that carries edits and
is already past its deadline gets that 504 before any edit applies.
Otherwise only invalid requests (unknown design/model, malformed
netlist) produce hard errors.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from ..graphdata import TIME_SCALE
from ..obs import (MetricsRegistry, QualityMonitor, SloTracker,
                   get_registry, get_tracer)
from ..training import slack_from_arrival
from .batching import BatchTimeout, MicroBatcher
from .cache import LRUCache
from .registry import ModelLoadError, ModelRegistry

__all__ = ["PredictRequest", "PredictResponse", "RequestError",
           "DeadlineExceeded", "PredictionService"]


class RequestError(ValueError):
    """The request itself is invalid (maps to HTTP 400/404)."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class DeadlineExceeded(RequestError):
    """The deadline passed with no labels to degrade to (HTTP 504).

    A delta request whose session has no labels for its current
    version would need a route + STA label pass to answer degraded;
    past the deadline the service refuses to start one.  Edits that
    arrive past the deadline are refused before they apply, so the
    session is unchanged; only a deadline that passes while edits
    apply leaves them applied (the message names the new version).
    """

    def __init__(self, message):
        super().__init__(message, status=504)


def finite_number(value, name):
    """``value`` as a finite float; anything else is a 400."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must be a number")
    if not math.isfinite(value):
        raise RequestError(f"'{name}' must be finite")
    return value


def seed_integer(value):
    """``value`` as a non-negative integer seed; anything else is a 400.

    Plain ``int()`` would serve ``2.7`` as seed 2, and a negative seed
    only fails later, inside ``np.random.default_rng`` (a 500).
    """
    if isinstance(value, float) and not value.is_integer():
        raise RequestError("'seed' must be an integer")
    try:
        seed = int(value)
    except (TypeError, ValueError, OverflowError):
        raise RequestError("'seed' must be an integer")
    if seed < 0:
        raise RequestError("'seed' must be >= 0")
    return seed


#: Largest request ``scale``: 1.0 is the full benchmark suite, and the
#: generator's cost grows with the scale.
MAX_SCALE = 1.0


def validate_shared_fields(request):
    """Check and normalize, in place, the fields that ``/predict`` and
    ``/predict/delta`` share: model, seed, scale, deadline and the two
    flags.  Any bad value is a 400."""
    if not isinstance(request.model, str) or not request.model:
        raise RequestError("'model' must be a non-empty string")
    request.seed = seed_integer(request.seed)
    if request.scale is not None:
        request.scale = finite_number(request.scale, "scale")
        if not 0 < request.scale <= MAX_SCALE:
            raise RequestError(f"'scale' must be in (0, {MAX_SCALE:g}]")
    if request.deadline_ms is not None:
        request.deadline_ms = finite_number(request.deadline_ms,
                                            "deadline_ms")
        if request.deadline_ms < 0:
            raise RequestError("'deadline_ms' must be >= 0")
    for flag in ("include_slack", "no_cache"):
        if not isinstance(getattr(request, flag), bool):
            raise RequestError(f"'{flag}' must be true or false")


@dataclass
class PredictRequest:
    """One slack-prediction request.

    Exactly one of ``design`` (a named benchmark) or ``verilog`` (an
    inline structural netlist) must be given.  ``deadline_ms`` bounds
    the caller's wait: past it the service answers from the ground-truth
    STA path with ``degraded=True``.
    """

    design: str = None
    verilog: str = None
    model: str = "timing-full"
    seed: int = 1
    scale: float = None
    deadline_ms: float = None
    include_slack: bool = False
    no_cache: bool = False
    request_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    created_at: float = field(default_factory=time.perf_counter)

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        known = {"design", "verilog", "model", "seed", "scale",
                 "deadline_ms", "include_slack", "no_cache", "request_id"}
        unknown = set(payload) - known
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        kwargs = {k: payload[k] for k in known if k in payload}
        if not kwargs.get("request_id"):
            kwargs.pop("request_id", None)
        return cls(**kwargs)

    def validate(self):
        if bool(self.design) == bool(self.verilog):
            raise RequestError(
                "exactly one of 'design' or 'verilog' is required")
        if self.design is not None and not isinstance(self.design, str):
            raise RequestError("'design' must be a string")
        if self.verilog is not None and not isinstance(self.verilog, str):
            raise RequestError("'verilog' must be a string")
        validate_shared_fields(self)
        return self

    def remaining_s(self):
        """Seconds left before the deadline; None when unbounded."""
        if self.deadline_ms is None:
            return None
        elapsed = time.perf_counter() - self.created_at
        return self.deadline_ms / 1000.0 - elapsed


@dataclass
class PredictResponse:
    """One prediction answer (JSON-serializable via :meth:`to_dict`)."""

    request_id: str
    design: str
    model: str
    model_version: str
    kind: str
    degraded: bool
    cache_hit: bool
    batch_size: int
    latency_ms: float
    prediction: dict
    graph_version: int = 0   # 0 = the pristine base graph
    num_edits: int = 0       # edits applied by this (delta) request

    def to_dict(self):
        return {"request_id": self.request_id, "design": self.design,
                "model": self.model, "model_version": self.model_version,
                "kind": self.kind, "degraded": self.degraded,
                "cache_hit": self.cache_hit, "batch_size": self.batch_size,
                "latency_ms": round(self.latency_ms, 3),
                "graph_version": self.graph_version,
                "num_edits": self.num_edits,
                "prediction": self.prediction}


def _timing_payload(graph, arrival, include_slack):
    """Summary of endpoint slack derived from (predicted) arrivals."""
    slack = slack_from_arrival(graph, arrival)   # (endpoints, 4) normalized
    hold = slack[:, 0:2] * TIME_SCALE
    setup = slack[:, 2:4] * TIME_SCALE
    payload = {
        "num_endpoints": int(len(slack)),
        "clock_period_ps": round(float(graph.clock_period), 3),
        "wns_setup_ps": round(float(np.nanmin(setup)), 3),
        "tns_setup_ps": round(float(np.minimum(setup, 0.0)
                                    .min(axis=1).sum()), 3),
        "wns_hold_ps": round(float(np.nanmin(hold)), 3),
        "tns_hold_ps": round(float(np.minimum(hold, 0.0)
                                   .min(axis=1).sum()), 3),
    }
    if include_slack:
        payload["endpoint_setup_slack_ps"] = [
            round(float(v), 3) for v in setup.min(axis=1)]
        payload["endpoint_hold_slack_ps"] = [
            round(float(v), 3) for v in hold.min(axis=1)]
    return payload


def _netdelay_payload(graph, net_delay):
    sinks = graph.is_net_sink.astype(bool)
    delays = np.asarray(net_delay)[sinks] * TIME_SCALE
    return {
        "num_net_sinks": int(sinks.sum()),
        "mean_net_delay_ps": round(float(delays.mean()), 3) if len(delays)
        else 0.0,
        "max_net_delay_ps": round(float(delays.max()), 3) if len(delays)
        else 0.0,
    }


class PredictionService:
    """The serving core; thread-safe, transport-agnostic."""

    def __init__(self, registry=None, scale=None,
                 graph_cache_size=64, result_cache_size=1024,
                 batch_window_ms=2.0, max_batch=16, metrics=None,
                 delta_session_cache_size=8):
        self.registry = registry or ModelRegistry(scale=scale)
        self._scale = scale
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.graph_cache = LRUCache(graph_cache_size,
                                    registry=self.metrics, name="graph")
        self.result_cache = LRUCache(result_cache_size,
                                     registry=self.metrics, name="result")
        # Live ECO edit sessions, one per base graph key (predict_delta).
        self.delta_sessions = LRUCache(delta_session_cache_size,
                                       registry=self.metrics,
                                       name="delta_session")
        self._batch_window_ms = float(batch_window_ms)
        self._max_batch = int(max_batch)
        self._batchers = {}
        self._lock = threading.Lock()
        self._tracer = get_tracer()
        self._latency = self.metrics.histogram(
            "repro_request_latency_ms",
            "End-to-end /predict latency in milliseconds.",
            quantiles=(0.5, 0.9, 0.99))
        self._counters = {
            "requests": self.metrics.counter(
                "repro_requests_total", "Prediction requests received."),
            "errors": self.metrics.counter(
                "repro_request_errors_total",
                "Requests rejected as invalid (4xx)."),
            "degraded": self.metrics.counter(
                "repro_requests_degraded_total",
                "Responses answered from the ground-truth STA fallback."),
            "deadline_fallbacks": self.metrics.counter(
                "repro_deadline_fallbacks_total",
                "Degradations caused by an expired request deadline."),
            "model_fallbacks": self.metrics.counter(
                "repro_model_fallbacks_total",
                "Degradations caused by a model that failed to load."),
            "delta_requests": self.metrics.counter(
                "repro_delta_requests_total",
                "Incremental (/predict/delta) requests received."),
            "delta_edits": self.metrics.counter(
                "repro_delta_edits_total",
                "ECO edits applied through the delta path."),
        }
        self._delta_dirty = self.metrics.histogram(
            "repro_delta_dirty_nodes",
            "Dirty-frontier size (nodes re-predicted) per delta refresh.",
            quantiles=(0.5, 0.9, 0.99))
        # Rolling latency SLO: good = answered within the objective
        # (REPRO_SLO_LATENCY_MS); delta 504s and unexpected faults are
        # bad, other client errors (4xx) are excluded.  Surfaced by
        # /healthz.
        self.slo = SloTracker()
        # Shadow-STA auditor (REPRO_AUDIT_RATE > 0 enables): samples
        # served predictions off the request path and scores them
        # against the graph's ground-truth labels.
        self.quality = QualityMonitor(registry=self.metrics)
        self._started_at = time.time()

    # -- graph resolution -------------------------------------------------------
    def _effective_scale(self, request):
        if request.scale is not None:
            return request.scale
        if self._scale is not None:
            return self._scale
        from ..experiments.common import experiment_scale
        return experiment_scale()

    def _graph_key(self, request):
        """Content key of the placed netlist this request refers to.

        Benchmark requests hash the generator identity (name, scale,
        seed) — cheap and exactly as collision-free as the generator is
        deterministic.  Inline-netlist requests hash the Verilog source
        plus the placement seed.
        """
        if request.design:
            ident = (f"bench:{request.design}:s{self._effective_scale(request):g}"
                     f":seed{request.seed}")
        else:
            digest = hashlib.sha256(request.verilog.encode()).hexdigest()
            ident = f"verilog:{digest}:seed{request.seed}"
        return hashlib.sha256(ident.encode()).hexdigest()[:16]

    def _build_graph(self, request):
        """Run the physical flow and extract the dataset graph.

        The extraction necessarily runs ground-truth STA, so every
        cached graph carries the labels the degraded path answers from.
        """
        from ..flow import Flow
        if request.design:
            from ..netlist import benchmark_names
            if request.design not in benchmark_names():
                raise RequestError(f"unknown design {request.design!r}",
                                   status=404)
            flow = Flow.from_benchmark(request.design,
                                       scale=self._effective_scale(request))
        else:
            try:
                flow = Flow.from_verilog(request.verilog)
            except Exception as exc:
                raise RequestError(f"invalid verilog netlist: {exc}")
        flow.place(seed=request.seed)
        return flow.extract()

    def resolve_graph(self, request):
        """(graph, key, cache_hit) for the request's design."""
        key = self._graph_key(request)
        graph, hit = self.graph_cache.get_or_create(
            key, lambda: self._build_graph(request))
        return graph, key, hit

    # -- batched model execution ------------------------------------------------
    def _batcher_for(self, entry):
        batcher_key = (entry.name, entry.version)
        with self._lock:
            batcher = self._batchers.get(batcher_key)
            if batcher is None:
                batcher = MicroBatcher(
                    runner=entry.model.predict_batch,
                    window_s=self._batch_window_ms / 1000.0,
                    max_batch=self._max_batch, name=entry.name,
                    registry=self.metrics)
                self._batchers[batcher_key] = batcher
            return batcher

    # -- payload assembly -------------------------------------------------------
    @staticmethod
    def _model_payload(entry, graph, output, include_slack):
        if entry.kind == "timing":
            return _timing_payload(graph, output["arrival"], include_slack)
        return _netdelay_payload(graph, output["net_delay"])

    @staticmethod
    def _truth_payload(kind, graph, include_slack):
        if kind == "timing":
            return _timing_payload(graph, graph.arrival, include_slack)
        return _netdelay_payload(graph, graph.net_delay)

    def _bump(self, counter):
        self._counters[counter].inc()

    # -- the entry point --------------------------------------------------------
    def predict(self, request):
        """Answer one request; safe to call from many threads at once."""
        self._bump("requests")
        with self._tracer.span("serve.predict") as span:
            try:
                if isinstance(request, dict):
                    request = PredictRequest.from_dict(request)
                span.set(request_id=request.request_id,
                         model=request.model,
                         design=request.design or "<verilog>")
                response = self._predict(request.validate())
            except RequestError as exc:
                self._bump("errors")
                span.set(error=str(exc))
                raise
            except Exception:
                self.slo.record(None, ok=False)    # an internal fault
                raise
            response.latency_ms = ((time.perf_counter()
                                    - request.created_at) * 1000.0)
            self._latency.observe(response.latency_ms)
            self.slo.record(response.latency_ms)
            if response.degraded:
                self._bump("degraded")
            span.set(degraded=response.degraded,
                     cache_hit=response.cache_hit,
                     batch_size=response.batch_size)
        return response

    def _predict(self, request):
        graph, key, _graph_hit = self.resolve_graph(request)
        design_name = request.design or graph.name

        # Model resolution; a broken checkpoint degrades rather than 500s.
        kind = DEFAULT_KIND = "timing"
        entry = None
        try:
            entry = self.registry.get(request.model)
            kind = entry.kind
        except KeyError:
            raise RequestError(f"unknown model {request.model!r}",
                               status=404)
        except ModelLoadError:
            self._bump("model_fallbacks")
            return PredictResponse(
                request_id=request.request_id, design=design_name,
                model=request.model, model_version="unavailable",
                kind=DEFAULT_KIND, degraded=True, cache_hit=False,
                batch_size=0, latency_ms=0.0,
                prediction=self._truth_payload(DEFAULT_KIND, graph,
                                               request.include_slack))

        # Payloads are keyed by (graph key, graph VERSION): whole-graph
        # requests always answer for the pristine base (version 0) — the
        # shared cache entry is never mutated by edits — while delta
        # payloads carry their session's nonce + version (below), so a
        # post-edit prediction can never be served from a pre-edit entry
        # or vice versa.
        result_key = (entry.name, entry.version, key, 0,
                      bool(request.include_slack))
        cached = None if request.no_cache \
            else self.result_cache.get(result_key)
        if cached is not None:
            return PredictResponse(
                request_id=request.request_id, design=design_name,
                model=entry.name, model_version=entry.version, kind=kind,
                degraded=False, cache_hit=True, batch_size=0,
                latency_ms=0.0, prediction=cached)

        remaining = request.remaining_s()
        if remaining is not None and remaining <= 0:
            self._bump("deadline_fallbacks")
            return self._degraded_response(request, entry, graph,
                                           design_name)

        try:
            payload, batch_size = self._execute(entry, key, graph, request)
        except BatchTimeout:
            self._bump("deadline_fallbacks")
            return self._degraded_response(request, entry, graph,
                                           design_name)

        if not request.no_cache:
            self.result_cache.put(result_key, payload)
        return PredictResponse(
            request_id=request.request_id, design=design_name,
            model=entry.name, model_version=entry.version, kind=kind,
            degraded=False, cache_hit=False, batch_size=batch_size,
            latency_ms=0.0, prediction=payload)

    def _execute(self, entry, key, graph, request):
        """Run the model for one request; returns ``(payload, batch_size)``.

        Goes through the per-model :class:`MicroBatcher`.  Raises
        :class:`BatchTimeout` when the request's deadline expires first.
        """
        batcher = self._batcher_for(entry)
        output, batch_size = batcher.submit(key, graph,
                                            timeout=request.remaining_s())
        payload = self._model_payload(entry, graph, output,
                                      request.include_slack)
        if entry.kind == "timing":
            self.quality.maybe_audit(
                graph, output["arrival"], model=entry.name,
                model_version=entry.version,
                request_id=request.request_id, profile=entry.profile)
        return payload, batch_size

    # -- the delta entry point --------------------------------------------------
    def delta_session(self, design, seed=1, scale=None):
        """The live edit session for a base graph (created on first use)."""
        from .delta import DeltaRequest
        request = DeltaRequest(design=design, seed=seed,
                               scale=scale).validate()
        base, key, _hit = self.resolve_graph(request.base_request())
        return self._session_for(request, key, base.clock_period)

    def _session_for(self, request, key, clock_period):
        """The session for ``key``; a new one runs the feature pass only,
        at the cached base graph's ``clock_period``."""
        from .delta import DeltaSession
        scale = self._effective_scale(request)
        session, _hit = self.delta_sessions.get_or_create(
            key, lambda: DeltaSession(request.design, request.seed,
                                      scale, key, clock_period))
        return session

    def predict_delta(self, request):
        """Apply an ECO edit list to a live session and re-predict.

        Cone-limited: only the levels/segments downstream of the touched
        pins re-execute (see :mod:`repro.serving.delta`).  Accepts the
        same dict-or-dataclass calling convention as :meth:`predict`.
        """
        from .delta import DeltaRequest
        self._bump("requests")
        self._bump("delta_requests")
        with self._tracer.span("serve.predict_delta") as span:
            try:
                if isinstance(request, dict):
                    request = DeltaRequest.from_dict(request)
                span.set(request_id=request.request_id,
                         model=request.model,
                         design=request.design or "<missing>",
                         edits=len(request.edits)
                         if isinstance(request.edits, list) else 0)
                response = self._predict_delta(request.validate(), span)
            except DeadlineExceeded as exc:
                self._bump("deadline_fallbacks")
                self.slo.record(None, ok=False)
                span.set(error=str(exc), deadline=True)
                raise
            except RequestError as exc:
                self._bump("errors")
                span.set(error=str(exc))
                raise
            except Exception:
                self.slo.record(None, ok=False)    # an internal fault
                raise
            response.latency_ms = ((time.perf_counter()
                                    - request.created_at) * 1000.0)
            self._latency.observe(response.latency_ms)
            self.slo.record(response.latency_ms)
            if response.degraded:
                self._bump("degraded")
            span.set(degraded=response.degraded,
                     cache_hit=response.cache_hit,
                     graph_version=response.graph_version)
        return response

    def _predict_delta(self, request, span):
        from ..graphdata.patch import EditError, parse_edits
        # Resolve (and warm) the base graph exactly as /predict would;
        # this validates the design name and pins the session key.  The
        # cached base graph itself is never mutated — the session owns a
        # private rebuild.
        base, key, _hit = self.resolve_graph(request.base_request())
        try:
            edits = parse_edits(request.edits)
        except EditError as exc:
            raise RequestError(str(exc))

        entry = None
        try:
            entry = self.registry.get(request.model)
        except KeyError:
            raise RequestError(f"unknown model {request.model!r}",
                               status=404)
        except ModelLoadError:
            self._bump("model_fallbacks")

        remaining = request.remaining_s()
        if edits and remaining is not None and remaining <= 0:
            # No labels describe a version an edit creates and no label
            # pass may start past the deadline, so this can only end in
            # a 504: refuse before any mutation, so a retry is safe.
            raise DeadlineExceeded(
                f"deadline passed before {len(edits)} edit(s) were "
                f"applied; session unchanged")

        session = self._session_for(request, key, base.clock_period)
        with session.lock:
            if edits:
                self._counters["delta_edits"].inc(len(edits))
                try:
                    session.apply(edits)
                except EditError as exc:
                    # Edits apply in order; a mid-list failure leaves the
                    # session at the last good version (reported below).
                    raise RequestError(
                        f"{exc} (session at version {session.version})")
            span.set(graph_version=session.version)

            if entry is None:
                # Broken checkpoint: answer from the session's labels.
                return self._delta_degraded(request, None, session, base,
                                            len(edits))

            result_key = (entry.name, entry.version, key, session.nonce,
                          session.version, bool(request.include_slack),
                          "delta")
            cached = None if request.no_cache \
                else self.result_cache.get(result_key)
            if cached is not None:
                return PredictResponse(
                    request_id=request.request_id, design=request.design,
                    model=entry.name, model_version=entry.version,
                    kind=entry.kind, degraded=False, cache_hit=True,
                    batch_size=0, latency_ms=0.0,
                    graph_version=session.version, num_edits=len(edits),
                    prediction=cached)

            remaining = request.remaining_s()
            expired = remaining is not None and remaining <= 0
            if not expired:
                try:
                    payload, batch_size = self._execute_delta(
                        entry, key, session, request)
                except BatchTimeout:
                    expired = True
            if expired:
                response = self._delta_degraded(request, entry, session,
                                                base, len(edits))
                self._bump("deadline_fallbacks")
                return response
            if not request.no_cache:
                self.result_cache.put(result_key, payload)
            return PredictResponse(
                request_id=request.request_id, design=request.design,
                model=entry.name, model_version=entry.version,
                kind=entry.kind, degraded=False, cache_hit=False,
                batch_size=batch_size, latency_ms=0.0,
                graph_version=session.version, num_edits=len(edits),
                prediction=payload)

    def _delta_degraded(self, request, entry, session, base, num_edits):
        """Ground-truth answer for a delta request (session locked).

        Uses labels that describe the session's current version: the
        cached base graph's at version 0, the last label pass's after
        that.  With none it runs the label pass first, unless the
        deadline has passed: then it raises :class:`DeadlineExceeded`
        and never starts STA.
        """
        graph = base if session.version == 0 else session.labelled()
        if graph is None:
            remaining = request.remaining_s()
            if remaining is not None and remaining <= 0:
                raise DeadlineExceeded(
                    f"deadline passed with no ground-truth labels to "
                    f"degrade to (session at version {session.version})")
            graph = session.materialize()
        kind = entry.kind if entry is not None else "timing"
        return PredictResponse(
            request_id=request.request_id, design=request.design,
            model=entry.name if entry is not None else request.model,
            model_version=(entry.version if entry is not None
                           else "unavailable"),
            kind=kind, degraded=True, cache_hit=False, batch_size=0,
            latency_ms=0.0, graph_version=session.version,
            num_edits=num_edits,
            prediction=self._truth_payload(kind, graph,
                                           request.include_slack))

    def _execute_delta(self, entry, key, session, request):
        """Cone-limited forward for one delta request (session locked)."""
        with self._tracer.span("serve.delta_forward") as span:
            if entry.kind == "timing":
                state, stats = session.refresh(entry)
                self._delta_dirty.observe(stats["dirty_nodes"])
                span.set(full=stats["full"],
                         dirty_nodes=stats["dirty_nodes"])
                payload = _timing_payload(session.hetero, state.arrival,
                                          request.include_slack)
            else:
                net_delay = session.netdelay(entry)
                span.set(full=True,
                         dirty_nodes=session.hetero.num_nodes)
                payload = _netdelay_payload(session.hetero, net_delay)
        return payload, 1

    def _degraded_response(self, request, entry, graph, design_name):
        return PredictResponse(
            request_id=request.request_id, design=design_name,
            model=entry.name, model_version=entry.version,
            kind=entry.kind, degraded=True, cache_hit=False,
            batch_size=0, latency_ms=0.0,
            prediction=self._truth_payload(entry.kind, graph,
                                           request.include_slack))

    # -- introspection ----------------------------------------------------------
    def models(self):
        return self.registry.describe()

    def healthz(self):
        quality = self.quality.healthz()
        return {"status": "ok" if quality["ok"] else "degraded",
                "uptime_s": round(time.time() - self._started_at, 1),
                "slo": self.slo.summary(),
                "quality": quality}

    def stats(self):
        """JSON stats view — a projection of :attr:`metrics`, so it can
        never disagree with the Prometheus ``/metrics`` endpoint."""
        with self._lock:
            batchers = {name: b.stats()
                        for (name, _v), b in self._batchers.items()}
        latency = self._latency.snapshot()
        return {
            "counts": {key: int(counter.value)
                       for key, counter in self._counters.items()},
            "latency": {"count": latency["count"],
                        "p50_ms": round(latency["p50"], 3),
                        "p99_ms": round(latency["p99"], 3),
                        "mean_ms": round(latency["mean"], 3)},
            "graph_cache": self.graph_cache.stats(),
            "result_cache": self.result_cache.stats(),
            "batching": batchers,
            "batch_max": max((b["max_batch"] for b in batchers.values()),
                             default=0),
            "uptime_s": round(time.time() - self._started_at, 1),
            "slo": self.slo.summary(),
            "quality": self.quality.stats(),
        }

    def metrics_text(self):
        """Prometheus text exposition: this service's registry plus the
        process-wide default (flow/STA/training instrumentation)."""
        parts = [self.metrics.render_prometheus()]
        default = get_registry()
        if default is not self.metrics:
            parts.append(default.render_prometheus())
        return "".join(parts)

    def warm(self, models=(), designs=()):
        """Eagerly load models and extract design graphs (pre-traffic)."""
        for name in models:
            self.registry.get(name)
        for design in designs:
            self.resolve_graph(PredictRequest(design=design).validate())

    def close(self):
        self.quality.close()
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
