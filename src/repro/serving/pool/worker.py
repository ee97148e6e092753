"""Predictor worker: the process side of the pre-fork serving pool.

One :class:`PoolWorker` runs in each pool process.  It owns *no* model
weights and *no* graph arrays of its own — both are zero-copy read-only
views over shared-memory segments published by the parent
(:mod:`repro.parallel.shm`), so N workers cost one copy of the model
and one copy of every served design, regardless of N.

The worker's main loop is also its micro-batcher: it blocks on its
request queue, gives stragglers ``window_s`` to pile on (up to
``max_batch``), dedupes items that refer to the same graph, and runs
one disjoint-union forward per (model, batch).  Because the parent
router shards requests by graph key, concurrent requests for the same
design always land on the same worker and coalesce.

The loop is transport-agnostic on purpose: it only needs ``get(timeout)``
/ ``put`` queues, so tests drive it in-process with ``queue.Queue`` while
production uses ``multiprocessing`` queues via :func:`worker_main`.

Protocol (tuples; first element is the kind):

* parent -> worker: ``MSG_MODEL``, ``MSG_PREDICT``, ``MSG_DELTA``
  (incremental ECO prediction against a worker-private delta session),
  ``MSG_STOP``, ``MSG_CRASH`` (test hook: hard ``os._exit``);
* worker -> parent: ``R_READY``, ``R_OK``, ``R_ERR``, ``R_EXPIRED``,
  ``R_BATCH`` (per-forward batching stats), ``R_MODEL_ERR``.

Delta sessions are worker-local state (unlike models and graphs they
are mutable, so they cannot live in shared memory): because the router
shards by base graph key, every delta for one design lands on the same
worker and its session stays consistent.  The parent applies each edit
stream to its own session first and sends the post-apply version; a
worker whose session cannot reach that version (fresh fork after a
crash, evicted state) answers ``R_ERR`` and the parent falls back to
its in-process session — correctness never depends on worker state.

Protocol extensions are append-only: ``MSG_PREDICT`` may carry an
optional 8th element ``(trace_id, parent_span_id, sent_ts)`` and
``R_OK`` grows an optional 5th element (the worker-side span records
for that request) — old peers that index only the original slots keep
working.

The worker also owns a private :class:`~repro.obs.MetricsRegistry`
(``repro_worker_*`` instruments, names deliberately disjoint from the
parent's ``repro_pool_*``/``repro_serving_*`` families) and, when given
a ``stats_q``, periodically publishes ``export_state()`` snapshots that
the parent's :class:`~repro.obs.fleet.FleetAggregator` merges under a
``worker`` label.
"""

from __future__ import annotations

import os
import queue
import time

from ...graphdata.hetero import HeteroGraph
from ...obs.metrics import MetricsRegistry
from ...obs.quality import QualityMonitor
from ...obs.tracing import make_span_record
from ...parallel.shm import attach

__all__ = ["PoolWorker", "worker_main",
           "MSG_MODEL", "MSG_PREDICT", "MSG_DELTA", "MSG_STOP",
           "MSG_CRASH",
           "R_READY", "R_OK", "R_ERR", "R_EXPIRED", "R_BATCH",
           "R_MODEL_ERR"]

MSG_MODEL = "model"
MSG_PREDICT = "predict"
MSG_DELTA = "delta"
MSG_STOP = "stop"
MSG_CRASH = "crash"

R_READY = "ready"
R_OK = "ok"
R_ERR = "err"
R_EXPIRED = "expired"
R_BATCH = "batch"
R_MODEL_ERR = "model_err"

# Model classes a worker can rebuild from a pickled spec.  Anything else
# is "not poolable" and the parent serves it in-process instead.
POOLABLE_CLASSES = ("TimingGNN", "NetEmbedding")


def build_model_from_spec(spec):
    """Instantiate the model skeleton a published spec describes."""
    cls = spec.get("cls")
    cfg = spec.get("config")
    if cls == "TimingGNN":
        from ...models import TimingGNN
        return TimingGNN(cfg)
    if cls == "NetEmbedding":
        from ...models import NetEmbedding
        return NetEmbedding(cfg)
    raise ValueError(f"unknown poolable model class {cls!r}")


class _SessionEntry:
    """Registry-entry shim so DeltaSession can key its forward states."""

    __slots__ = ("name", "version", "model", "kind")

    def __init__(self, name, record):
        self.name = name
        self.version = record["version"]
        self.model = record["model"]
        self.kind = record["kind"]


class PoolWorker:
    """Attach shared state, batch requests, answer with payloads."""

    def __init__(self, worker_id, request_q, response_q, heartbeat=None,
                 window_s=0.002, max_batch=16, poll_s=0.1, stats_q=None,
                 stats_interval_s=0.25):
        self.worker_id = int(worker_id)
        self.request_q = request_q
        self.response_q = response_q
        self.heartbeat = heartbeat
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self.poll_s = float(poll_s)
        self.stats_q = stats_q
        self.stats_interval_s = float(stats_interval_s)
        self._last_publish = 0.0
        self._models = {}      # name -> {model, kind, version, attachment}
        self._graphs = {}      # key -> (segment_name, graph, attachment)
        self._sessions = {}    # graph key -> DeltaSession (worker-local)
        self._stopping = False
        self.metrics = MetricsRegistry()
        self._h_request = self.metrics.histogram(
            "repro_worker_request_ms",
            "Worker-side request latency (queue wait through reply).")
        self._h_forward = self.metrics.histogram(
            "repro_worker_forward_ms",
            "Model forward wall time per batch.")
        self._h_batch = self.metrics.histogram(
            "repro_worker_batch_size",
            "Live items per executed (model, batch).")
        self._c_cache_hits = self.metrics.counter(
            "repro_worker_cache_hits_total",
            "Graph attachments served from the worker cache.",
            cache="graph")
        self._c_cache_misses = self.metrics.counter(
            "repro_worker_cache_misses_total",
            "Graph attachments that required a fresh shm attach.",
            cache="graph")
        self._g_graphs = self.metrics.gauge(
            "repro_worker_graphs", "Graphs attached in this worker.")
        self._g_models = self.metrics.gauge(
            "repro_worker_models", "Models attached in this worker.")
        self._g_sessions = self.metrics.gauge(
            "repro_worker_delta_sessions",
            "Live delta (ECO edit) sessions in this worker.")
        # Worker-side shadow-STA auditor: same sampler as the parent's,
        # but its families are repro_worker_quality_* so the snapshots
        # merge through the fleet aggregator without name collisions.
        self.quality = QualityMonitor(registry=self.metrics,
                                      prefix="repro_worker_quality_")

    # -- plumbing ---------------------------------------------------------------
    def _beat(self):
        if self.heartbeat is not None:
            try:
                self.heartbeat[self.worker_id] = time.time()
            except (IndexError, OSError):
                pass

    def _respond(self, message):
        try:
            self.response_q.put(message)
        except (OSError, ValueError):
            # Parent gone / queue closed: nothing left to serve.
            self._stopping = True

    def _count_request(self, outcome):
        self.metrics.counter(
            "repro_worker_requests_total",
            "Requests answered by this worker, by outcome.",
            outcome=outcome).inc()

    def publish_stats(self, force=False):
        """Ship a registry snapshot to the parent's stats queue.

        Rate-limited to one snapshot per ``stats_interval_s`` unless
        ``force`` (shutdown uses force so the final counter totals are
        never lost — see the merged-totals test in tests/test_pool.py).
        """
        if self.stats_q is None:
            return False
        now = time.time()
        if not force and now - self._last_publish < self.stats_interval_s:
            return False
        self._last_publish = now
        try:
            self.stats_q.put((self.worker_id, os.getpid(), now,
                              self.metrics.export_state()))
        except (OSError, ValueError, queue.Full):
            return False
        return True

    # -- the loop ---------------------------------------------------------------
    def serve(self):
        """Run until a stop message arrives (or the parent disappears)."""
        self._respond((R_READY, self.worker_id, os.getpid()))
        try:
            while not self._stopping:
                batch = self._take_batch()
                if batch:
                    self._execute(batch)
        finally:
            self.shutdown()

    def _take_batch(self):
        """One blocking item, then up to ``window_s`` of stragglers.

        Returns ``(message, recv_ts)`` pairs — the receive timestamp
        anchors the queue-wait span and the worker-side latency
        histogram for each item.
        """
        first = None
        while first is None and not self._stopping:
            self._beat()
            self.publish_stats()
            try:
                message = self.request_q.get(timeout=self.poll_s)
            except queue.Empty:
                continue
            except (OSError, EOFError):
                self._stopping = True
                return []
            first = self._handle_control(message)
        if first is None:
            return []
        batch = [(first, time.time())]
        deadline = time.monotonic() + self.window_s
        while len(batch) < self.max_batch and not self._stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                message = self.request_q.get(timeout=remaining)
            except queue.Empty:
                break
            except (OSError, EOFError):
                self._stopping = True
                break
            item = self._handle_control(message)
            if item is not None:
                batch.append((item, time.time()))
        return batch

    def _handle_control(self, message):
        """Process control messages inline; return predict items as-is."""
        kind = message[0]
        if kind in (MSG_PREDICT, MSG_DELTA):
            return message
        if kind == MSG_MODEL:
            self._attach_model(*message[1:])
        elif kind == MSG_STOP:
            self._stopping = True
        elif kind == MSG_CRASH:
            os._exit(13)   # crash-injection test hook: die without cleanup
        return None

    # -- shared-state attachment ------------------------------------------------
    def _attach_model(self, name, version, segment, spec):
        try:
            attachment = attach(segment)
            model = build_model_from_spec(spec)
            params = dict(model.named_parameters())
            if set(params) != set(attachment.arrays):
                raise ValueError(
                    f"model {name!r}: parameter names of the published "
                    f"state do not match the rebuilt skeleton")
            for pname, view in attachment.arrays.items():
                if params[pname].data.shape != view.shape:
                    raise ValueError(f"model {name!r}: shape mismatch "
                                     f"for parameter {pname!r}")
                params[pname].data = view   # zero-copy shared weights
            model.eval()
        except Exception as exc:   # noqa: BLE001 — reported to the parent
            self._respond((R_MODEL_ERR, name,
                           f"{type(exc).__name__}: {exc}"))
            return
        old = self._models.pop(name, None)
        if old is not None:
            old["attachment"].close()
        self._models[name] = {"model": model, "kind": spec["kind"],
                              "version": version,
                              "attachment": attachment}
        self._g_models.set(len(self._models))

    def _graph(self, key, segment):
        cached = self._graphs.get(key)
        if cached is not None:
            if cached[0] == segment:
                self._c_cache_hits.inc()
                return cached[1]
            cached[2].close()   # key re-published under a new segment
        self._c_cache_misses.inc()
        attachment = attach(segment)
        meta = attachment.meta
        graph = HeteroGraph(name=meta["name"], split=meta["split"],
                            clock_period=meta["clock_period"],
                            **attachment.arrays)
        graph.build_levels()
        self._graphs[key] = (segment, graph, attachment)
        self._g_graphs.set(len(self._graphs))
        return graph

    # -- execution --------------------------------------------------------------
    def _execute(self, batch):
        self._beat()
        by_model = {}
        for message, recv_ts in batch:
            if message[0] == MSG_DELTA:
                # Delta requests never coalesce: each one mutates its
                # session, so they run individually in arrival order.
                self._execute_delta(message, recv_ts)
                continue
            by_model.setdefault(message[2], []).append((message, recv_ts))
        for model_name, items in by_model.items():
            self._execute_model(model_name, items)
        self.publish_stats()

    def _item_spans(self, message, recv_ts, exec_ts, attach_ms,
                    forward_ms, batch_size, end_ts):
        """Synthesize the worker-side span tree for one request.

        The batch phases (queue wait, batch window, shm attach, model
        forward) overlap between items of one batch, so they cannot be
        expressed as nested ``with tracer.span()`` blocks — instead each
        item gets hand-built records parented under the router's
        ``pool.submit`` span via the trace context the message carried.
        Returns [] for messages without a trace context (old peers,
        tracing disabled).
        """
        ctx = message[7] if len(message) > 7 else None
        if not ctx:
            return []
        trace_id, parent_span_id, sent_ts = ctx
        sent_ts = float(sent_ts if sent_ts is not None else recv_ts)
        root = make_span_record(
            "worker.predict", trace_id, parent_span_id, sent_ts,
            (end_ts - sent_ts) * 1000.0, worker=self.worker_id,
            model=message[2], graph=message[3], batch_size=batch_size)
        spans = [root]
        phases = [("worker.queue_wait", sent_ts, recv_ts - sent_ts),
                  ("worker.batch_window", recv_ts, exec_ts - recv_ts),
                  ("worker.shm_attach", exec_ts, attach_ms / 1000.0),
                  ("worker.forward", exec_ts + attach_ms / 1000.0,
                   forward_ms / 1000.0)]
        for phase, start, seconds in phases:
            if phase == "worker.shm_attach" and attach_ms <= 0.0:
                continue
            spans.append(make_span_record(
                phase, trace_id, root["span_id"], start,
                seconds * 1000.0, worker=self.worker_id))
        return spans

    def _execute_model(self, name, items):
        # (MSG_PREDICT, req_id, model, key, segment, include_slack,
        #  deadline_ts[, trace_ctx]) — deadline_ts is absolute
        #  time.time() seconds; trace_ctx, when present, is
        #  (trace_id, parent_span_id, sent_ts).
        now = time.time()
        live = []
        for message, recv_ts in items:
            deadline = message[6]
            if deadline is not None and now > deadline:
                self._count_request("expired")
                self._respond((R_EXPIRED, message[1]))
            else:
                live.append((message, recv_ts))
        if not live:
            return
        record = self._models.get(name)
        if record is None:
            for message, _recv_ts in live:
                self._count_request("error")
                self._respond((R_ERR, message[1],
                               f"model {name!r} not published to worker"))
            return
        exec_ts = time.time()
        try:
            graphs, position = [], {}
            t0 = time.perf_counter()
            for message, _recv_ts in live:
                key, segment = message[3], message[4]
                if key not in position:
                    position[key] = len(graphs)
                    graphs.append(self._graph(key, segment))
            attach_ms = (time.perf_counter() - t0) * 1000.0
            t0 = time.perf_counter()
            outputs = record["model"].predict_batch(graphs)
            forward_ms = (time.perf_counter() - t0) * 1000.0
        except Exception as exc:   # noqa: BLE001 — per-item error report
            for message, _recv_ts in live:
                self._count_request("error")
                self._respond((R_ERR, message[1],
                               f"{type(exc).__name__}: {exc}"))
            return
        self._h_forward.observe(forward_ms)
        self._h_batch.observe(len(live))
        self._respond((R_BATCH, self.worker_id, len(live), len(graphs),
                       name))
        for message, recv_ts in live:
            graph = graphs[position[message[3]]]
            payload = self._payload(record["kind"], graph,
                                    outputs[position[message[3]]],
                                    bool(message[5]))
            end_ts = time.time()
            self._count_request("ok")
            self._h_request.observe((end_ts - recv_ts) * 1000.0)
            spans = self._item_spans(message, recv_ts, exec_ts,
                                     attach_ms, forward_ms, len(live),
                                     end_ts)
            self._respond((R_OK, message[1], payload, len(live), spans))
            # Audit after responding: the sampler only copies the
            # arrival array here; scoring runs on its own thread.
            if record["kind"] == "timing":
                self.quality.maybe_audit(
                    graph, outputs[position[message[3]]]["arrival"],
                    model=name, request_id=message[1])

    @staticmethod
    def _payload(kind, graph, output, include_slack):
        from ..service import _netdelay_payload, _timing_payload
        if kind == "timing":
            return _timing_payload(graph, output["arrival"], include_slack)
        return _netdelay_payload(graph, output["net_delay"])

    # -- delta (incremental) execution -------------------------------------------
    def _delta_session(self, key, spec, n_edits):
        """The session for ``key``, iff it can reach ``spec['version']``.

        A fresh session starts at version 0, so it is only usable when
        the parent's target version equals the edit count of this very
        request (i.e. the session's whole history is in flight).  A
        cached session out of sync with the parent (restarted worker,
        a previous failed request) is dropped and the request errors —
        the parent answers from its own session instead.
        """
        from ..delta import DeltaSession
        session = self._sessions.get(key)
        if session is not None and \
                session.version + n_edits == spec["version"]:
            return session
        if session is not None:
            self._sessions.pop(key, None)
            self._g_sessions.set(len(self._sessions))
        if spec["version"] != n_edits:
            have = session.version if session is not None else "none"
            raise ValueError(
                f"delta session for graph {key!r} is out of sync "
                f"(worker at version {have}, parent at "
                f"{spec['version']})")
        session = DeltaSession(spec["design"], spec["seed"],
                               spec["scale"], key, spec["clock_period"])
        self._sessions[key] = session
        self._g_sessions.set(len(self._sessions))
        return session

    def _execute_delta(self, message, recv_ts):
        # (MSG_DELTA, req_id, model, key, spec, edits, include_slack,
        #  deadline_ts[, trace_ctx]) — spec is {design, seed, scale,
        #  version, clock_period}: the session identity, the parent's
        #  post-apply version this worker's session must land on, and
        #  the base graph's clock period a new session is built at.
        from ..service import _netdelay_payload, _timing_payload
        (_kind, req_id, model_name, key, spec, edits, include_slack,
         deadline) = message[:8]
        if deadline is not None and time.time() > deadline:
            self._count_request("expired")
            self._respond((R_EXPIRED, req_id))
            return
        record = self._models.get(model_name)
        if record is None:
            self._count_request("error")
            self._respond((R_ERR, req_id,
                           f"model {model_name!r} not published to "
                           f"worker"))
            return
        try:
            t0 = time.perf_counter()
            session = self._delta_session(key, spec, len(edits))
            attach_ms = (time.perf_counter() - t0) * 1000.0
            entry = _SessionEntry(model_name, record)
            t0 = time.perf_counter()
            with session.lock:
                if edits:
                    session.apply(edits)
                if record["kind"] == "timing":
                    state, stats = session.refresh(entry)
                    dirty = stats["dirty_nodes"]
                    payload = _timing_payload(session.hetero,
                                              state.arrival,
                                              bool(include_slack))
                else:
                    dirty = session.hetero.num_nodes
                    payload = _netdelay_payload(session.hetero,
                                                session.netdelay(entry))
            forward_ms = (time.perf_counter() - t0) * 1000.0
        except Exception as exc:   # noqa: BLE001 — reported to the parent
            self._count_request("error")
            self._respond((R_ERR, req_id,
                           f"{type(exc).__name__}: {exc}"))
            return
        end_ts = time.time()
        self._h_forward.observe(forward_ms)
        self._count_request("ok")
        self._h_request.observe((end_ts - recv_ts) * 1000.0)
        spans = []
        ctx = message[8] if len(message) > 8 else None
        if ctx:
            trace_id, parent_span_id, sent_ts = ctx
            sent_ts = float(sent_ts if sent_ts is not None else recv_ts)
            root = make_span_record(
                "worker.predict_delta", trace_id, parent_span_id,
                sent_ts, (end_ts - sent_ts) * 1000.0,
                worker=self.worker_id, model=model_name, graph=key,
                edits=len(edits), dirty_nodes=int(dirty))
            spans = [root, make_span_record(
                "worker.delta_forward", trace_id, root["span_id"],
                end_ts - forward_ms / 1000.0, forward_ms,
                worker=self.worker_id)]
            if attach_ms > 0.5:   # session rebuild, not a cache lookup
                spans.append(make_span_record(
                    "worker.session_build", trace_id, root["span_id"],
                    end_ts - (attach_ms + forward_ms) / 1000.0,
                    attach_ms, worker=self.worker_id))
        self._respond((R_OK, req_id, payload, 1, spans))

    # -- lifecycle --------------------------------------------------------------
    def shutdown(self):
        """Release every shared-memory attachment (no unlinks)."""
        # Drain in-flight audits first so the forced final snapshot
        # below carries the complete audit counters (fleet merge is
        # asserted lossless post-shutdown in tests/test_quality.py).
        self.quality.close()
        for record in self._models.values():
            record["attachment"].close()
        self._models.clear()
        for _segment, _graph, attachment in self._graphs.values():
            attachment.close()
        self._graphs.clear()
        self._sessions.clear()   # private arrays, nothing shm-backed
        self._g_models.set(0)
        self._g_graphs.set(0)
        self._g_sessions.set(0)
        self.publish_stats(force=True)


def worker_main(worker_id, request_q, response_q, heartbeat, options,
                stats_q=None):
    """Process entry point (must stay module-level for spawn pickling)."""
    import signal

    # The parent coordinates shutdown: a stray terminal Ctrl-C must not
    # kill workers before the router has drained them.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    options = dict(options or {})
    backend = options.get("kernels")
    if backend:
        from ...nn.kernels import set_default_backend
        set_default_backend(backend)
    worker = PoolWorker(worker_id, request_q, response_q,
                        heartbeat=heartbeat,
                        window_s=options.get("window_s", 0.002),
                        max_batch=options.get("max_batch", 16),
                        poll_s=options.get("poll_s", 0.1),
                        stats_q=stats_q,
                        stats_interval_s=options.get("stats_interval_s",
                                                     0.25))
    worker.serve()
