"""Front-end router of the pre-fork serving pool.

:class:`PoolRouter` is the parent-process half of ``repro.serving.pool``:
it owns the worker processes, the shared-memory arena their model and
graph state lives in, and the dispatch/response plumbing in between.

Responsibilities, in dispatch order:

* **publication** — :meth:`ensure_model` / :meth:`ensure_graph` copy a
  model's parameters or a design's :class:`HeteroGraph` arrays into the
  :class:`~repro.parallel.shm.ShmArena` exactly once; workers attach
  zero-copy.  Graph segments sit in a bounded LRU so long-running
  servers don't accumulate unbounded ``/dev/shm``;
* **admission control** — each worker shard has a bounded pending
  window; past the ``watermark`` the router sheds with
  :class:`~repro.serving.service.Overloaded` (HTTP 503) instead of
  queueing unboundedly;
* **sharding** — requests hash by graph key to a fixed worker, so
  concurrent requests for one design coalesce in that worker's
  micro-batch and its graph attachment is reused;
* **deadlines** — propagated as absolute wall-clock timestamps; the
  worker drops expired items, the parent also times out its ticket and
  degrades (both surface as :class:`~repro.serving.batching.BatchTimeout`);
* **health** — a monitor thread watches ``Process.is_alive`` plus a
  shared heartbeat array; a dead worker is restarted, its model
  publications replayed, and its in-flight tickets re-dispatched (at
  most ``retries`` extra attempts each, mirroring
  :class:`~repro.parallel.ParallelExecutor`'s crash discipline).
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import OrderedDict

from ...graphdata.hetero import HeteroGraph
from ...obs import get_logger
from ...obs.fleet import FleetAggregator, merge_sketches, sketch_quantile
from ...obs.tracing import get_tracer
from ...parallel import ShmArena, pick_start_method
from ..batching import BatchTimeout
from ..service import Overloaded
from .worker import (MSG_CRASH, MSG_DELTA, MSG_MODEL, MSG_PREDICT,
                     MSG_STOP, POOLABLE_CLASSES, R_BATCH, R_ERR,
                     R_EXPIRED, R_MODEL_ERR, R_OK, R_READY, worker_main)

__all__ = ["PoolRouter", "PoolError", "NotPoolable", "PoolCrashError"]

_log = get_logger("repro.pool")


class PoolError(RuntimeError):
    """The pool could not answer this request (non-request fault)."""


class NotPoolable(PoolError):
    """This model cannot run in pool workers (serve it in-process)."""


class PoolCrashError(PoolError):
    """A request's worker crashed more times than the retry budget."""


class _Ticket:
    """Parent-side state of one in-flight pooled request."""

    __slots__ = ("req_id", "worker_id", "message", "attempts", "event",
                 "payload", "batch_size", "error", "crashed", "expired",
                 "spans")

    def __init__(self, req_id, worker_id, message):
        self.req_id = req_id
        self.worker_id = worker_id
        self.message = message
        self.attempts = 1
        self.event = threading.Event()
        self.payload = None
        self.batch_size = 0
        self.error = None
        self.crashed = False
        self.expired = False
        self.spans = []


class _WorkerHandle:
    """One worker slot: the live process plus its cumulative stats."""

    __slots__ = ("worker_id", "process", "request_q", "ready", "pid",
                 "restarts", "completed", "batches", "batched_items",
                 "batch_max")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.process = None
        self.request_q = None
        self.ready = threading.Event()
        self.pid = None
        self.restarts = 0
        self.completed = 0
        self.batches = 0
        self.batched_items = 0
        self.batch_max = 0

    def stats(self):
        mean = (self.batched_items / self.batches) if self.batches else 0.0
        return {"worker": self.worker_id, "pid": self.pid,
                "alive": bool(self.process and self.process.is_alive()),
                "restarts": self.restarts, "completed": self.completed,
                "batches": self.batches, "batched_items": self.batched_items,
                "batch_max": self.batch_max, "mean_batch": round(mean, 3)}


class PoolRouter:
    """Dispatch predictions onto a pre-forked pool of worker processes."""

    def __init__(self, workers=2, window_s=0.002, max_batch=16,
                 watermark=32, retries=1, graph_slots=64,
                 health_interval_s=0.2, heartbeat_timeout_s=None,
                 kernels=None, metrics=None, start_timeout_s=60.0,
                 stats_interval_s=0.25):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = int(workers)
        self.watermark = int(watermark)
        self.retries = int(retries)
        self.graph_slots = int(graph_slots)
        self._health_interval = float(health_interval_s)
        self._heartbeat_timeout = heartbeat_timeout_s
        self._start_timeout = float(start_timeout_s)
        self._options = {"window_s": float(window_s),
                         "max_batch": int(max_batch),
                         "kernels": kernels,
                         "stats_interval_s": float(stats_interval_s)}
        self.fleet = FleetAggregator(
            max_age_s=max(20.0 * float(stats_interval_s), 5.0))
        self.arena = ShmArena()
        self._lock = threading.Lock()
        self._handles = []
        self._tickets = {}            # req_id -> _Ticket
        self._pending = [0] * self.workers
        self._models = OrderedDict()  # name -> (version, segment, spec)
        self._graphs = OrderedDict()  # graph key -> segment (LRU)
        self._seq = itertools.count(1)
        self._closing = threading.Event()
        self._stopped = threading.Event()   # receiver runs through drain
        self._restart_count = 0
        self._shed_count = 0
        self._started = False

        import multiprocessing
        self._ctx = multiprocessing.get_context(pick_start_method())

        if metrics is not None:
            self._g_busy = metrics.gauge(
                "repro_pool_busy_workers",
                "Pool workers with at least one in-flight request.")
            self._g_depth = metrics.gauge(
                "repro_pool_queue_depth",
                "In-flight pooled requests across all worker shards.")
            self._g_shm = metrics.gauge(
                "repro_pool_shm_bytes",
                "Bytes of shared-memory segments the pool has published.")
            self._c_restarts = metrics.counter(
                "repro_pool_restarts_total",
                "Worker processes restarted after a crash or hang.")
            self._h_batch = metrics.histogram(
                "repro_pool_batch_size",
                "Items per pooled model forward.",
                quantiles=(0.5, 0.9, 0.99))
            self._c_requests = metrics.counter(
                "repro_pool_requests_total",
                "Requests dispatched to pool workers (admitted requests "
                "plus crash re-dispatches).")
        else:
            self._g_busy = self._g_depth = self._g_shm = None
            self._c_restarts = self._h_batch = self._c_requests = None

    # -- lifecycle --------------------------------------------------------------
    def start(self):
        """Fork the workers and wait until every one reports ready."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._response_q = self._ctx.Queue()
            self._stats_q = self._ctx.Queue()
            self._heartbeat = self._ctx.Array("d", self.workers, lock=False)
            self._handles = [_WorkerHandle(i) for i in range(self.workers)]
            for handle in self._handles:
                self._spawn(handle)
        self._receiver = threading.Thread(target=self._receive_loop,
                                          name="pool-recv", daemon=True)
        self._receiver.start()
        self._monitor = threading.Thread(target=self._health_loop,
                                         name="pool-health", daemon=True)
        self._monitor.start()
        self._stats_thread = threading.Thread(target=self._stats_loop,
                                              name="pool-stats", daemon=True)
        self._stats_thread.start()
        deadline = time.monotonic() + self._start_timeout
        for handle in self._handles:
            if not handle.ready.wait(max(0.0, deadline - time.monotonic())):
                self.close(drain_s=0.0)
                raise PoolError(f"worker {handle.worker_id} failed to "
                                f"start within {self._start_timeout:g}s")
        return self

    def _spawn(self, handle):
        """(Re)create the process behind a handle. Caller holds the lock."""
        handle.request_q = self._ctx.Queue()
        handle.ready.clear()
        handle.process = self._ctx.Process(
            target=worker_main, name=f"pool-worker-{handle.worker_id}",
            args=(handle.worker_id, handle.request_q, self._response_q,
                  self._heartbeat, self._options, self._stats_q),
            daemon=True)
        self._heartbeat[handle.worker_id] = time.time()
        handle.process.start()
        # Replay every published model so the fresh worker can serve the
        # same catalogue its predecessor could.
        for name, (version, segment, spec) in self._models.items():
            handle.request_q.put((MSG_MODEL, name, version, segment, spec))

    def close(self, drain_s=5.0):
        """Drain in-flight requests, stop workers, release all shm.

        Pool gauges are explicitly zeroed on every close path: a
        ``/metrics`` scrape taken after shutdown must not report phantom
        busy workers or queue depth (the registry outlives the pool).
        """
        if not self._started or self._closing.is_set():
            self.arena.close_all()
            self._zero_gauges()
            return
        self._closing.set()
        deadline = time.monotonic() + max(0.0, drain_s)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._tickets:
                    break
            time.sleep(0.02)
        with self._lock:
            leftovers = list(self._tickets.values())
            self._tickets.clear()
            self._pending = [0] * self.workers
            handles = list(self._handles)
        for ticket in leftovers:
            ticket.error = "pool shutting down"
            ticket.event.set()
        for handle in handles:
            try:
                handle.request_q.put((MSG_STOP,))
            except (OSError, ValueError):
                pass
        for handle in handles:
            if handle.process is None:
                continue
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.request_q.close()
                handle.request_q.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self._stopped.set()
        for thread in (getattr(self, "_receiver", None),
                       getattr(self, "_monitor", None),
                       getattr(self, "_stats_thread", None)):
            if thread is not None:
                thread.join(timeout=2.0)
        for q in (self._response_q, getattr(self, "_stats_q", None)):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self.arena.close_all()
        self._zero_gauges()

    # -- publication ------------------------------------------------------------
    def ensure_model(self, entry):
        """Publish a registry entry's weights to the arena + all workers.

        Idempotent per (name, version).  Raises :class:`NotPoolable` for
        models the workers cannot rebuild from a spec — the caller
        should serve those in-process.
        """
        cls = type(entry.model).__name__
        if cls not in POOLABLE_CLASSES or \
                not hasattr(entry.model, "named_parameters") or \
                not hasattr(entry.model, "cfg"):
            raise NotPoolable(f"model {entry.name!r} ({cls}) cannot run "
                              f"in pool workers")
        with self._lock:
            known = self._models.get(entry.name)
            if known is not None and known[0] == entry.version:
                return known[1]
            arrays = {name: param.data
                      for name, param in entry.model.named_parameters()}
            spec = {"kind": entry.kind, "cls": cls,
                    "config": entry.model.cfg}
            segment = self.arena.publish(
                f"model:{entry.name}:{entry.version}", arrays,
                meta={"model": entry.name, "version": entry.version})
            self._models[entry.name] = (entry.version, segment, spec)
            for handle in self._handles:
                try:
                    handle.request_q.put((MSG_MODEL, entry.name,
                                          entry.version, segment, spec))
                except (OSError, ValueError):
                    pass
        self._update_gauges()
        return segment

    def ensure_graph(self, key, graph):
        """Publish one design's arrays (LRU-bounded); return the segment."""
        with self._lock:
            segment = self._graphs.get(key)
            if segment is not None:
                self._graphs.move_to_end(key)
                return segment
            arrays = {name: getattr(graph, name)
                      for name in HeteroGraph._ARRAY_FIELDS}
            meta = {"name": graph.name, "split": graph.split,
                    "clock_period": float(graph.clock_period)}
            segment = self.arena.publish(f"graph:{key}", arrays, meta=meta)
            self._graphs[key] = segment
            evicted = []
            while len(self._graphs) > self.graph_slots:
                old_key, _old_segment = self._graphs.popitem(last=False)
                evicted.append(old_key)
        for old_key in evicted:
            self.arena.unpublish(f"graph:{old_key}")
        self._update_gauges()
        return segment

    # -- dispatch ---------------------------------------------------------------
    def shard(self, key):
        return zlib.crc32(str(key).encode()) % self.workers

    def submit(self, model_name, key, segment, include_slack=False,
               timeout=None):
        """Run one prediction on the pool; returns (payload, batch_size).

        Raises :class:`Overloaded` when the target shard is past the
        admission watermark, :class:`BatchTimeout` when the deadline
        expires first, :class:`PoolError` for worker-side faults.
        """
        if self._closing.is_set():
            raise PoolError("pool is shut down")
        worker_id = self.shard(key)
        deadline_ts = time.time() + timeout if timeout is not None else None
        tracer = get_tracer()
        with tracer.span("pool.submit", worker=worker_id,
                         model=model_name, graph=str(key)) as sp:
            # Distributed trace context: the worker parents its span
            # records under this pool.submit span, so the stitched
            # timeline reads queue wait -> attach -> forward end to end.
            ctx = self._trace_ctx(sp)
            ticket, handle = self._admit(
                worker_id, lambda req_id: (
                    MSG_PREDICT, req_id, model_name, key, segment,
                    bool(include_slack), deadline_ts, ctx))
            return self._await(ticket, handle, timeout, tracer, sp)

    def submit_delta(self, model_name, key, spec, edits,
                     include_slack=False, timeout=None):
        """Run one incremental (delta) prediction on ``key``'s shard.

        Delta sessions are worker-local mutable state; sharding by base
        graph key pins every edit stream for one design to the worker
        that holds its session.  ``spec`` is ``{design, seed, scale,
        version, clock_period}`` — the session identity, the parent's
        post-apply version the worker must land on (see ``PoolWorker``)
        and the base graph's clock period; a worker
        that cannot reach it raises :class:`PoolError` here and the
        caller answers from its in-process session.
        """
        if self._closing.is_set():
            raise PoolError("pool is shut down")
        worker_id = self.shard(key)
        deadline_ts = time.time() + timeout if timeout is not None else None
        tracer = get_tracer()
        with tracer.span("pool.submit_delta", worker=worker_id,
                         model=model_name, graph=str(key),
                         edits=len(edits)) as sp:
            ctx = self._trace_ctx(sp)
            ticket, handle = self._admit(
                worker_id, lambda req_id: (
                    MSG_DELTA, req_id, model_name, key, dict(spec),
                    list(edits), bool(include_slack), deadline_ts, ctx))
            return self._await(ticket, handle, timeout, tracer, sp)

    @staticmethod
    def _trace_ctx(sp):
        trace_id = getattr(sp, "trace_id", None)
        return ((trace_id, getattr(sp, "span_id", None), time.time())
                if trace_id else None)

    def _admit(self, worker_id, build_message):
        """Admission control + ticket registration for one request."""
        with self._lock:
            if self._pending[worker_id] >= self.watermark:
                self._shed_count += 1
                raise Overloaded(
                    f"worker shard {worker_id} is over its admission "
                    f"watermark ({self.watermark} in flight)")
            req_id = next(self._seq)
            ticket = _Ticket(req_id, worker_id, build_message(req_id))
            self._tickets[req_id] = ticket
            self._pending[worker_id] += 1
            handle = self._handles[worker_id]
        return ticket, handle

    def _await(self, ticket, handle, timeout, tracer, sp):
        """Dispatch a registered ticket and wait for its resolution."""
        self._update_gauges()
        try:
            handle.request_q.put(ticket.message)
        except (OSError, ValueError) as exc:
            self._forget(ticket)
            raise PoolError(
                f"worker {ticket.worker_id} queue unavailable: {exc}")
        if self._c_requests is not None:
            self._c_requests.inc()
        if not ticket.event.wait(timeout):
            self._forget(ticket)
            raise BatchTimeout(
                f"pooled request {ticket.req_id} missed its deadline")
        if ticket.expired:
            raise BatchTimeout(
                f"pooled request {ticket.req_id} expired in worker "
                f"{ticket.worker_id}")
        if ticket.error is not None:
            if ticket.crashed:
                raise PoolCrashError(ticket.error)
            raise PoolError(ticket.error)
        if ticket.spans:
            tracer.ingest(ticket.spans)
        sp.set(batch_size=ticket.batch_size)
        return ticket.payload, ticket.batch_size

    def _forget(self, ticket):
        """Drop a ticket the caller stopped waiting for."""
        with self._lock:
            if self._tickets.pop(ticket.req_id, None) is not None:
                self._pending[ticket.worker_id] -= 1
        self._update_gauges()

    def inject_crash(self, worker_id):
        """Test hook: make one worker die mid-service (``os._exit``)."""
        self._handles[worker_id].request_q.put((MSG_CRASH,))

    # -- response plumbing ------------------------------------------------------
    def _receive_loop(self):
        import queue as _queue
        while not self._stopped.is_set():
            try:
                message = self._response_q.get(timeout=0.2)
            except _queue.Empty:
                continue
            except (OSError, EOFError, ValueError):
                return
            self._handle_response(message)

    def _handle_response(self, message):
        kind = message[0]
        if kind == R_OK:
            # Optional 5th element: worker-side span records (older
            # workers answer with the 4-tuple form).
            req_id, payload, batch_size = message[1:4]
            spans = message[4] if len(message) > 4 else []
            self._resolve(req_id, payload=payload, batch_size=batch_size,
                          spans=spans)
        elif kind == R_ERR:
            self._resolve(message[1], error=message[2])
        elif kind == R_EXPIRED:
            self._resolve(message[1], expired=True)
        elif kind == R_BATCH:
            _kind, worker_id, n_items, _n_graphs, _model = message
            with self._lock:
                handle = self._handles[worker_id]
                handle.batches += 1
                handle.batched_items += n_items
                handle.batch_max = max(handle.batch_max, n_items)
            if self._h_batch is not None:
                self._h_batch.observe(n_items)
        elif kind == R_READY:
            _kind, worker_id, pid = message
            with self._lock:
                handle = self._handles[worker_id]
                handle.pid = pid
            handle.ready.set()
        elif kind == R_MODEL_ERR:
            _log.warning("worker rejected model publication",
                         model=message[1], error=message[2])

    def _resolve(self, req_id, payload=None, batch_size=0, error=None,
                 expired=False, crashed=False, spans=None):
        with self._lock:
            ticket = self._tickets.pop(req_id, None)
            if ticket is None:
                return            # caller timed out and forgot the ticket
            self._pending[ticket.worker_id] -= 1
            if payload is not None:
                self._handles[ticket.worker_id].completed += 1
        ticket.payload = payload
        ticket.batch_size = batch_size
        ticket.error = error
        ticket.expired = expired
        ticket.crashed = crashed
        ticket.spans = list(spans or ())
        ticket.event.set()
        self._update_gauges()

    def _stats_loop(self):
        """Merge worker registry snapshots into the fleet aggregator.

        Runs through drain: ``_stopped`` is set only after the workers
        are joined, and each worker force-publishes a final snapshot on
        shutdown, so the loop does one last non-blocking sweep before
        exiting — post-close fleet totals include every request the
        workers ever answered.
        """
        import queue as _queue
        while True:
            try:
                item = self._stats_q.get(timeout=0.2)
            except _queue.Empty:
                if self._stopped.is_set():
                    break
                self.fleet.expire()
                continue
            except (OSError, EOFError, ValueError):
                return
            self._ingest_stats(item)
        time.sleep(0.05)           # let in-flight feeder writes land
        while True:
            try:
                self._ingest_stats(self._stats_q.get_nowait())
            except (_queue.Empty, OSError, EOFError, ValueError):
                return

    def _ingest_stats(self, item):
        try:
            worker_id, pid, ts, state = item
        except (TypeError, ValueError):
            return
        self.fleet.update(worker_id, state, pid=pid, ts=ts)

    # -- health / restart -------------------------------------------------------
    def _health_loop(self):
        while not self._closing.wait(self._health_interval):
            for handle in list(self._handles):
                process = handle.process
                if process is None or self._closing.is_set():
                    continue
                if not process.is_alive():
                    self._restart(handle, reason="exited")
                elif self._hung(handle):
                    process.terminate()
                    process.join(timeout=1.0)
                    self._restart(handle, reason="heartbeat timeout")

    def _hung(self, handle):
        if self._heartbeat_timeout is None:
            return False
        last = self._heartbeat[handle.worker_id]
        return last > 0 and (time.time() - last) > self._heartbeat_timeout

    def _restart(self, handle, reason):
        """Replace a dead worker and re-dispatch its in-flight tickets."""
        with self._lock:
            if self._closing.is_set() or handle.process is None or \
                    handle.process.is_alive():
                return
            exitcode = handle.process.exitcode
            try:
                handle.request_q.close()
                handle.request_q.cancel_join_thread()
            except (OSError, ValueError):
                pass
            handle.restarts += 1
            self._restart_count += 1
            # Fold the dead generation's counters into the fleet base
            # now; its replacement republishes under a fresh pid.
            self.fleet.retire(handle.worker_id)
            replay = [t for t in self._tickets.values()
                      if t.worker_id == handle.worker_id
                      and not t.event.is_set()]
            self._spawn(handle)
            failed = []
            for ticket in replay:
                ticket.attempts += 1
                if ticket.attempts > self.retries + 1:
                    failed.append(ticket)
                else:
                    try:
                        handle.request_q.put(ticket.message)
                        if self._c_requests is not None:
                            self._c_requests.inc()
                    except (OSError, ValueError):
                        failed.append(ticket)
            for ticket in failed:
                self._tickets.pop(ticket.req_id, None)
                self._pending[ticket.worker_id] -= 1
        if self._c_restarts is not None:
            self._c_restarts.inc()
        _log.warning("restarted pool worker", worker=handle.worker_id,
                     reason=reason, exitcode=exitcode,
                     redispatched=len(replay) - len(failed))
        for ticket in failed:
            ticket.error = (f"worker {handle.worker_id} crashed "
                            f"{ticket.attempts} times serving this request")
            ticket.crashed = True
            ticket.event.set()
        self._update_gauges()

    # -- introspection ----------------------------------------------------------
    def _update_gauges(self):
        if self._g_depth is None:
            return
        with self._lock:
            depth = sum(self._pending)
            busy = sum(1 for n in self._pending if n > 0)
        self._g_depth.set(depth)
        self._g_busy.set(busy)
        self._g_shm.set(self.arena.total_bytes())

    def _zero_gauges(self):
        if self._g_depth is None:
            return
        for gauge in (self._g_depth, self._g_busy, self._g_shm):
            gauge.set(0)

    def _worker_latency(self, worker_id):
        """Per-worker latency digest from the fleet-merged snapshots."""
        state = self.fleet.state_for(worker_id)
        entry = state.get("repro_worker_request_ms")
        sketch = merge_sketches([series["value"] for series
                                 in (entry or {}).get("series", ())])
        out = {}
        for q, field in ((0.5, "latency_p50_ms"), (0.99, "latency_p99_ms")):
            value = sketch_quantile(sketch, q)
            out[field] = round(0.0 if value != value else value, 3)
        count = sketch.get("count", 0)
        out["latency_mean_ms"] = round(sketch["sum"] / count, 3) \
            if count else 0.0
        requests = state.get("repro_worker_requests_total")
        out["requests"] = int(sum(series["value"] for series
                                  in (requests or {}).get("series", ())))
        return out

    def stats(self):
        with self._lock:
            per_worker = [handle.stats() for handle in self._handles]
            pending = sum(self._pending)
            restarts = self._restart_count
            shed = self._shed_count
            models = sorted(self._models)
            graphs = len(self._graphs)
        for row in per_worker:
            row.update(self._worker_latency(row["worker"]))
        batches = sum(w["batches"] for w in per_worker)
        items = sum(w["batched_items"] for w in per_worker)
        return {
            "workers": self.workers,
            "watermark": self.watermark,
            "pending": pending,
            "restarts": restarts,
            "shed": shed,
            "models": models,
            "graph_segments": graphs,
            "shm_bytes": self.arena.total_bytes(),
            "shm_segments": len(self.arena),
            "shm_entries": self.arena.entries(),
            "batch_max": max((w["batch_max"] for w in per_worker),
                             default=0),
            "mean_batch": round(items / batches, 3) if batches else 0.0,
            "per_worker": per_worker,
            "fleet": self.fleet.summary(),
        }
