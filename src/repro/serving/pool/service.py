"""Pooled prediction service: the in-process core, dispatching to workers.

:class:`PooledPredictionService` keeps the entire
:class:`~repro.serving.service.PredictionService` contract — request
validation, graph/result caches, deadline degradation to ground-truth
STA, stats/metrics — and swaps only the model-execution step: instead of
running the forward pass on the calling thread through a
:class:`~repro.serving.batching.MicroBatcher`, it publishes the model
and graph to shared memory (once) and dispatches the request to a
:class:`~repro.serving.pool.router.PoolRouter` worker shard, where
requests from many front-end threads coalesce into real multi-item
batches.

Fallback ladder, from the router's failure modes:

* :class:`~repro.serving.pool.router.NotPoolable` — the model cannot be
  rebuilt in a worker (custom test doubles, broken checkpoints): serve
  it in-process exactly as the base class would;
* :class:`~repro.serving.pool.router.PoolError` (including crash-retry
  exhaustion) — pool fault, not a request fault: fall back to the
  in-process path so the caller still gets a real prediction;
* :class:`~repro.serving.service.Overloaded` — propagates (HTTP 503);
  shedding is the point of admission control, not a fault;
* :class:`~repro.serving.batching.BatchTimeout` — propagates; the base
  class turns it into the degraded ground-truth response.
"""

from __future__ import annotations

from ..service import PredictionService
from .router import NotPoolable, PoolError, PoolRouter

__all__ = ["PooledPredictionService"]


class PooledPredictionService(PredictionService):
    """PredictionService whose forwards run on a pre-fork worker pool."""

    def __init__(self, registry=None, scale=None, workers=2,
                 watermark=32, retries=1, graph_slots=64, kernels=None,
                 heartbeat_timeout_s=None, **kwargs):
        super().__init__(registry=registry, scale=scale, **kwargs)
        self.router = PoolRouter(
            workers=workers,
            window_s=self._batch_window_ms / 1000.0,
            max_batch=self._max_batch,
            watermark=watermark, retries=retries,
            graph_slots=graph_slots, kernels=kernels,
            heartbeat_timeout_s=heartbeat_timeout_s,
            metrics=self.metrics)
        self.router.start()

    # -- the one overridden step ------------------------------------------------
    def _execute(self, entry, key, graph, request):
        try:
            segment = self._publish(entry, key, graph)
            return self.router.submit(entry.name, key, segment,
                                      include_slack=request.include_slack,
                                      timeout=request.remaining_s())
        except NotPoolable:
            return super()._execute(entry, key, graph, request)
        except PoolError:
            # Worker-side fault (crash budget exhausted, queue torn
            # down): answer in-process rather than failing the request.
            return super()._execute(entry, key, graph, request)

    def _publish(self, entry, key, graph):
        self.router.ensure_model(entry)
        return self.router.ensure_graph(key, graph)

    def _execute_delta(self, entry, key, session, request):
        """Ship the edit stream to the worker pinned to ``key``'s shard.

        The parent session has already applied the edits (it is the
        source of truth), so ``spec.version`` is the post-apply version
        the worker's session must reach by applying the same edits.  Any
        pool fault — including a worker whose session is out of sync
        after a crash/restart — falls back to the in-process cone-limited
        forward on the parent session, which is always current.
        """
        from ...graphdata.patch import parse_edits
        try:
            self.router.ensure_model(entry)
            spec = {"design": session.design, "seed": session.seed,
                    "scale": session.scale, "version": session.version,
                    "clock_period": session.clock_period}
            return self.router.submit_delta(
                entry.name, key, spec, parse_edits(request.edits),
                include_slack=request.include_slack,
                timeout=request.remaining_s())
        except (NotPoolable, PoolError):
            return super()._execute_delta(entry, key, session, request)

    # -- introspection ----------------------------------------------------------
    def stats(self):
        """Parent stats merged with the fleet-aggregated worker view.

        Under the pool, forwards and graph attachments happen in worker
        processes whose registries the parent cannot read directly —
        naively reporting only the parent's counters silently inflates
        cache-hit ratios and drops every worker-side execution.  The
        worker columns here come from the fleet aggregator's merged
        snapshots, so for an identical request stream the merged totals
        equal what a single-process service would have reported (see
        tests/test_pool.py::TestFleetParity).
        """
        stats = super().stats()
        pool = self.router.stats()
        stats["pool"] = pool
        stats["workers"] = pool["workers"]
        stats["batch_max"] = max(stats["batch_max"], pool["batch_max"])
        fleet = pool.get("fleet", {})
        cache = dict(stats["graph_cache"])
        worker_cache = fleet.get("worker_graph_cache", {})
        cache["worker_hits"] = worker_cache.get("hits", 0)
        cache["worker_misses"] = worker_cache.get("misses", 0)
        stats["graph_cache"] = cache
        stats["worker_requests"] = fleet.get("worker_requests_total", 0)
        # Under the pool, forwards (and so shadow audits) run in the
        # workers: fold their fleet-merged audit counters into the
        # quality view so `samples` reflects the whole process tree.
        quality = dict(stats.get("quality") or {})
        worker_quality = fleet.get("worker_quality", {})
        worker_audits = worker_quality.get("audits", 0)
        if worker_audits or quality.get("enabled"):
            quality.setdefault("enabled", True)
            quality["worker_audits"] = worker_audits
            quality["samples"] = int(quality.get("samples", 0) or 0) \
                + worker_audits
            if quality.get("slack_mae_ps") is None \
                    and worker_quality.get("scored"):
                quality["slack_mae_ps"] = \
                    worker_quality.get("slack_mae_p50_ps")
            stats["quality"] = quality
        return stats

    def healthz(self):
        """Liveness with per-worker detail: ``degraded`` when any worker
        process is down (the monitor is busy restarting it)."""
        health = super().healthz()
        pool = self.router.stats()
        health["workers"] = [
            {"worker": w["worker"], "pid": w["pid"], "alive": w["alive"],
             "restarts": w["restarts"]} for w in pool["per_worker"]]
        if any(not w["alive"] for w in health["workers"]):
            health["status"] = "degraded"
        return health

    def metrics_text(self):
        """Parent exposition plus every worker's series, ``worker``-labeled.

        Worker instrument names (``repro_worker_*``) are disjoint from
        parent families, so concatenating the expositions never emits a
        duplicate ``# TYPE`` line.
        """
        return super().metrics_text() + \
            self.router.fleet.render_prometheus()

    def warm(self, models=(), designs=()):
        """Load + publish models, extract + publish design graphs."""
        super().warm(models=models, designs=designs)
        from ..service import PredictRequest
        for name in models:
            try:
                self.router.ensure_model(self.registry.get(name))
            except NotPoolable:
                pass
        for design in designs:
            request = PredictRequest(design=design).validate()
            graph, key, _hit = self.resolve_graph(request)
            self.router.ensure_graph(key, graph)

    def close(self, drain_s=5.0):
        self.router.close(drain_s=drain_s)
        super().close()
