"""Process-pool execution of independent tasks with ordered results.

:class:`ParallelExecutor` shards a list of independent tasks (one
design's flow, typically) across worker processes:

* worker count from the constructor or ``REPRO_WORKERS`` (default 1 —
  parallelism is opt-in so tests and small runs stay single-process);
* results come back in *submission order* regardless of completion
  order, so parallel builds are drop-in replacements for serial loops;
* a worker crash (hard exit, OOM kill) breaks the whole pool; the
  executor rebuilds the pool and resubmits the unfinished tasks, at
  most ``retries`` times, before raising :class:`WorkerCrashError`;
* if a pool cannot be created at all (no fork support, sandboxed
  semaphores), it falls back to running every task serially in-process.

Ordinary task exceptions are *not* retried — they propagate to the
caller exactly as a serial loop would raise them.

The task function and its items must be picklable (module-level
functions, plain data).  Busy-worker occupancy is exported on the
process-wide metrics registry (``repro_parallel_busy_workers``), task
completions and crash retries as counters.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool

from ..obs import get_logger, get_registry

__all__ = ["ParallelExecutor", "WorkerCrashError", "default_workers",
           "pick_start_method"]

_log = get_logger("repro.parallel")


def default_workers():
    """Worker count from ``REPRO_WORKERS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        _log.warning("ignoring invalid REPRO_WORKERS", value=raw)
        return 1


class WorkerCrashError(RuntimeError):
    """A task crashed its worker process even after retrying."""


def pick_start_method():
    """fork when safe, spawn otherwise.

    fork is cheap (workers inherit loaded modules) but unsafe when
    other threads are alive — a forked child can inherit a lock held
    mid-operation by a thread that doesn't exist in the child.
    Results are bit-identical either way.
    """
    if "fork" in multiprocessing.get_all_start_methods() \
            and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _busy_gauge():
    return get_registry().gauge(
        "repro_parallel_busy_workers",
        "Tasks currently executing in pool worker processes.")


def _task_counter(result):
    return get_registry().counter(
        "repro_parallel_tasks_total",
        "Parallel tasks by outcome (done/retried/serial).", result=result)


class ParallelExecutor:
    """Run a function over items on a process pool, results in order."""

    def __init__(self, workers=None, retries=1):
        self.workers = default_workers() if workers is None else \
            max(1, int(workers))
        self.retries = int(retries)

    def map(self, fn, items):
        """``[fn(x) for x in items]``, sharded across worker processes."""
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return self._map_serial(fn, items)
        return self._map_pool(fn, items)

    # -- serial fallback ------------------------------------------------------
    def _map_serial(self, fn, items):
        results = []
        for item in items:
            results.append(fn(item))
            _task_counter("serial").inc()
        return results

    # -- pool path -----------------------------------------------------------
    @staticmethod
    def _start_method():
        return pick_start_method()

    def _make_pool(self, n_tasks):
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context(self._start_method())
        return ProcessPoolExecutor(max_workers=min(self.workers, n_tasks),
                                   mp_context=context)

    def _map_pool(self, fn, items):
        results = [None] * len(items)
        done = [False] * len(items)
        crashes = 0
        gauge = _busy_gauge()
        while not all(done):
            pending = [i for i in range(len(items)) if not done[i]]
            try:
                pool = self._make_pool(len(pending))
            except (OSError, ValueError, ImportError) as exc:
                # Pool unavailable (sandbox, no semaphores): run the
                # rest serially in-process.
                _log.warning("process pool unavailable; running serially",
                             error=str(exc))
                for i in pending:
                    results[i] = fn(items[i])
                    done[i] = True
                    _task_counter("serial").inc()
                break
            crashed = False
            try:
                futures = {pool.submit(fn, items[i]): i for i in pending}
                gauge.set(min(self.workers, len(futures)))
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done,
                                              return_when=FIRST_COMPLETED)
                    for fut in finished:
                        i = futures[fut]
                        try:
                            results[i] = fut.result()
                        except BrokenProcessPool:
                            crashed = True
                        else:
                            done[i] = True
                            _task_counter("done").inc()
                    if crashed:
                        break
                    gauge.set(min(self.workers, len(not_done)))
            finally:
                gauge.set(0)
                pool.shutdown(wait=True, cancel_futures=True)
            if crashed:
                crashes += 1
                unfinished = [i for i in range(len(items)) if not done[i]]
                if crashes > self.retries:
                    raise WorkerCrashError(
                        f"worker process crashed {crashes} times; "
                        f"unfinished tasks: {unfinished}")
                _task_counter("retried").inc()
                _log.warning("worker crashed; retrying unfinished tasks",
                             attempt=crashes, unfinished=len(unfinished))
        return results
