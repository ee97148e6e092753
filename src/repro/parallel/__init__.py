"""Parallel flow execution and on-disk artifact caching.

Two orthogonal pieces that together make dataset construction scale
(DESIGN.md §4):

* :class:`ParallelExecutor` — shard independent design flows across
  worker processes (``REPRO_WORKERS``), ordered results, retry-once on
  worker crash, serial fallback when pools are unavailable;
* :class:`ArtifactStore` — content-hash-keyed pickle cache with version
  stamps and integrity digests, so repeated experiment and test runs
  skip recomputation entirely.

Determinism is the contract: a parallel build is bit-identical to a
serial one (``tests/test_parallel.py`` enforces it differentially).
"""

from .executor import (ParallelExecutor, WorkerCrashError, default_workers,
                       pick_start_method)
from .store import ArtifactStore, STORE_VERSION, content_key

__all__ = [
    "ParallelExecutor", "WorkerCrashError", "default_workers",
    "pick_start_method",
    "ArtifactStore", "STORE_VERSION", "content_key",
]
