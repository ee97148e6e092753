"""Serving layer: batched, concurrent slack prediction as a service.

The reproduction's first traffic-facing subsystem (see DESIGN.md §3):

* :mod:`.registry`  — named, versioned warm-model registry;
* :mod:`.cache`     — thread-safe LRU caches (graphs, results);
* :mod:`.batching`  — micro-batching executor (disjoint-union forwards);
* :mod:`.service`   — the transport-agnostic core with deadlines and
  graceful degradation to ground-truth STA labels;
* :mod:`.delta`     — incremental (ECO) prediction sessions: apply a
  small edit list to a live graph and re-predict cone-limited;
* :mod:`.http`      — stdlib JSON/HTTP front-end (``/predict``,
  ``/models``, ``/healthz``, ``/stats``, Prometheus ``/metrics``).

Serving runs in one process: one :class:`PredictionService` answers
every request, and its micro-batcher coalesces concurrent ones.
All serving telemetry lives in one :class:`repro.obs.MetricsRegistry`
per service — ``/stats`` and ``/metrics`` are two views of it.
"""

from .batching import BatchTimeout, MicroBatcher
from .cache import LRUCache
from .delta import DeltaClient, DeltaRequest, DeltaSession
from .http import ServingServer, make_server
from .registry import (DEFAULT_MODELS, ModelEntry, ModelLoadError,
                       ModelRegistry)
from .service import (DeadlineExceeded, PredictionService, PredictRequest,
                      PredictResponse, RequestError)

__all__ = [
    "BatchTimeout", "MicroBatcher",
    "LRUCache",
    "DeltaClient", "DeltaRequest", "DeltaSession",
    "ServingServer", "make_server",
    "DEFAULT_MODELS", "ModelEntry", "ModelLoadError", "ModelRegistry",
    "DeadlineExceeded", "PredictionService",
    "PredictRequest", "PredictResponse", "RequestError",
]
