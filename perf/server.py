"""Measured serving process for the perf harness.

Runs the ``repro serve`` default deployment: an in-process
``PredictionService`` behind ``ServingServer`` (no worker pool), serving a
seeded untrained ``TimingGNN(ModelConfig.benchmark())`` as
``timing-full``.  The weights are identical on every run and nothing is
trained during set-up; the op shapes are those of a trained checkpoint.

Usage (by ``run.py``)::

    python perf/server.py '<json config>'

The config names the design scale, the workload's set-up traffic
(``warm``: design/seed pairs to predict once; ``eco``: the delta session
to open; ``warmup``: one request to exercise the model) and, when traced,
``spans``: where to write the recorded spans.  The process prints one
JSON ``ready`` line once set-up is done, serves until its stdin closes,
then writes its spans and exits.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main():
    config = json.loads(sys.argv[1])
    recorder = None
    if config.get("spans"):
        from spans import Recorder
        recorder = Recorder()
        recorder.install()

    from repro import nn
    from repro.models import ModelConfig, TimingGNN
    from repro.serving import PredictionService, ServingServer
    from repro.serving.registry import ModelEntry, ModelRegistry

    def load_model():
        return ModelEntry(name="timing-full", kind="timing",
                          version="perf-seeded",
                          model=TimingGNN(ModelConfig.benchmark()),
                          loaded_at=time.time(), load_seconds=0.0)

    registry = ModelRegistry(scale=config["scale"], names=[])
    registry.register("timing-full", load_model)
    service = PredictionService(registry=registry, scale=config["scale"])
    server = ServingServer(service).start()
    try:
        registry.get("timing-full")
        for design, seed in config.get("warm", ()):
            service.predict({"design": design, "seed": seed,
                             "no_cache": True})
        if config.get("warmup"):
            service.predict(config["warmup"])
        if config.get("eco"):
            service.predict_delta({**config["eco"], "edits": []})
        if recorder is not None:
            recorder.phase = "timed"
        print(json.dumps({
            "event": "ready", "url": server.url, "pid": os.getpid(),
            "dtype": nn.active_dtype().name,
            "repro_env": {k: v for k, v in os.environ.items()
                          if k.startswith("REPRO_")}}), flush=True)
        for _line in sys.stdin:
            pass
    finally:
        server.stop()
    if recorder is not None:
        recorder.dump(config["spans"])
    print(json.dumps({"event": "stopped"}), flush=True)


if __name__ == "__main__":
    main()
