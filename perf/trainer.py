"""Measured training process for the perf harness.

Set-up builds the training designs with ``load_dataset`` (fresh cache,
so the flow runs for every design).  After the ``ready`` line it waits
for a ``{"go": seconds}`` line on stdin, then calls ``train_timing_gnn``
back to back, ``epochs`` epochs per call, until ``seconds`` have passed.
Per-epoch wall times come from the trainer's own
``repro_train_epoch_ms`` histogram.

Usage (by ``run.py``)::

    python perf/trainer.py '<json config>'
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
    from repro.graphdata.dataset import load_dataset
    from repro.models import ModelConfig
    from repro.obs import get_registry
    from repro.training import trainer

    records = load_dataset(scale=config["scale"],
                           benchmarks=config["designs"],
                           seed=config["seed"])
    graphs = [records[name].graph for name in config["designs"]]
    if recorder is not None:
        recorder.phase = "timed"
    print(json.dumps({
        "event": "ready", "pid": os.getpid(),
        "dtype": nn.active_dtype().name,
        "repro_env": {k: v for k, v in os.environ.items()
                      if k.startswith("REPRO_")}}), flush=True)

    go = sys.stdin.readline()      # empty: stopped right after set-up
    if go:
        seconds = json.loads(go)["go"]
        train_cfg = trainer.TrainConfig(epochs=config["epochs"],
                                        seed=config["train_seed"])
        calls = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            _model, history = trainer.train_timing_gnn(
                graphs, cfg=ModelConfig.benchmark(), train_cfg=train_cfg)
            wall = time.perf_counter() - t0
            epoch_ms = get_registry().get(
                "repro_train_epoch_ms", model="timing-gnn",
                run=history.run_id).sketch(max_points=1 << 20)["sample"]
            calls.append({"loss": history.loss, "epoch_ms": epoch_ms,
                          "wall_s": wall})
            if time.perf_counter() - start >= seconds:
                break
        print(json.dumps({"event": "done", "calls": calls,
                          "wall_s": time.perf_counter() - start}),
              flush=True)
        for _line in sys.stdin:
            pass
    if recorder is not None:
        recorder.dump(config["spans"])
    print(json.dumps({"event": "stopped"}), flush=True)


if __name__ == "__main__":
    main()
