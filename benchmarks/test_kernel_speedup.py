"""Compute gate: fused kernels vs the naive backend on a training pass.

A full-model forward + combined loss + backward on the fused kernel
backend (``repro.nn.kernels``, with tape-arena planning) must run at
least 2.5x faster than on the naive composed-op backend at float64,
taking the fused backend at its best dtype.

Settings: aes256, the suite's largest design, at scale 0.75 with the
benchmark model config.  Every (backend, dtype) cell gets 2 untimed
warm-ups; then 7 interleaved rounds time one pass of every cell per
round and each cell keeps its minimum, so drifts in machine load hit
all cells alike instead of biasing whichever cell ran in a noisy window.

    PYTHONPATH=src python -m pytest -q benchmarks/test_kernel_speedup.py
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.graphdata import load_dataset
from repro.models import ModelConfig, TimingGNN
from repro.netlist import BENCHMARKS
from repro.training.loss import combined_loss

DESIGN = "aes256"
SCALE = 0.75
WARMUP = 2
ROUNDS = 7
MIN_SPEEDUP = 2.5
CELLS = (("naive", "float64"), ("fused", "float64"), ("fused", "float32"))


@pytest.fixture(scope="module")
def graph():
    spec = next(b for b in BENCHMARKS if b.name == DESIGN)
    return load_dataset(scale=SCALE, benchmarks=[spec])[DESIGN].graph


def _forward_backward(model, graph, backend, dtype):
    with nn.use_kernels(backend), nn.use_dtype(dtype):
        pred = model(graph)
        loss, _parts = combined_loss(pred, graph)
        model.zero_grad()
        loss.backward(free=True)


def test_fused_forward_backward_speedup(graph):
    cfg = ModelConfig.benchmark()
    models = {}
    for backend, dtype in CELLS:
        # The same seed in every cell: each times the same weights, cast
        # to its dtype.
        with nn.use_kernels(backend), nn.use_dtype(dtype):
            models[backend, dtype] = TimingGNN(
                cfg, rng=np.random.default_rng(cfg.seed))
    for cell, model in models.items():
        for _ in range(WARMUP):
            _forward_backward(model, graph, *cell)
    best = dict.fromkeys(CELLS, float("inf"))
    for _ in range(ROUNDS):
        for cell, model in models.items():
            start = time.perf_counter()
            _forward_backward(model, graph, *cell)
            best[cell] = min(best[cell], time.perf_counter() - start)
    speedup = best["naive", "float64"] / min(
        best["fused", "float64"], best["fused", "float32"])
    readings = ", ".join(f"{backend}@{dtype} {t * 1e3:.1f} ms"
                         for (backend, dtype), t in best.items())
    print(f"\n{DESIGN}@{SCALE} forward+backward: {readings}; "
          f"speedup {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, f"{speedup:.2f}x: {readings}"
