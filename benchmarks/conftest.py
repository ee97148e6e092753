"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index); ``test_kernel_speedup.py`` is instead
the fused-kernel speed gate that ``scripts/ci.sh`` runs.  Heavy
artifacts — the 21-design dataset and the trained models — are cached
on disk under the repro cache dir, so the first run trains everything
(tens of minutes on a laptop CPU) and subsequent runs are fast.  Set
REPRO_SCALE / REPRO_EPOCHS to trade fidelity for speed, e.g.::

    REPRO_SCALE=0.3 REPRO_EPOCHS=5 pytest benchmarks/ --benchmark-only
"""

import os

import pytest


def pytest_report_header(config):
    scale = os.environ.get("REPRO_SCALE", "1.0")
    epochs = os.environ.get("REPRO_EPOCHS", "40 (default)")
    return [f"repro experiment scale={scale} epochs={epochs}"]


@pytest.fixture(scope="session")
def dataset():
    from repro.experiments import get_dataset
    return get_dataset()


@pytest.fixture(scope="session")
def train_test():
    from repro.experiments import train_test_graphs
    return train_test_graphs()
