"""Shared fixtures: a small library, design, and analysed-design record.

Everything here is session-scoped and deterministic, so the suite stays
fast while every layer of the stack gets exercised on real (small)
circuits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphdata import extract_graph
from repro.liberty import make_sky130_like_library
from repro.netlist import generate_circuit
from repro.placement import place_design
from repro.routing import route_design
from repro.sta import build_timing_graph, run_sta


@pytest.fixture(scope="session")
def library():
    return make_sky130_like_library(seed=2022)


@pytest.fixture(scope="session")
def small_design(library):
    return generate_circuit("unit_small", 220, "control", library, seed=11)


@pytest.fixture(scope="session")
def placed(small_design):
    return place_design(small_design, seed=3)


@pytest.fixture(scope="session")
def routed(small_design, placed):
    return route_design(small_design, placed)


@pytest.fixture(scope="session")
def timing_graph(small_design):
    return build_timing_graph(small_design)


@pytest.fixture(scope="session")
def sta_result(small_design, placed, routed, timing_graph):
    return run_sta(small_design, placed, routed, graph=timing_graph)


@pytest.fixture(scope="session")
def hetero(timing_graph, placed, sta_result):
    return extract_graph(timing_graph, placed, sta_result, split="train")


@pytest.fixture(scope="session")
def hetero_pair(library):
    """Two small analysed designs (a train/test pair for model tests)."""
    graphs = []
    for name, style, seed in [("unit_a", "cipher", 5), ("unit_b", "control", 6)]:
        design = generate_circuit(name, 200, style, library, seed=seed)
        placement = place_design(design, seed=seed)
        routing = route_design(design, placement)
        graph = build_timing_graph(design)
        result = run_sta(design, placement, routing, graph=graph)
        graphs.append(extract_graph(graph, placement, result))
    return graphs


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture(autouse=True)
def _isolated_run_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory.

    Training calls append run records as a side effect; without
    this, running the suite would grow a ``.repro_runs/`` ledger in the
    repository root and tests could observe each other's runs.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
