"""Golden regression layer: exact STA numerics pinned in tests/golden/.

Rebuilds two small benchmark designs from scratch and compares every
arrival/slew/required/slack value *bit-for-bit* against the committed
fixtures.  Any code change that shifts STA numerics — placer tweaks,
delay-model edits, extraction reorderings, accidental float reassociation
— fails here instead of silently drifting the paper's tables.

Intentional numeric changes: bump DATASET_VERSION, run
``python scripts/regen_golden.py``, and commit the new fixtures with
the change that caused them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from repro.graphdata import HeteroGraph
from repro.graphdata.dataset import DATASET_VERSION, generate_design
from repro.graphdata.extract import (LABEL_FIELDS, extract_features,
                                     extract_graph, write_labels)
from repro.liberty import make_sky130_like_library
from repro.netlist import build_benchmark
from repro.placement import place_design
from repro.routing import route_design
from repro.sta import build_timing_graph, run_sta

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
_REGEN = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "regen_golden.py")


def _regen_module():
    """scripts/regen_golden.py, imported so the comparator and the
    regenerator can never disagree about what is pinned."""
    spec = importlib.util.spec_from_file_location("regen_golden", _REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen_module()


@pytest.mark.parametrize("name,split", regen.GOLDEN_DESIGNS)
class TestGoldenSTA:
    def test_rebuild_matches_fixture_bit_for_bit(self, name, split):
        record = generate_design(name, split, scale=regen.GOLDEN_SCALE,
                                 seed=regen.GOLDEN_SEED)
        arrays = regen.golden_arrays(record.graph)
        with np.load(os.path.join(GOLDEN_DIR, f"{name}.npz")) as golden:
            assert sorted(golden.files) == sorted(arrays)
            for field in golden.files:
                fresh = np.ascontiguousarray(arrays[field])
                pinned = golden[field]
                assert fresh.dtype == pinned.dtype, field
                assert fresh.shape == pinned.shape, field
                # Bytewise, therefore NaN-exact: required/slack are NaN
                # off endpoints and must stay NaN in the same places.
                assert fresh.tobytes() == pinned.tobytes(), (
                    f"{name}.{field}: STA numerics drifted from the "
                    f"golden fixture (max abs diff "
                    f"{np.nanmax(np.abs(fresh - pinned))!r}); if this "
                    f"change is intentional, bump DATASET_VERSION and "
                    f"run scripts/regen_golden.py")

    def test_summary_consistent_with_npz(self, name, split):
        with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
            summary = json.load(fh)
        assert summary["design"] == name
        assert summary["split"] == split
        assert summary["scale"] == regen.GOLDEN_SCALE
        assert summary["seed"] == regen.GOLDEN_SEED
        with np.load(os.path.join(GOLDEN_DIR, f"{name}.npz")) as golden:
            assert sorted(summary["sha256"]) == sorted(golden.files)
            for field in golden.files:
                digest = hashlib.sha256(
                    np.ascontiguousarray(golden[field]).tobytes()
                ).hexdigest()
                assert digest == summary["sha256"][field], (
                    f"{name}.{field}: npz and json fixture disagree — "
                    f"regenerate both with scripts/regen_golden.py")

    def test_fixture_generated_at_current_version(self, name, split):
        with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
            summary = json.load(fh)
        assert summary["dataset_version"] == DATASET_VERSION, (
            "golden fixtures were generated at a different "
            "DATASET_VERSION; run scripts/regen_golden.py")


@pytest.mark.parametrize("name,split", regen.GOLDEN_DESIGNS)
def test_feature_pass_equals_extract_graph_bitwise(name, split):
    """The label-free feature pass builds every array of the labelled
    extraction bit for bit, except the labels it leaves NaN; endpoint
    required rows come from the static rule and match too.  Adding the
    label pass gives back the labelled extraction exactly."""
    design = build_benchmark(name, make_sky130_like_library(),
                             scale=regen.GOLDEN_SCALE)
    placement = place_design(design, seed=regen.GOLDEN_SEED)
    routing = route_design(design, placement)
    graph = build_timing_graph(design)
    result = run_sta(design, placement, routing, graph=graph)
    full = extract_graph(graph, placement, result, split=split)
    features = extract_features(graph, placement, result.clock_period,
                                split=split)
    assert features.clock_period == full.clock_period
    eps = full.is_endpoint
    for field in HeteroGraph._ARRAY_FIELDS:
        ours, theirs = getattr(features, field), getattr(full, field)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        if field == "required":
            assert ours[eps].tobytes() == theirs[eps].tobytes()
            assert np.isnan(ours[~eps]).all()
        elif field in LABEL_FIELDS:
            assert np.isnan(ours).all(), field
        else:
            assert ours.tobytes() == theirs.tobytes(), field
    write_labels(features, result)
    for field in HeteroGraph._ARRAY_FIELDS:
        assert getattr(features, field).tobytes() == \
            getattr(full, field).tobytes(), field
