"""The differential contract matrix: every executor in every numeric cell.

A process runs one numeric configuration: fused kernels with the tape
arena on, at the ``REPRO_DTYPE`` precision.  The naive composed-op
kernels and unplanned (fresh-allocation) fused execution are reference
paths that only tests select, through the scoped ``nn.use_kernels``,
``nn.use_dtype`` and ``nn.use_arena`` overrides.  This module runs each
executor in every {backend, dtype, arena} cell:

* cells: fused x {float64, float32} x {arena on, off}, plus naive x
  {float64, float32} — naive execution leases no arena, so 6 cells;
* executors: (a) a full forward + combined loss + backward on the
  ``hetero`` fixture; (b) the incremental (delta-session) refresh after
  every ECO edit kind, against a full re-extract + forward, in both LUT
  modes;
* contracts, in every cell:

  - values (and, for (a), parameter gradients) equal naive at the same
    dtype, within :func:`repro.nn.contract_tol` — the naive cells are
    that reference;
  - incremental equals full, within ``contract_tol``;
  - fused with the arena on equals fused with it off bit for bit at
    float64: for (a) on the arena's planning and recycled passes, for
    (b) on the whole-graph forward.

A new cell or executor is checked against every contract; no path can
opt out of an axis.  The suites that used to rerun under environment
switches run in their reference cells in ``test_naive_cell.py`` and
``test_float32_cell.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.graphdata.patch import parse_edits
from repro.models import ModelConfig, TimingGNN
from repro.serving import DeltaSession

from .test_arena import _train_pass
from .test_delta import (DESIGN, SCALE, _buffer_edit, _entry, _move_edit,
                         _register_resize_edit, _resize_edit,
                         assert_graph_matches, assert_predictions_match,
                         base_clock, full_reextract)

CELLS = [
    pytest.param("fused", "float64", True, id="fused-float64-arena"),
    pytest.param("fused", "float64", False, id="fused-float64-noarena"),
    pytest.param("fused", "float32", True, id="fused-float32-arena"),
    pytest.param("fused", "float32", False, id="fused-float32-noarena"),
    pytest.param("naive", "float64", False, id="naive-float64"),
    pytest.param("naive", "float32", False, id="naive-float32"),
]


@contextlib.contextmanager
def numeric_cell(backend, dtype, arena):
    with nn.use_kernels(backend), nn.use_dtype(dtype), nn.use_arena(arena):
        yield


# -- executor (a): full forward + loss + backward ------------------------------
def assert_grad_close(grad, ref, dtype, name):
    """A parameter gradient within ``contract_tol(dtype)`` of the naive one.

    Elementwise at float64.  At float32 the bound holds for the tensor
    as a whole (relative Frobenius norm): an element that sums terms
    much larger than itself carries their rounding error, and the two
    backends sum in different orders.
    """
    rtol, atol = nn.contract_tol(dtype)
    if np.dtype(dtype) == np.float64:
        np.testing.assert_allclose(grad, ref, rtol=rtol, atol=atol,
                                   err_msg=name)
    else:
        err = np.linalg.norm(grad - ref)
        assert err <= rtol * np.linalg.norm(ref) + atol, (name, err)


@pytest.fixture(scope="module")
def full_passes(hetero):
    """``full_passes(backend, dtype, arena)``: two passes of one fresh
    model, each ``(atslew, loss, grads)``, memoized per cell.  With the
    arena on, the first pass plans it and the second runs recycled."""
    memo = {}

    def run(backend, dtype, arena):
        key = (backend, dtype, arena)
        if key not in memo:
            with numeric_cell(*key):
                model = TimingGNN(ModelConfig.fast())
                memo[key] = [_train_pass(model, hetero) for _ in range(2)]
        return memo[key]

    return run


@pytest.mark.parametrize("backend,dtype,arena", CELLS)
def test_full_forward_backward(full_passes, backend, dtype, arena):
    passes = full_passes(backend, dtype, arena)
    ref_at, ref_loss, ref_grads = full_passes("naive", dtype, False)[0]
    rtol, atol = nn.contract_tol(dtype)
    for at, loss, grads in passes:
        assert at.dtype == dtype
        np.testing.assert_allclose(at, ref_at, rtol=rtol, atol=atol)
        assert loss == pytest.approx(ref_loss, rel=rtol)
        assert set(grads) == set(ref_grads)
        for name, grad in grads.items():
            assert grad.dtype == dtype, name
            assert_grad_close(grad, ref_grads[name], dtype, name)
    if backend == "fused" and dtype == "float64":
        # Buffer recycling must never change arithmetic.
        unplanned_at, unplanned_loss, unplanned_grads = full_passes(
            "fused", dtype, False)[0]
        for at, loss, grads in passes:
            np.testing.assert_array_equal(at, unplanned_at)
            assert loss == unplanned_loss
            for name, grad in grads.items():
                np.testing.assert_array_equal(grad, unplanned_grads[name],
                                              err_msg=name)


# -- executor (b): incremental refresh after every edit kind -------------------
@pytest.mark.parametrize("lut_mode", ["kron", "mlp"])
@pytest.mark.parametrize("backend,dtype,arena", CELLS)
def test_incremental_refresh_matches_full(backend, dtype, arena, lut_mode):
    """Every edit kind: the delta session's patched graph equals a full
    re-extract (features bitwise, labels at 1e-9), and its incremental
    refresh equals a whole-graph forward on it in the same cell and on
    the naive backend, within the cell's ``contract_tol``."""
    with numeric_cell(backend, dtype, arena):
        model = TimingGNN(dataclasses.replace(ModelConfig.benchmark(),
                                              lut_mode=lut_mode))
        session = DeltaSession(DESIGN, 1, SCALE, key="matrix",
                               clock_period=base_clock())
        entry = _entry(model)
        edits = [
            _move_edit(session.patcher),
            _resize_edit(session.patcher),
            _register_resize_edit(session.patcher),
            _buffer_edit(session.patcher, name="tbuf0"),
            {"op": "remove_buffer", "name": "tbuf0"},
        ]
        for i, edit in enumerate(edits):
            session.apply(parse_edits([edit]))
            state, _stats = session.refresh(entry)
            assert session.version == i + 1
            assert state.arrival.dtype == dtype
            ref = full_reextract(session.patcher)
            # Served slack reads the endpoint mask and required rows
            # before any label pass: they must already be exact.
            eps = ref.is_endpoint
            np.testing.assert_array_equal(session.hetero.is_endpoint, eps)
            np.testing.assert_array_equal(session.hetero.required[eps],
                                          ref.required[eps])
            session.materialize()
            assert_graph_matches(session.hetero, ref)
            assert_predictions_match(state, ref, model)
            if backend == "fused":
                with nn.use_kernels("naive"):
                    assert_predictions_match(state, ref, model)
            if backend == "fused" and dtype == "float64":
                planned = model.predict(ref)
                with nn.use_arena(not arena):
                    other = model.predict(ref)
                np.testing.assert_array_equal(planned.atslew.data,
                                              other.atslew.data)
