"""Tape arena, dtype policy and multicore execution.

Three contracts pin the compute-performance layer:

* **Planned == unplanned** — arena-recycled fused execution is
  bit-identical to fresh-allocation fused execution at float64, on
  values AND gradients (buffer recycling must never change arithmetic);
* **No aliasing** — the arena never hands the same buffer to two live
  users, double-release fails loudly, and nothing that escapes a fused
  pass (outputs, parameter gradients) sits in an arena free list;
* **Flat steady state** — after the first planning pass, training holds
  the arena's fresh-allocation count constant across epochs,
  ``Tensor.backward(free=True)`` feeds the gradient pool, and a warm
  fused forward+backward step calls fewer numpy buffer constructors
  than the naive tape at every dtype.

Plus the dtype axis (float32 parameters/outputs under ``use_dtype``,
naive==fused within :func:`repro.nn.contract_tol`) and the thread axis
(chunked matmul / segment reductions bit-identical to serial).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.models import ModelConfig, TimingGNN
from repro.nn import kernels, threads
from repro.nn.arena import NULL_ARENA, TapeArena
from repro.training.loss import combined_loss


@pytest.fixture()
def cfg():
    return ModelConfig.fast()


def _train_pass(model, graph):
    pred = model(graph)
    loss, _parts = combined_loss(pred, graph)
    model.zero_grad()
    loss.backward(free=True)
    return (pred.atslew.data.copy(), float(loss.data),
            {name: p.grad.copy() for name, p in model.named_parameters()
             if p.grad is not None})


class TestTapeArenaUnit:
    def test_take_recycles_released_buffers(self):
        arena = TapeArena(tag="t")
        a = arena.take((4, 3), np.float64)
        arena.release(a)
        b = arena.take((4, 3), np.float64)
        assert b is a
        assert arena.stats()["fresh_allocs"] == 1
        assert arena.stats()["reuses"] == 1

    def test_two_live_takes_never_alias(self):
        arena = TapeArena(tag="t")
        a = arena.take((4, 3), np.float64)
        b = arena.take((4, 3), np.float64)
        assert a is not b
        assert not np.shares_memory(a, b)

    def test_double_release_raises(self):
        arena = TapeArena(tag="t")
        a = arena.take((2, 2), np.float64)
        arena.release(a)
        with pytest.raises(ValueError, match="double release"):
            arena.release(a)

    def test_foreign_array_release_raises(self):
        arena = TapeArena(tag="t")
        with pytest.raises(ValueError):
            arena.release(np.zeros((2, 2)))

    def test_dtype_keys_are_distinct(self):
        arena = TapeArena(tag="t")
        a = arena.take((4,), np.float64)
        arena.release(a)
        b = arena.take((4,), np.float32)
        assert b is not a and b.dtype == np.float32

    def test_zero_flag(self):
        arena = TapeArena(tag="t")
        a = arena.take((3,), np.float64)
        a[:] = 7.0
        arena.release(a)
        b = arena.take((3,), np.float64, zero=True)
        assert b is a
        np.testing.assert_array_equal(b, 0.0)

    def test_episode_lease(self):
        arena = TapeArena(tag="t")
        token = arena.begin()
        assert token is not None
        assert arena.begin() is None      # busy: caller must go unplanned
        arena.end(token)
        arena.end(token)                  # idempotent
        assert arena.begin() is not None

    def test_null_arena_surface(self):
        a = NULL_ARENA.take((2, 2), np.float64, zero=True)
        np.testing.assert_array_equal(a, 0.0)
        NULL_ARENA.release(a)             # no-op
        NULL_ARENA.release_all([a])


class TestPlannedVsUnplanned:
    """Arena-planned fused execution == fresh-allocation fused execution,
    bitwise, values and gradients."""

    def test_model_bit_identical_and_recycling(self, hetero, cfg):
        with nn.use_kernels("fused"), nn.use_dtype("float64"):
            with nn.use_arena(False):
                model = TimingGNN(cfg)
                ref = _train_pass(model, hetero)
            with nn.use_arena(True):
                model = TimingGNN(cfg)
                first = _train_pass(model, hetero)   # planning pass
                second = _train_pass(model, hetero)  # recycled pass
        for planned in (first, second):
            np.testing.assert_array_equal(planned[0], ref[0])
            assert planned[1] == ref[1]
            assert set(planned[2]) == set(ref[2])
            for name in ref[2]:
                np.testing.assert_array_equal(planned[2][name],
                                              ref[2][name], err_msg=name)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_mlp_chain_property(self, data):
        """mlp_chain raw kernels with an arena == without, bitwise."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rows = data.draw(st.integers(1, 12))
        dims = data.draw(st.lists(st.integers(1, 8), min_size=2,
                                  max_size=4))
        acts = [data.draw(st.sampled_from([None, "relu", "tanh"]))
                for _ in dims[1:]]
        out_act = data.draw(st.sampled_from(
            [None, "tanh", "softplus", "sigmoid"]))
        x = rng.normal(size=(rows, dims[0]))
        steps = []
        for d_in, d_out, act in zip(dims[:-1], dims[1:], acts):
            w = nn.Tensor(rng.normal(size=(d_in, d_out)),
                          requires_grad=True)
            b = nn.Tensor(rng.normal(size=(d_out,)), requires_grad=True)
            steps.append((w, b, act))
        g = rng.normal(size=(rows, dims[-1]))

        def run(alloc):
            for w, b, _ in steps:
                w.grad = b.grad = None
            out, saved = kernels.mlp_chain_forward_raw(
                x, steps, out_act=out_act, alloc=alloc)
            gx = kernels.mlp_chain_backward_raw(
                g.copy(), steps, saved, out_act=out_act, alloc=alloc)
            grads = [(w.grad.copy(), b.grad.copy()) for w, b, _ in steps]
            return out.copy(), gx.copy(), grads

        ref = run(None)
        arena = TapeArena(tag="prop")
        for _ in range(2):                # second round runs recycled
            got = run(arena)
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            for (gw, gb), (rw, rb) in zip(got[2], ref[2]):
                np.testing.assert_array_equal(gw, rw)
                np.testing.assert_array_equal(gb, rb)

    def test_no_escaping_buffer_in_free_lists(self, hetero, cfg):
        """Nothing a fused pass returns (outputs, parameter gradients)
        may sit in an arena free list — that would alias live tensors
        with recycled slots."""
        with nn.use_kernels("fused"), nn.use_dtype("float64"), \
                nn.use_arena(True):
            model = TimingGNN(cfg)
            for _ in range(2):
                pred = model(hetero)
                loss, _parts = combined_loss(pred, hetero)
                model.zero_grad()
                loss.backward(free=True)
            sched = hetero.compute_schedule(dtype=np.float64)
            pooled_ids = {id(arr)
                          for arena in sched._arenas.values()
                          for stack in arena._free.values()
                          for arr in stack}
            assert id(pred.atslew.data) not in pooled_ids
            for name, p in model.named_parameters():
                assert id(p.data) not in pooled_ids, name
                if p.grad is not None:
                    assert id(p.grad) not in pooled_ids, name


_ALLOC_FNS = ("empty", "zeros", "ones", "full", "empty_like",
              "zeros_like", "ones_like", "concatenate", "copy", "stack")


def _count_allocations(fn):
    """Run ``fn()`` counting numpy buffer-constructor calls.

    Counts the module-level constructors the tape and kernels allocate
    through, i.e. exactly the traffic arena planning and the gradient
    pool recycle away; ufunc temporaries below the numpy C layer are
    not visible here and not counted.
    """
    count = 0
    saved = {name: getattr(np, name) for name in _ALLOC_FNS}

    def counting(orig):
        def inner(*args, **kwargs):
            nonlocal count
            count += 1
            return orig(*args, **kwargs)
        return inner

    for name, orig in saved.items():
        setattr(np, name, counting(orig))
    try:
        fn()
    finally:
        for name, orig in saved.items():
            setattr(np, name, orig)
    return count


class TestSteadyStateAllocations:
    def test_fused_step_allocates_less_than_naive(self, hetero):
        """One warm forward+backward step: fused at each dtype must call
        fewer numpy buffer constructors than the naive float64 tape."""
        cfg = ModelConfig.benchmark()
        allocs = {}
        for backend, dtype in (("naive", "float64"), ("fused", "float64"),
                               ("fused", "float32")):
            with nn.use_kernels(backend), nn.use_dtype(dtype):
                model = TimingGNN(cfg, rng=np.random.default_rng(cfg.seed))

                def step():
                    pred = model(hetero)
                    loss, _parts = combined_loss(pred, hetero)
                    model.zero_grad()
                    loss.backward(free=True)

                step()
                step()
                allocs[backend, dtype] = _count_allocations(step)
        naive = allocs["naive", "float64"]
        for dtype in ("float64", "float32"):
            assert allocs["fused", dtype] < naive, allocs

    def test_training_allocation_count_flat_across_epochs(self, hetero,
                                                          cfg):
        with nn.use_kernels("fused"), nn.use_dtype("float64"), \
                nn.use_arena(True):
            model = TimingGNN(cfg)
            optim = nn.Adam(model.parameters(), lr=1e-3)

            def epoch():
                pred = model(hetero)
                loss, _parts = combined_loss(pred, hetero)
                optim.zero_grad()
                loss.backward(free=True)
                optim.step()

            epoch()                       # planning pass
            epoch()                       # warm: pools/grad-pool primed
            arena = hetero.compute_schedule(dtype=np.float64).arena("train")
            warm = arena.stats()
            for _ in range(3):
                epoch()
            steady = arena.stats()
        assert steady["fresh_allocs"] == warm["fresh_allocs"], \
            "steady-state training still allocates fresh arena buffers"
        assert steady["reuses"] > warm["reuses"]
        assert steady["live"] == 0

    def test_backward_free_feeds_grad_pool(self):
        nn.clear_grad_pool()
        before = nn.grad_pool_stats()["given"]
        x = nn.Tensor(np.ones((16, 8)), requires_grad=True)
        w = nn.Tensor(np.ones((8, 4)), requires_grad=True)
        ((x @ w).tanh().sum()).backward(free=True)
        assert nn.grad_pool_stats()["given"] > before

    def test_grad_pool_recycles(self):
        nn.clear_grad_pool()
        from repro.nn.arena import give_grad, grad_buffer
        arr = np.ones((5, 3))
        assert give_grad(arr) is True
        assert grad_buffer((5, 3), np.float64) is arr
        assert nn.grad_pool_stats()["hits"] >= 1


class TestDtypePolicy:
    def test_use_dtype_scopes_tensor_creation(self):
        with nn.use_dtype("float32"):
            assert nn.active_dtype() == np.float32
            assert nn.Tensor(np.zeros(3)).data.dtype == np.float32
        assert nn.Tensor(np.zeros(3)).data.dtype == nn.active_dtype()

    def test_contract_tol_is_dtype_aware(self):
        assert nn.contract_tol(np.float64) == (1e-9, 1e-12)
        rtol32, atol32 = nn.contract_tol(np.float32)
        assert rtol32 > 1e-9 and atol32 > 1e-12
        with nn.use_dtype("float32"):
            assert nn.contract_tol() == (rtol32, atol32)

    def test_float32_model_outputs_and_contract(self, hetero, cfg):
        with nn.use_dtype("float32"):
            rtol, atol = nn.contract_tol()
            with nn.use_kernels("fused"):
                model = TimingGNN(cfg)
                at_f, loss_f, grads_f = _train_pass(model, hetero)
            with nn.use_kernels("naive"):
                model = TimingGNN(cfg)
                at_n, loss_n, grads_n = _train_pass(model, hetero)
        assert at_f.dtype == np.float32
        np.testing.assert_allclose(at_f, at_n, rtol=rtol, atol=atol)
        assert loss_f == pytest.approx(loss_n, rel=rtol)

    def test_schedules_are_per_dtype(self, hetero):
        s64 = hetero.compute_schedule(dtype=np.float64)
        s32 = hetero.compute_schedule(dtype=np.float32)
        assert s64 is not s32
        assert s64.arena("train") is not s32.arena("train")
        assert hetero.compute_schedule(dtype=np.float64) is s64


class TestThreadedExecution:
    def test_matmul_chunked_bit_identical(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(37, 9))
        b = rng.normal(size=(9, 5))
        ref = np.matmul(a, b)
        with nn.use_threads(4, min_rows=1):
            assert threads.parallel_enabled(len(a))
            np.testing.assert_array_equal(threads.matmul(a, b), ref)

    def test_segment_reduce_chunked_bit_identical(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(50, 3))
        ids = rng.integers(0, 7, size=50)
        sched = kernels.SegmentSchedule(ids)
        ref = threads.segment_reduce(np.add, data, sched.order,
                                     sched.starts)
        with nn.use_threads(4, min_rows=1):
            got = threads.segment_reduce(np.add, data, sched.order,
                                         sched.starts)
        np.testing.assert_array_equal(got, ref)

    def test_model_matches_serial_under_threads(self, hetero, cfg):
        """Chunked model pass == serial pass within the fp64 contract.

        Segment reductions chunk at segment boundaries and are exactly
        identical; row-chunked BLAS matmuls may block the within-row
        accumulation differently, so the model-level comparison uses
        the dtype contract tolerance rather than bit equality.
        """
        rtol, atol = nn.contract_tol(np.float64)
        with nn.use_kernels("fused"), nn.use_dtype("float64"):
            model = TimingGNN(cfg)
            ref = _train_pass(model, hetero)
            with nn.use_threads(4, min_rows=1):
                model = TimingGNN(cfg)
                got = _train_pass(model, hetero)
        np.testing.assert_allclose(got[0], ref[0], rtol=rtol, atol=atol)
        assert got[1] == pytest.approx(ref[1], rel=rtol)
        for name in ref[2]:
            np.testing.assert_allclose(got[2][name], ref[2][name],
                                       rtol=rtol, atol=atol, err_msg=name)

    def test_serial_below_threshold(self):
        with nn.use_threads(4, min_rows=10_000):
            assert not threads.parallel_enabled(100)
        with nn.use_threads(1, min_rows=1):
            assert not threads.parallel_enabled(100)
