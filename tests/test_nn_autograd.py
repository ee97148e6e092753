"""Autograd correctness: every op's gradient vs. numerical differentiation.

The GNN framework is hand-rolled, so each operation gets an exact
finite-difference check plus shape/semantic tests; hypothesis drives
randomized cases for the structural (gather/scatter/segment) ops.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import nn
from repro.nn.tensor import Tensor


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn wrt array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(make_output, x0, atol=1e-5):
    """Compare autograd and numerical gradients for input array x0.

    Always runs at float64 regardless of the session dtype: a central
    difference with eps=1e-6 is meaningless at float32 precision.
    """
    with nn.use_dtype("float64"):
        x = Tensor(x0.copy(), requires_grad=True)
        out = make_output(x)
        out.backward()
        auto = x.grad

        def scalar_fn(arr):
            return float(make_output(Tensor(arr)).data.sum())

        num = numerical_grad(scalar_fn, x0.copy())
    np.testing.assert_allclose(auto, num, atol=atol, rtol=1e-4)


class TestElementwiseGrads:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.x = self.rng.normal(size=(4, 3))

    def test_add(self):
        check_grad(lambda t: (t + 2.5).sum(), self.x)

    def test_add_tensor(self):
        other = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: (t + other).sum(), self.x)

    def test_sub(self):
        check_grad(lambda t: (t - 1.2).sum(), self.x)

    def test_rsub(self):
        check_grad(lambda t: (1.2 - t).sum(), self.x)

    def test_mul(self):
        other = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: (t * other).sum(), self.x)

    def test_div(self):
        other = Tensor(self.rng.uniform(0.5, 2.0, size=(4, 3)))
        check_grad(lambda t: (t / other).sum(), self.x)

    def test_rdiv(self):
        x = np.abs(self.x) + 0.5
        check_grad(lambda t: (2.0 / t).sum(), x)

    def test_neg(self):
        check_grad(lambda t: (-t).sum(), self.x)

    def test_pow(self):
        x = np.abs(self.x) + 0.5
        check_grad(lambda t: (t ** 3).sum(), x)

    def test_exp(self):
        check_grad(lambda t: t.exp().sum(), self.x)

    def test_log(self):
        x = np.abs(self.x) + 0.5
        check_grad(lambda t: t.log().sum(), x)

    def test_sqrt(self):
        x = np.abs(self.x) + 0.5
        check_grad(lambda t: t.sqrt().sum(), x)

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid().sum(), self.x)

    def test_tanh(self):
        check_grad(lambda t: t.tanh().sum(), self.x)

    def test_softplus(self):
        check_grad(lambda t: t.softplus().sum(), self.x)

    def test_relu(self):
        x = self.x + 0.05  # keep away from the kink
        check_grad(lambda t: t.relu().sum(), x)

    def test_leaky_relu(self):
        x = self.x + 0.05
        check_grad(lambda t: t.leaky_relu(0.1).sum(), x)

    def test_softmax(self):
        weight = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: (t.softmax(axis=1) * weight).sum(), self.x)


class TestShapeAndReduceGrads:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.x = self.rng.normal(size=(5, 4))

    def test_sum_all(self):
        check_grad(lambda t: t.sum(), self.x)

    def test_sum_axis0(self):
        w = Tensor(self.rng.normal(size=(4,)))
        check_grad(lambda t: (t.sum(axis=0) * w).sum(), self.x)

    def test_sum_keepdims(self):
        check_grad(lambda t: t.sum(axis=1, keepdims=True).sum(), self.x)

    def test_mean(self):
        check_grad(lambda t: t.mean().sum(), self.x)

    def test_max_axis(self):
        # Perturb to avoid exact ties.
        x = self.x + np.arange(20).reshape(5, 4) * 1e-3
        check_grad(lambda t: t.max(axis=1).sum(), x)

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(2, 10) ** 2).sum(), self.x)

    def test_transpose(self):
        w = Tensor(self.rng.normal(size=(4, 5)))
        check_grad(lambda t: (t.T * w).sum(), self.x)

    def test_getitem(self):
        check_grad(lambda t: (t[1:4] ** 2).sum(), self.x)

    def test_matmul(self):
        w = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: (t @ w).sum(), self.x)

    def test_matmul_grad_wrt_weight(self):
        w0 = self.rng.normal(size=(4, 3))
        x = Tensor(self.x)
        check_grad(lambda t: (x @ t).sum(), w0)

    def test_affine(self):
        w = Tensor(self.rng.normal(size=(4, 3)))
        b = Tensor(self.rng.normal(size=(3,)))
        check_grad(lambda t: t.affine(w, b).sum(), self.x)

    def test_affine_matches_unfused(self):
        x = Tensor(self.x, requires_grad=True)
        w = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(3,)), requires_grad=True)
        fused = x.affine(w, b)
        manual = x @ w + b
        np.testing.assert_allclose(fused.data, manual.data)
        fused.sum().backward()
        gx, gw, gb = x.grad.copy(), w.grad.copy(), b.grad.copy()
        x.zero_grad(), w.zero_grad(), b.zero_grad()
        manual = x @ w + b
        manual.sum().backward()
        np.testing.assert_allclose(gx, x.grad)
        np.testing.assert_allclose(gw, w.grad)
        np.testing.assert_allclose(gb, b.grad)


class TestBroadcasting:
    def test_add_broadcast_rows(self):
        rng = np.random.default_rng(2)
        bias = rng.normal(size=(3,))
        check_grad(lambda t: (t + Tensor(bias)).sum(),
                   rng.normal(size=(5, 3)))

    def test_add_broadcast_grad_on_small(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3,))
        big = Tensor(rng.normal(size=(5, 3)))
        check_grad(lambda t: (big + t).sum(), x)

    def test_mul_broadcast_column(self):
        rng = np.random.default_rng(4)
        col = Tensor(rng.normal(size=(5, 1)))
        check_grad(lambda t: (t * col).sum(), rng.normal(size=(5, 3)))

    def test_scalar_ops(self):
        check_grad(lambda t: (3.0 * t + 1.0).sum(),
                   np.random.default_rng(5).normal(size=(2, 2)))


class TestStructuralOps:
    def setup_method(self):
        self.rng = np.random.default_rng(6)

    def test_concat_grad(self):
        b = Tensor(self.rng.normal(size=(4, 2)))
        check_grad(lambda t: nn.concat([t, b], axis=1).sum(),
                   self.rng.normal(size=(4, 3)))

    def test_concat_axis0(self):
        b = Tensor(self.rng.normal(size=(2, 3)))
        check_grad(lambda t: (nn.concat([t, b], axis=0) ** 2).sum(),
                   self.rng.normal(size=(4, 3)))

    def test_stack(self):
        b = Tensor(self.rng.normal(size=(4,)))
        check_grad(lambda t: (nn.stack([t, b], axis=0) ** 2).sum(),
                   self.rng.normal(size=(4,)))

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_grad(lambda t: (nn.gather_rows(t, idx) ** 2).sum(),
                   self.rng.normal(size=(3, 2)))

    def test_scatter_rows_values_grad(self):
        # base is captured by the lambda, so it must be float64 too —
        # scatter_rows output follows the base dtype, and a float32
        # base would degrade the finite-difference check.
        with nn.use_dtype("float64"):
            base = Tensor(self.rng.normal(size=(5, 2)))
        idx = np.array([1, 3])
        check_grad(lambda t: (nn.scatter_rows(base, idx, t) ** 2).sum(),
                   self.rng.normal(size=(2, 2)))

    def test_scatter_rows_base_grad(self):
        values = Tensor(self.rng.normal(size=(2, 2)))
        idx = np.array([1, 3])
        check_grad(lambda t: (nn.scatter_rows(t, idx, values) ** 2).sum(),
                   self.rng.normal(size=(5, 2)))

    def test_scatter_rows_rejects_duplicates(self):
        base = Tensor(np.zeros((4, 2)))
        values = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            nn.scatter_rows(base, np.array([1, 1]), values)

    def test_segment_sum_matches_loop(self):
        data = self.rng.normal(size=(6, 3))
        seg = np.array([0, 0, 1, 2, 2, 2])
        out = nn.segment_sum(Tensor(data), seg, 4)
        expected = np.zeros((4, 3))
        for i, s in enumerate(seg):
            expected[s] += data[i]
        rtol, atol = nn.contract_tol()
        np.testing.assert_allclose(out.data, expected, rtol=rtol, atol=atol)

    def test_segment_sum_grad(self):
        seg = np.array([0, 0, 1, 2, 2, 2])
        check_grad(lambda t: (nn.segment_sum(t, seg, 4) ** 2).sum(),
                   self.rng.normal(size=(6, 3)))

    def test_segment_max_matches_loop(self):
        data = self.rng.normal(size=(6, 2))
        seg = np.array([0, 0, 1, 1, 1, 3])
        out = nn.segment_max(Tensor(data), seg, 4)
        assert out.data[2].tolist() == [0.0, 0.0]  # empty segment -> 0
        np.testing.assert_allclose(out.data[0], data[0:2].max(axis=0))
        np.testing.assert_allclose(out.data[1], data[2:5].max(axis=0))

    def test_segment_max_grad(self):
        seg = np.array([0, 0, 1, 1, 1, 3])
        x = self.rng.normal(size=(6, 2)) + \
            np.arange(12).reshape(6, 2) * 1e-3   # no ties
        check_grad(lambda t: (nn.segment_max(t, seg, 4) ** 2).sum(), x)

    def test_segment_mean(self):
        data = self.rng.normal(size=(4, 2))
        seg = np.array([0, 0, 1, 1])
        out = nn.segment_mean(Tensor(data), seg, 3)
        np.testing.assert_allclose(out.data[0], data[0:2].mean(axis=0))
        np.testing.assert_allclose(out.data[2], 0.0)

    def test_batched_outer_values(self):
        a = self.rng.normal(size=(3, 2))
        b = self.rng.normal(size=(3, 4))
        out = nn.batched_outer(Tensor(a), Tensor(b))
        assert out.shape == (3, 8)
        np.testing.assert_allclose(out.data[1],
                                   np.outer(a[1], b[1]).reshape(-1))

    def test_batched_outer_grad(self):
        b = Tensor(self.rng.normal(size=(3, 4)))
        check_grad(lambda t: (nn.batched_outer(t, b) ** 2).sum(),
                   self.rng.normal(size=(3, 2)))

    def test_batched_outer_grad_second(self):
        a = Tensor(self.rng.normal(size=(3, 2)))
        check_grad(lambda t: (nn.batched_outer(a, t) ** 2).sum(),
                   self.rng.normal(size=(3, 4)))

    def test_spmm(self):
        import scipy.sparse as sp
        mat = sp.random(5, 4, density=0.5, random_state=7, format="csr")
        check_grad(lambda t: (nn.spmm(mat, t) ** 2).sum(),
                   self.rng.normal(size=(4, 3)))

    def test_maximum(self):
        a = self.rng.normal(size=(4, 2))
        b = Tensor(self.rng.normal(size=(4, 2)))
        check_grad(lambda t: nn.maximum(t, b).sum(), a)


class TestAutogradMachinery:
    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with nn.no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_grad_enabled_restored(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach()
        assert not y.requires_grad

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        y = (x * 2 + x * 3).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_backward_through_diamond(self):
        x = Tensor(np.asarray([2.0]), requires_grad=True)
        a = x * 3
        b = x * 4
        y = (a * b).sum()     # y = 12 x^2, dy/dx = 24 x = 48
        y.backward()
        np.testing.assert_allclose(x.grad, [48.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1e-4
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_mse_loss_masked(self):
        pred = Tensor(np.asarray([[1.0, 2.0], [3.0, 4.0]]),
                      requires_grad=True)
        target = np.asarray([[0.0, 0.0], [0.0, 0.0]])
        mask = np.asarray([True, False])
        loss = nn.mse_loss(pred, target, mask=mask)
        np.testing.assert_allclose(loss.data, (1 + 4) / 2)

    def test_mse_loss_empty_mask(self):
        pred = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = nn.mse_loss(pred, np.zeros((2, 2)),
                           mask=np.asarray([False, False]))
        assert float(loss.data) == 0.0


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 8), cols=st.integers(1, 5),
       segs=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_segment_sum_property(rows, cols, segs, seed):
    """segment_sum equals a naive python accumulation for random inputs."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols))
    seg = rng.integers(0, segs, size=rows)
    out = nn.segment_sum(Tensor(data), seg, segs)
    expected = np.zeros((segs, cols))
    for i, s in enumerate(seg):
        expected[s] += data[i]
    rtol, atol = nn.contract_tol()
    np.testing.assert_allclose(out.data, expected, rtol=rtol, atol=atol)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 8), cols=st.integers(1, 4),
       seed=st.integers(0, 10_000))
def test_gather_scatter_roundtrip(rows, cols, seed):
    """scatter(gather(x)) at the same unique indices is the identity."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)))
    k = rng.integers(1, rows + 1)
    idx = rng.permutation(rows)[:k]
    gathered = nn.gather_rows(x, idx)
    back = nn.scatter_rows(x, idx, gathered)
    np.testing.assert_allclose(back.data, x.data)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 10_000))
def test_softmax_rows_sum_to_one(n, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=5, size=(n, 4)))
    s = x.softmax(axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(n),
                               atol=100 * np.finfo(nn.active_dtype()).eps)


# -- fused kernel backend ------------------------------------------------------
#
# Every fused op must agree with the naive composed-op path to tight
# tolerance on values AND gradients (the kernels only reorder
# floating-point arithmetic, they never approximate), and the fused
# gradients must also pass the finite-difference check on their own.
# The tolerance is the contract of the active dtype (1e-9 relative at
# float64, relaxed at float32), read when each comparison runs.
def assert_contract_close(actual, desired):
    rtol, atol = nn.contract_tol()
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol)


def _run_both_backends(build, inputs):
    """Run ``build(*tensors)`` under each backend; return (out, grads)."""
    results = {}
    for backend in ("fused", "naive"):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in inputs]
        with nn.use_kernels(backend):
            out = build(*tensors)
            out.sum().backward()
        results[backend] = (out.data.copy(),
                            [t.grad.copy() for t in tensors])
    return results


def assert_backends_agree(build, inputs):
    res = _run_both_backends(build, inputs)
    out_f, grads_f = res["fused"]
    out_n, grads_n = res["naive"]
    assert_contract_close(out_f, out_n)
    for gf, gn in zip(grads_f, grads_n):
        assert_contract_close(gf, gn)


class TestFusedKernelEquivalence:
    """Differential tests: fused backend == naive backend bit-for-bit
    within tolerance, for every fused op, values and gradients."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_backend_selection(self):
        with nn.use_kernels("naive"):
            assert nn.kernel_backend() == "naive"
            assert not nn.kernels.is_fused()
            with nn.use_kernels("fused"):
                assert nn.kernels.is_fused()
            assert nn.kernel_backend() == "naive"
        with pytest.raises(ValueError):
            nn.use_kernels("turbo")

    def test_affine_act(self):
        x = self.rng.normal(size=(6, 5))
        w = self.rng.normal(size=(5, 4))
        b = self.rng.normal(size=4)

        def composed(xt, wt, bt, act):
            out = xt.affine(wt, bt)
            return out if act is None else getattr(out, act)()

        for act in (None, "relu", "tanh"):
            fused = _run_both_backends(
                lambda xt, wt, bt, a=act: nn.affine_act(
                    xt, wt, bt, activation=a), [x, w, b])["fused"]
            naive = _run_both_backends(
                lambda xt, wt, bt, a=act: composed(xt, wt, bt, a),
                [x, w, b])["naive"]
            assert_contract_close(fused[0], naive[0])
            for gf, gn in zip(fused[1], naive[1]):
                assert_contract_close(gf, gn)

    def test_mlp_module_out_activations(self):
        mlp = nn.MLP(5, 3, np.random.default_rng(3), hidden=8,
                     num_hidden_layers=2)
        x = self.rng.normal(size=(7, 5))
        for act in (None, "tanh", "softplus", "sigmoid", "relu"):
            res = {}
            for backend in ("fused", "naive"):
                xt = Tensor(x.copy(), requires_grad=True)
                mlp.zero_grad()
                with nn.use_kernels(backend):
                    mlp(xt, activation=act).sum().backward()
                res[backend] = (xt.grad.copy(),
                                [p.grad.copy() for p in mlp.parameters()])
            assert_contract_close(res["fused"][0], res["naive"][0])
            for gf, gn in zip(res["fused"][1], res["naive"][1]):
                assert_contract_close(gf, gn)

    def test_mlp_chain_numerical_grad(self):
        rng = np.random.default_rng(5)
        w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b1 = Tensor(rng.normal(size=6), requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        steps = [(w1, b1, "tanh"), (w2, None, None)]
        x0 = rng.normal(size=(5, 4))
        with nn.use_kernels("fused"):
            check_grad(lambda x: nn.mlp_chain(x, steps, out_act="softplus"),
                       x0)

    def test_gather_concat(self):
        a = self.rng.normal(size=(6, 3))
        b = self.rng.normal(size=(6, 2))
        idx = np.array([0, 5, 5, 2])
        plain = self.rng.normal(size=(4, 2))
        assert_backends_agree(
            lambda at, bt, pt: nn.gather_concat(
                [at, bt, pt], [idx, idx, None]),
            [a, b, plain])

    def test_gather_rows_duplicate_index_grad(self):
        x0 = self.rng.normal(size=(5, 3))
        idx = np.array([1, 1, 4, 0, 1])
        with nn.use_kernels("fused"):
            check_grad(lambda x: nn.gather_rows(x, idx) * 2.0, x0)

    def test_gather_add(self):
        t = self.rng.normal(size=(6, 4))
        addend = self.rng.normal(size=(5, 4))
        idx = np.array([3, 3, 0, 1, 5])
        assert_backends_agree(
            lambda tt, at: nn.gather_add(tt, idx, at), [t, addend])

    def test_segment_sum_and_max_csr(self):
        data = self.rng.normal(size=(8, 3))
        seg = np.array([2, 0, 2, 1, 1, 2, 0, 4])
        assert_backends_agree(
            lambda d: nn.segment_sum(d, seg, 5), [data])
        assert_backends_agree(
            lambda d: nn.segment_max(d, seg, 5), [data])

    def test_segment_minmax_one_pass(self):
        data = self.rng.normal(size=(8, 3))
        # Include exact ties so the tie-splitting gradient path runs.
        data[2] = data[0]
        seg = np.array([0, 1, 0, 2, 1, 0, 2, 2])

        def build(d):
            mx, mn = nn.segment_minmax(d, seg, 3)
            return mx * 2.0 + mn

        assert_backends_agree(build, [data])

    def test_segment_minmax_gate(self):
        data = self.rng.normal(size=(9, 4))
        seg = np.array([0, 1, 0, 2, 1, 0, 2, 2, 1])
        logits = self.rng.normal(size=4)
        assert_backends_agree(
            lambda d, g: nn.segment_minmax_gate(d, seg, 3, g), [data, logits])

    def test_segment_minmax_gate_numerical_grad(self):
        seg = np.array([0, 1, 0, 2, 1, 0])
        logits = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)
        x0 = self.rng.normal(size=(6, 3))
        with nn.use_kernels("fused"):
            check_grad(
                lambda x: nn.segment_minmax_gate(x, seg, 3, logits), x0)

    def test_lut_kron_combine(self):
        e = 3
        ax = self.rng.normal(size=(e * 8, 7))
        ay = self.rng.normal(size=(e * 8, 7))
        values = self.rng.normal(size=(e * 8, 49))
        valid = (self.rng.random((e, 8)) > 0.3).astype(float)
        assert_backends_agree(
            lambda a, b: nn.lut_kron_combine(a, b, values, valid), [ax, ay])

    # Also collected in the naive and float32 cell modules, each run
    # with its own instance of this class.
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_segment_ops_property(self, rows, num_segments, seed):
        """Randomized: CSR segment reductions match the naive path for
        arbitrary (possibly empty) segment layouts."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(rows, 2))
        seg = rng.integers(0, num_segments, size=rows)
        assert_backends_agree(
            lambda d: nn.segment_sum(d, seg, num_segments), [data])

        def build(d):
            mx, mn = nn.segment_minmax(d, seg, num_segments)
            return mx - 0.5 * mn

        assert_backends_agree(build, [data])

    def test_segment_schedule_reuse(self):
        data = self.rng.normal(size=(7, 2))
        seg = np.array([1, 0, 1, 2, 0, 1, 2])
        sched = nn.SegmentSchedule(seg)
        with nn.use_kernels("fused"):
            direct = nn.segment_sum(Tensor(data), seg, 3)
            cached = nn.segment_sum(Tensor(data), seg, 3, schedule=sched)
        np.testing.assert_array_equal(direct.data, cached.data)

    def test_backward_free_releases_tape(self):
        x = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(self.rng.normal(size=(3, 2)), requires_grad=True)
        with nn.use_kernels("fused"):
            out = nn.mlp_chain(x, [(w, None, "tanh")])
            loss = out.sum()
            loss.backward(free=True)
        assert x.grad is not None and w.grad is not None
        # The tape was torn down: parents and closures are gone.
        assert loss._parents == () and loss._backward is None
