"""Models: shapes, determinism, gradient flow, architectural invariants."""

import numpy as np
import pytest

from repro import nn
from repro.models import (GCNII, DelayPropagation, LUTInterpolation,
                          ModelConfig, NetEmbedding, TimingGNN,
                          normalized_adjacency)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig.fast()


class TestNetEmbedding:
    def test_output_shapes(self, hetero, cfg):
        model = NetEmbedding(cfg)
        emb, net_delay = model(hetero)
        assert emb.shape == (hetero.num_nodes, cfg.embedding_dim)
        assert net_delay.shape == (hetero.num_nodes, 4)

    def test_three_layers_by_default(self):
        model = NetEmbedding(ModelConfig.paper())
        assert len(model.layers) == 3

    def test_deterministic_given_seed(self, hetero, cfg):
        a = NetEmbedding(cfg)
        b = NetEmbedding(cfg)
        np.testing.assert_allclose(a(hetero)[0].data, b(hetero)[0].data)

    def test_embedding_bounded(self, hetero, cfg):
        emb, _nd = NetEmbedding(cfg)(hetero)
        assert np.all(np.abs(emb.data) <= 1.0)

    def test_gradient_reaches_every_parameter(self, hetero, cfg):
        model = NetEmbedding(cfg)
        _emb, net_delay = model(hetero)
        net_delay.sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_broadcast_uses_driver_features(self, hetero, cfg):
        """Perturbing one driver's features must change its sinks'
        embeddings (information flows driver -> sink)."""
        model = NetEmbedding(cfg)
        base, _ = model(hetero)
        driver = int(hetero.net_src[0])
        sink = int(hetero.net_dst[0])
        perturbed = hetero.node_features.copy()
        perturbed[driver, 2] += 0.5
        import dataclasses
        hetero2 = dataclasses.replace(hetero, node_features=perturbed)
        out2, _ = model(hetero2)
        assert not np.allclose(base.data[sink], out2.data[sink])

    def test_reduction_uses_sink_features(self, hetero, cfg):
        """Perturbing a sink's features must change its driver's
        embedding (information flows sink -> driver)."""
        model = NetEmbedding(cfg)
        base, _ = model(hetero)
        driver = int(hetero.net_src[0])
        sink = int(hetero.net_dst[0])
        perturbed = hetero.node_features.copy()
        perturbed[sink, 6] += 0.5
        import dataclasses
        hetero2 = dataclasses.replace(hetero, node_features=perturbed)
        out2, _ = model(hetero2)
        assert not np.allclose(base.data[driver], out2.data[driver])


class TestLUTInterpolation:
    def test_output_shape(self, cfg, rng):
        module = LUTInterpolation(cfg, rng)
        e = 5
        out = module(
            nn.Tensor(rng.normal(size=(e, cfg.prop_dim))),
            nn.Tensor(rng.normal(size=(e, cfg.embedding_dim))),
            np.ones((e, 8)), rng.normal(size=(e, 112)),
            rng.normal(size=(e, 392)))
        assert out.shape == (e, 8)

    def test_invalid_tables_masked(self, cfg, rng):
        module = LUTInterpolation(cfg, rng)
        e = 3
        valid = np.ones((e, 8))
        valid[:, 4:] = 0.0
        out = module(
            nn.Tensor(rng.normal(size=(e, cfg.prop_dim))),
            nn.Tensor(rng.normal(size=(e, cfg.embedding_dim))),
            valid, rng.normal(size=(e, 112)), rng.normal(size=(e, 392)))
        np.testing.assert_allclose(out.data[:, 4:], 0.0)
        assert np.any(out.data[:, :4] != 0.0)

    def test_linear_in_lut_values(self, cfg, rng):
        """For fixed coefficients, the output is linear in LUT values —
        the Kronecker coefficient matrix is a dot product with them."""
        module = LUTInterpolation(cfg, rng)
        e = 4
        h_s = nn.Tensor(rng.normal(size=(e, cfg.prop_dim)))
        h_d = nn.Tensor(rng.normal(size=(e, cfg.embedding_dim)))
        valid = np.ones((e, 8))
        idx = rng.normal(size=(e, 112))
        vals = rng.normal(size=(e, 392))
        out1 = module(h_s, h_d, valid, idx, vals).data
        out2 = module(h_s, h_d, valid, idx, 2.0 * vals).data
        np.testing.assert_allclose(out2, 2.0 * out1, rtol=1e-9)


class TestDelayPropagation:
    def test_shapes(self, hetero, cfg, rng):
        emb = nn.Tensor(rng.normal(size=(hetero.num_nodes,
                                         cfg.embedding_dim)))
        model = DelayPropagation(cfg)
        atslew, cell_delay, order = model(hetero, emb)
        assert atslew.shape == (hetero.num_nodes, 8)
        assert cell_delay.shape == (hetero.num_cell_edges, 4)
        assert set(order.tolist()) == set(range(hetero.num_cell_edges))

    def test_cell_delays_positive(self, hetero, cfg, rng):
        emb = nn.Tensor(rng.normal(size=(hetero.num_nodes,
                                         cfg.embedding_dim)))
        _a, cell_delay, _o = DelayPropagation(cfg)(hetero, emb)
        assert np.all(cell_delay.data > 0)

    def test_slew_positive(self, hetero, cfg, rng):
        emb = nn.Tensor(rng.normal(size=(hetero.num_nodes,
                                         cfg.embedding_dim)))
        atslew, _c, _o = DelayPropagation(cfg)(hetero, emb)
        assert np.all(atslew.data[:, 4:8] > 0)

    def test_arrival_grows_with_depth(self, hetero, cfg, rng):
        """Positive increments force deeper nodes to (weakly) larger
        accumulated arrivals on average — the monotone STA structure."""
        emb = nn.Tensor(rng.normal(size=(hetero.num_nodes,
                                         cfg.embedding_dim)))
        atslew, _c, _o = DelayPropagation(cfg)(hetero, emb)
        arrival = atslew.data[:, 0]
        shallow = arrival[hetero.level <= 1].mean()
        deep = arrival[hetero.level >= hetero.level.max() - 1].mean()
        assert deep > shallow


class TestTimingGNN:
    def test_full_forward_shapes(self, hetero, cfg):
        pred = TimingGNN(cfg)(hetero)
        assert pred.atslew.shape == (hetero.num_nodes, 8)
        assert pred.net_delay.shape == (hetero.num_nodes, 4)
        assert pred.arrival.shape == (hetero.num_nodes, 4)
        assert pred.slew.shape == (hetero.num_nodes, 4)

    def test_predict_has_no_tape(self, hetero, cfg):
        pred = TimingGNN(cfg).predict(hetero)
        assert not pred.atslew.requires_grad

    def test_gradient_reaches_every_parameter(self, hetero, cfg):
        from repro.training import combined_loss
        model = TimingGNN(cfg)
        loss, _parts = combined_loss(model(hetero), hetero)
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no grad for: {missing[:5]}"

    def test_cell_delay_full_reorders(self, hetero, cfg):
        pred = TimingGNN(cfg).predict(hetero)
        full = pred.cell_delay_full(hetero.num_cell_edges)
        assert full.shape == (hetero.num_cell_edges, 4)
        # Row for the first visited edge matches the chunked output.
        first_edge = pred.edge_order[0]
        np.testing.assert_allclose(full[first_edge], pred.cell_delay.data[0])

    def test_state_dict_roundtrip_preserves_output(self, hetero, cfg):
        a = TimingGNN(cfg)
        state = a.state_dict()
        b = TimingGNN(ModelConfig.fast())
        b.load_state_dict(state)
        np.testing.assert_allclose(a.predict(hetero).atslew.data,
                                   b.predict(hetero).atslew.data)

    def test_works_on_multiple_designs(self, hetero_pair, cfg):
        model = TimingGNN(cfg)
        for graph in hetero_pair:
            pred = model.predict(graph)
            assert np.all(np.isfinite(pred.atslew.data))


class TestGCNII:
    def test_normalized_adjacency_symmetric(self, hetero):
        p = normalized_adjacency(hetero)
        diff = (p - p.T)
        assert abs(diff).max() < 1e-12

    def test_normalized_adjacency_spectrum_bounded(self, hetero):
        p = normalized_adjacency(hetero)
        # Symmetric normalization keeps eigenvalues in [-1, 1]; check via
        # power iteration upper bound using the infinity norm of P^k x.
        x = np.ones(hetero.num_nodes) / np.sqrt(hetero.num_nodes)
        for _ in range(20):
            x = p @ x
            norm = np.linalg.norm(x)
            assert norm <= 1.0 + 1e-9
            if norm == 0:
                break
            x /= norm

    def test_self_loops_present(self, hetero):
        p = normalized_adjacency(hetero).tocsr()
        assert np.all(p.diagonal() > 0)

    def test_forward_shape(self, hetero, cfg):
        model = GCNII(4, cfg)
        out = model(hetero)
        assert out.shape == (hetero.num_nodes, 8)

    def test_layer_count_respected(self, cfg):
        assert len(GCNII(8, cfg).weights) == 8

    def test_deeper_model_more_params(self, cfg):
        assert GCNII(16, cfg).num_parameters() > GCNII(4, cfg).num_parameters()

    def test_gradients_flow(self, hetero, cfg):
        model = GCNII(4, cfg)
        model(hetero).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_alpha_zero_removes_initial_residual(self, hetero, cfg):
        """With alpha=1 every layer output is dominated by H0 — the
        initial residual connection of Eq. (3) is live."""
        m_residual = GCNII(4, cfg, alpha=1.0, beta=0.0)
        out = m_residual(hetero)
        h0 = m_residual.input_proj(nn.Tensor(hetero.node_features)).relu()
        np.testing.assert_allclose(out.data,
                                   m_residual.head(h0.relu()).data)


class TestAblationConfigs:
    """The ablation switches produce working models (benchmarked in
    benchmarks/test_ablations.py)."""

    def _forward_backward(self, hetero, cfg):
        from repro.training import combined_loss
        model = TimingGNN(cfg)
        loss, _parts = combined_loss(model(hetero), hetero)
        loss.backward()
        assert np.isfinite(float(loss.data))
        assert all(p.grad is not None for p in model.parameters())
        return model

    def test_sum_only_reduction(self, hetero):
        import dataclasses
        cfg = dataclasses.replace(ModelConfig.fast(), reduction="sum")
        self._forward_backward(hetero, cfg)

    def test_max_only_reduction(self, hetero):
        import dataclasses
        cfg = dataclasses.replace(ModelConfig.fast(), reduction="max")
        self._forward_backward(hetero, cfg)

    def test_invalid_reduction_rejected(self, hetero):
        import dataclasses
        cfg = dataclasses.replace(ModelConfig.fast(), reduction="median")
        with pytest.raises(ValueError):
            TimingGNN(cfg)(hetero)

    def test_lut_mlp_mode(self, hetero):
        import dataclasses
        cfg = dataclasses.replace(ModelConfig.fast(), lut_mode="mlp")
        self._forward_backward(hetero, cfg)

    def test_invalid_lut_mode_rejected(self):
        import dataclasses
        cfg = dataclasses.replace(ModelConfig.fast(), lut_mode="bilinear")
        with pytest.raises(ValueError):
            TimingGNN(cfg)

    def test_variants_differ_in_output(self, hetero):
        import dataclasses
        base = TimingGNN(ModelConfig.fast()).predict(hetero).atslew.data
        alt_cfg = dataclasses.replace(ModelConfig.fast(), reduction="sum")
        alt = TimingGNN(alt_cfg).predict(hetero).atslew.data
        assert not np.allclose(base, alt)


class TestFusedModelDifferential:
    """Full-model fused vs. naive backend equivalence.

    The fused backend (mlp_chain, gather_concat, CSR segment kernels,
    the level-fused propagation mega-op) must reproduce the composed
    op-by-op path within :func:`repro.nn.contract_tol` on outputs, loss
    and every parameter gradient — the kernels reorder floating point
    arithmetic but never approximate.  ``test_contracts.py`` repeats
    this check in every dtype and arena cell.
    """

    def _run(self, model, hetero, backend):
        from repro.training.loss import combined_loss
        model.zero_grad()
        with nn.use_kernels(backend):
            pred = model(hetero)
            loss, _parts = combined_loss(pred, hetero)
            loss.backward()
        return (pred.atslew.data.copy(), float(loss.data),
                {name: p.grad.copy()
                 for name, p in model.named_parameters()
                 if p.grad is not None})

    def test_forward_backward_match(self, hetero, cfg):
        rtol, atol = nn.contract_tol()
        model = TimingGNN(cfg)
        at_f, loss_f, grads_f = self._run(model, hetero, "fused")
        at_n, loss_n, grads_n = self._run(model, hetero, "naive")
        np.testing.assert_allclose(at_f, at_n, rtol=rtol, atol=atol)
        assert loss_f == pytest.approx(loss_n, rel=rtol)
        assert set(grads_f) == set(grads_n)
        for name in grads_n:
            np.testing.assert_allclose(
                grads_f[name], grads_n[name], rtol=rtol, atol=atol,
                err_msg=f"gradient mismatch: {name}")

    def test_fused_propagate_dispatch(self, hetero, cfg):
        """kron-mode propagation takes the level-fused path; predictions
        carry no tape (inference) and match the naive path."""
        model = TimingGNN(cfg)
        with nn.use_kernels("fused"):
            pred_f = model.predict(hetero)
        with nn.use_kernels("naive"):
            pred_n = model.predict(hetero)
        assert pred_f.atslew._parents == ()  # no_grad: tape-free
        rtol, atol = nn.contract_tol()
        for field in ("atslew", "net_delay", "cell_delay"):
            np.testing.assert_allclose(
                getattr(pred_f, field).data, getattr(pred_n, field).data,
                rtol=rtol, atol=atol)
        np.testing.assert_array_equal(pred_f.edge_order, pred_n.edge_order)
