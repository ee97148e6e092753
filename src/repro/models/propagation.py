"""Delay propagation model (paper Sec. 3.3.2).

Mirrors a timing engine's levelized propagation: node state flows through
the DAG level by level, alternating net propagation and cell propagation
layers.  Every node is updated exactly once (asynchronously, in level
order), so a single pass covers arbitrarily deep logic — this is the
paper's answer to the receptive-field problem of conventional GNNs.

Two kinds of state propagate together, exactly as in an STA engine:

* a bounded context vector ``h_prop`` (tanh-limited; the learned
  analogue of slew/load bookkeeping) — unbounded recurrent states would
  diverge over the up-to-hundreds of levels a design has;
* an unbounded 4-channel **arrival accumulator**: every net or cell arc
  adds a softplus-positive learned increment to its source's arrival
  (delays are non-negative, so arrivals are monotone along paths), and
  multi-arc fanin is fused per channel by a learned max/min gate (late
  corners are max-reduced in real STA, early corners min-reduced).

Slew is *not* cumulative — it is a local function of driver strength and
load — so it is predicted from the propagated context by a head rather
than accumulated.  The paper describes the whole construction as "a
timing engine learned from data with neural networks as function
approximators"; the additive arrival structure is what keeps the
effective receptive field unbounded while gradients stay conditioned
(every increment sees the loss directly, like a residual network).

Cell propagation embeds a learned **NLDM LUT interpolation** module: two
MLPs produce interpolation coefficients for the slew axis and the load
axis of each 7x7 look-up table; their Kronecker (outer) product yields a
7x7 coefficient matrix which is dotted with the LUT values — a learnable
generalisation of the bilinear interpolation a real STA engine performs.
The cell-arc arrival increment *is* the model's cell delay prediction,
tying the auxiliary task of Eq. (5) to the quantity used inside
propagation.
"""

from __future__ import annotations

import weakref

import numpy as np

from .. import nn
from ..nn.arena import NULL_ARENA, arena_enabled
from .config import ModelConfig
from .net_embedding import num_reduction_channels, reduction_channels

__all__ = ["LUTInterpolation", "LUTFlattenMLP", "DelayPropagation"]


class LUTInterpolation(nn.Module):
    """Learned interpolation over the 8 stacked LUTs of a cell arc."""

    def __init__(self, cfg, rng):
        super().__init__()
        q = cfg.lut_query_dim
        mlp = dict(hidden=cfg.lut_mlp_hidden,
                   num_hidden_layers=cfg.lut_mlp_layers)
        self.query = nn.MLP(cfg.prop_dim + cfg.embedding_dim, q, rng, **mlp)
        self.coeff_x = nn.MLP(q + 7, 7, rng, **mlp)
        self.coeff_y = nn.MLP(q + 7, 7, rng, **mlp)

    def forward(self, h_src_prop, h_dst_emb, valid, indices, values,
                cache=None):
        """Per-edge LUT outputs.

        ``valid`` (E, 8), ``indices`` (E, 112), ``values`` (E, 392);
        returns (E, 8) — one interpolated value per LUT.  The query sees
        the source context (which carries the input-slew information a
        real NLDM lookup is indexed by) and the destination embedding
        (which carries the load statistics).  ``cache`` is an optional
        :class:`repro.graphdata.hetero.LevelCompute` holding the
        per-level query expansion and index/value reshapes precomputed,
        so full-batch training does not rebuild them every forward.
        """
        e = len(valid)
        q = self.query(nn.concat([h_src_prop, h_dst_emb]),
                       activation="tanh")
        if cache is None:
            # Expand the query to one row per (edge, table).
            rep = np.repeat(np.arange(e), 8)
            rep_sched = None
            idx = np.asarray(indices).reshape(e * 8, 14)
            idx_x, idx_y = idx[:, :7], idx[:, 7:]
            vals = np.asarray(values).reshape(e * 8, 49)
        else:
            rep, rep_sched = cache.lut_rep, cache.lut_rep_sched
            idx_x, idx_y = cache.lut_idx_x, cache.lut_idx_y
            vals = cache.lut_values
        q8 = nn.gather_rows(q, rep, schedule=rep_sched)
        ax = self.coeff_x(nn.concat([q8, nn.Tensor(idx_x)]))
        ay = self.coeff_y(nn.concat([q8, nn.Tensor(idx_y)]))
        # Kronecker combination of the two axis-coefficient vectors,
        # dotted with the LUT value matrix.
        return nn.lut_kron_combine(ax, ay, vals, np.asarray(valid))


class LUTFlattenMLP(nn.Module):
    """Ablation alternative to :class:`LUTInterpolation`: a plain MLP on
    the flattened 512-dim LUT features.  No interpolation structure —
    this is what a generic heterogeneous GNN would do with the cell
    library, and what the Kronecker module is benchmarked against."""

    def __init__(self, cfg, rng):
        super().__init__()
        in_dim = cfg.prop_dim + cfg.embedding_dim + 8 + 112 + 392
        self.net = nn.MLP(in_dim, 8, rng, hidden=cfg.lut_mlp_hidden,
                          num_hidden_layers=cfg.lut_mlp_layers)

    def forward(self, h_src_prop, h_dst_emb, valid, indices, values,
                cache=None):
        out = self.net(nn.concat([
            h_src_prop, h_dst_emb, nn.Tensor(np.asarray(valid)),
            nn.Tensor(np.asarray(indices)), nn.Tensor(np.asarray(values))]))
        return out * nn.Tensor(np.asarray(valid))


class DelayPropagation(nn.Module):
    """Levelized arrival-time / slew propagation with auxiliary heads."""

    def __init__(self, cfg=None, rng=None):
        super().__init__()
        cfg = cfg or ModelConfig.paper()
        rng = rng or np.random.default_rng(cfg.seed + 1)
        self.cfg = cfg
        d_emb, d_prop = cfg.embedding_dim, cfg.prop_dim
        mlp = dict(hidden=cfg.mlp_hidden, num_hidden_layers=cfg.mlp_layers)
        # Sources (primary inputs, register Q pins) initialise from the
        # net embedding, which carries the load statistics the CK->Q
        # launch delay depends on.
        self.source_init = nn.MLP(d_emb, d_prop, rng, **mlp)
        self.source_at = nn.MLP(d_emb, 4, rng, **mlp)
        # Net propagation layer: [prop(driver), emb(sink), edge feats].
        self.net_prop = nn.MLP(d_prop + d_emb + cfg.net_edge_feat_dim,
                               d_prop, rng, **mlp)
        self.net_inc = nn.MLP(d_prop + d_emb + cfg.net_edge_feat_dim,
                              4, rng, **mlp)
        # Cell propagation: learned LUT lookup + message + two reduction
        # channels (sum, max), like the cell-arc max in an STA engine.
        self.reduction = cfg.reduction
        n_ch = num_reduction_channels(cfg.reduction)
        if cfg.lut_mode == "kron":
            self.lut = LUTInterpolation(cfg, rng)
        elif cfg.lut_mode == "mlp":
            self.lut = LUTFlattenMLP(cfg, rng)
        else:
            raise ValueError(f"unknown lut_mode {cfg.lut_mode!r}")
        self.cell_msg = nn.MLP(d_prop + d_emb + 8, d_prop, rng, **mlp)
        self.cell_inc = nn.MLP(d_prop + 8, 4, rng, **mlp)
        self.cell_combine = nn.MLP(d_emb + n_ch * d_prop, d_prop, rng, **mlp)
        # Per-channel gate mixing max- and min-aggregation of fanin
        # arrival candidates.
        self.agg_gate = nn.Tensor(np.zeros(4), requires_grad=True)
        # Output heads: signed arrival refinement and positive slew.
        self.refine_at = nn.MLP(d_emb + d_prop, 4, rng, **mlp)
        self.slew_head = nn.MLP(d_emb + d_prop, 4, rng, **mlp)

    def forward(self, graph, h_emb):
        """Propagate through ``graph.levels``.

        Returns (atslew (N, 8), cell_delay (E_cell, 4) aligned with
        ``edge_order``, edge_order).

        Under the fused kernel backend the level loop runs through
        :func:`_fused_propagate` — the shared net and cell steps
        (:class:`PropagationSteps`) as one multi-output tape node over
        shared state buffers; the composed per-op path below is the
        reference (and the path of the ``mlp`` LUT ablation).
        """
        if nn.kernels.is_fused() and _runs_steps(self):
            h_prop, at, cell_delay, edge_order = _fused_propagate(
                self, graph, h_emb)
        else:
            h_prop, at, cell_delay, edge_order = self._propagate(
                graph, h_emb)
        return self.heads(h_emb, h_prop, at), cell_delay, edge_order

    def heads(self, h_emb, h_prop, at):
        """Output heads over node rows: (rows, 8) refined arrival |
        positive slew, from the embedding, context and arrival state."""
        state = nn.concat([h_emb, h_prop])
        arrival = at + self.refine_at(state)
        slew = self.slew_head(state, activation="softplus")
        return nn.concat([arrival, slew])

    def _propagate(self, graph, h_emb):
        """Composed per-op level loop; returns (h_prop, at, cell_delay,
        edge_order)."""
        n = graph.num_nodes
        sched = graph.compute_schedule()
        h_prop = nn.Tensor(np.zeros((n, self.cfg.prop_dim)))
        at = nn.Tensor(np.zeros((n, 4)))
        sources = sched.sources
        if len(sources):
            h_emb_src = nn.gather_rows(h_emb, sources)
            h_prop = nn.scatter_rows(
                h_prop, sources,
                self.source_init(h_emb_src, activation="tanh"))
            at = nn.scatter_rows(
                at, sources,
                self.source_at(h_emb_src, activation="softplus"))

        delay_chunks, delay_orders = [], []
        for lv in sched.levels:
            idx_parts, ctx_parts, at_parts = [], [], []
            if len(lv.net_eids):
                joint = nn.gather_concat(
                    [h_prop, h_emb, lv.net_features],
                    [lv.net_src, lv.net_dst, None],
                    schedules=[lv.net_src_sched, lv.net_dst_sched, None])
                # Every net sink has exactly one driver, so the edge list
                # itself indexes the destination nodes uniquely.
                idx_parts.append(lv.net_dst)
                ctx_parts.append(self.net_prop(joint, activation="tanh"))
                at_parts.append(nn.gather_add(
                    at, lv.net_src,
                    self.net_inc(joint, activation="softplus"),
                    schedule=lv.net_src_sched))
            if len(lv.cell_eids):
                h_s = nn.gather_rows(h_prop, lv.cell_src,
                                     schedule=lv.cell_src_sched)
                h_d = nn.gather_rows(h_emb, lv.cell_dst_edges,
                                     schedule=lv.cell_dst_sched)
                lut_out = self.lut(h_s, h_d, lv.cell_valid,
                                   lv.cell_indices, lv.cell_values,
                                   cache=lv)
                msg = self.cell_msg(nn.concat([h_s, h_d, lut_out]),
                                    activation="tanh")
                inc = self.cell_inc(nn.concat([msg, lut_out]),
                                    activation="softplus")
                # The arrival increment is the cell delay itself (Eq. 5).
                delay_chunks.append(inc)
                delay_orders.append(lv.cell_eids)
                cand = nn.gather_add(at, lv.cell_src, inc,
                                     schedule=lv.cell_src_sched)
                n_dst = len(lv.cell_dst)
                # One-pass fanin reduction: late corners max-reduced,
                # early corners min-reduced, mixed by the learned gate.
                at_new = nn.segment_minmax_gate(
                    cand, lv.cell_seg, n_dst, self.agg_gate,
                    schedule=lv.cell_seg_sched)
                aggs = reduction_channels(msg, lv.cell_seg, n_dst,
                                          self.reduction,
                                          schedule=lv.cell_seg_sched)
                h_d_u = nn.gather_rows(h_emb, lv.cell_dst)
                ctx = self.cell_combine(nn.concat([h_d_u] + aggs),
                                        activation="tanh")
                idx_parts.append(lv.cell_dst)
                ctx_parts.append(ctx)
                at_parts.append(at_new)
            if idx_parts:
                index = np.concatenate(idx_parts)
                ctx_vals = (ctx_parts[0] if len(ctx_parts) == 1
                            else nn.concat(ctx_parts, axis=0))
                at_vals = (at_parts[0] if len(at_parts) == 1
                           else nn.concat(at_parts, axis=0))
                h_prop = nn.scatter_rows(h_prop, index, ctx_vals)
                at = nn.scatter_rows(at, index, at_vals)

        if delay_chunks:
            cell_delay = (delay_chunks[0] if len(delay_chunks) == 1
                          else nn.concat(delay_chunks, axis=0))
            edge_order = np.concatenate(delay_orders)
        else:
            cell_delay = nn.Tensor(np.zeros((0, 4)))
            edge_order = np.zeros(0, dtype=np.int64)
        return h_prop, at, cell_delay, edge_order


def _runs_steps(model):
    """True when the step driver can run ``model``: the paper's ``kron``
    LUT mode (the ``mlp`` ablation runs only the composed path)."""
    return isinstance(model.lut, LUTInterpolation)


def _release_saved(alloc, saved):
    """Return one MLP chain's saved activations to the arena.

    ``saved`` is the ``(inputs, outputs, out)`` tuple of
    :func:`repro.nn.kernels.mlp_chain_forward_raw`.  Only ``outputs``
    (plus the distinct ``out_act`` copy) were allocated by the chain —
    ``inputs[0]`` is the caller's buffer and ``inputs[k>0]`` alias
    ``outputs[k-1]``, so releasing those too would double-release.
    """
    _inputs, outputs, out = saved
    for buf in outputs:
        alloc.release(buf)
    if not outputs or out is not outputs[-1]:
        alloc.release(out)


def _take_rows(alloc, grad, index):
    """Extract ``grad[index]`` into an arena buffer, then zero those rows:
    a written row's pre-write value is the initial zero, whose gradient
    is discarded (``scatter_rows``' mask)."""
    rows = alloc.take((len(index), grad.shape[1]), grad.dtype)
    grad.take(index, axis=0, out=rows)
    grad[index] = 0.0
    return rows


class PropagationSteps:
    """The net and cell propagation steps of one :class:`DelayPropagation`
    over raw arrays, with their hand-ordered backwards.

    Each step reads the pre-level state (``hp`` context, ``atb`` arrival
    accumulator, ``he`` net embedding) through a level view — the cached
    :class:`~repro.graphdata.hetero.LevelCompute` or a
    :meth:`~repro.graphdata.hetero.LevelCompute.subset` of it — and
    returns the new rows for the driver to write plus a record of every
    buffer it took from ``alloc``.  With ``save`` the record keeps what
    the step's backward reads; :meth:`release` returns a record's
    buffers to the arena.

    Every backward is built from the raw kernel gradients of
    :mod:`repro.nn.kernels`, accumulates into the full-graph gradient
    buffers ``ghp``/``gat``/``ghe``, and consumes (releases) the
    gradients and the record handed to it.
    """

    def __init__(self, model, dtype, save, alloc):
        cfg = model.cfg
        self.m = model
        self.dtype = dtype
        self.save = save
        self.alloc = alloc
        self.d_prop, self.d_emb = cfg.prop_dim, cfg.embedding_dim
        self.q_dim = cfg.lut_query_dim
        self.reduction = model.reduction
        self.gate = 1.0 / (1.0 + np.exp(-np.clip(model.agg_gate.data,
                                                 -60, 60)))

    def _mlp(self, h, mlp, out_act=None):
        """``(out, kept)``: ``kept`` is the chain's saved activations
        (``out`` is their last entry) or, without ``save``, ``out``."""
        out, saved = nn.kernels.mlp_chain_forward_raw(
            h, mlp.fused_steps(), out_act=out_act, save=self.save,
            alloc=self.alloc)
        return out, (out if saved is None else saved)

    def _mlp_bwd(self, g, mlp, saved, out_act=None):
        return nn.kernels.mlp_chain_backward_raw(
            g, mlp.fused_steps(), saved, out_act=out_act, alloc=self.alloc)

    def release(self, rec):
        """Return every buffer of a step record to the arena."""
        for item in rec.values():
            if isinstance(item, tuple):
                _release_saved(self.alloc, item)
            elif item is not None:
                self.alloc.release(item)

    # -- forward -------------------------------------------------------------
    def source(self, he, rows):
        """Source initialisation from the net embedding: ``(ctx, at,
        rec)`` for ``rows``."""
        he_src = self.alloc.take((len(rows), he.shape[1]), self.dtype)
        he.take(rows, axis=0, out=he_src)
        ctx, s_ctx = self._mlp(he_src, self.m.source_init, "tanh")
        at, s_at = self._mlp(he_src, self.m.source_at, "softplus")
        return ctx, at, {"he_src": he_src, "s_ctx": s_ctx, "s_at": s_at}

    def net(self, lv, hp, he, atb):
        """Net propagation over ``lv``'s net edges: ``(ctx, at, rec)``
        for the sinks ``lv.net_dst``."""
        joint = nn.kernels.gather_concat_raw(
            [hp, he, lv.net_features], [lv.net_src, lv.net_dst, None],
            alloc=self.alloc)
        ctx, s_ctx = self._mlp(joint, self.m.net_prop, "tanh")
        inc, s_inc = self._mlp(joint, self.m.net_inc, "softplus")
        at = self.alloc.take((len(lv.net_src), 4), self.dtype)
        atb.take(lv.net_src, axis=0, out=at)
        at += inc
        return ctx, at, {"joint": joint, "s_ctx": s_ctx, "s_inc": s_inc,
                         "at": at}

    def cell(self, lv, hp, he, atb):
        """Cell propagation over ``lv``'s cell fanin segments: ``(ctx,
        at, rec, inc)`` — new rows for ``lv.cell_dst`` and the per-edge
        arrival increment, which is the cell delay itself (Eq. 5)."""
        kernels = nn.kernels
        gcat = kernels.gather_concat_raw
        alloc, dtype = self.alloc, self.dtype
        e, q_dim, n_dst = len(lv.cell_src), self.q_dim, len(lv.cell_dst)
        seg = lv.cell_seg_sched
        rec = {}
        rec["q_in"] = q_in = gcat([hp, he], [lv.cell_src, lv.cell_dst_edges],
                                  alloc=alloc)
        q, rec["s_q"] = self._mlp(q_in, self.m.lut.query, "tanh")
        # The query expansion to one row per (edge, table) is a plain
        # row repeat (and its gradient a reshape-sum).
        q8 = alloc.take((e * 8, q_dim), dtype)
        q8.reshape(e, 8, q_dim)[...] = q[:, None, :]
        rec["ax_in"] = ax_in = gcat([q8, lv.lut_idx_x], [None, None],
                                    alloc=alloc)
        rec["ay_in"] = ay_in = gcat([q8, lv.lut_idx_y], [None, None],
                                    alloc=alloc)
        alloc.release(q8)
        ax, rec["s_ax"] = self._mlp(ax_in, self.m.lut.coeff_x)
        ay, rec["s_ay"] = self._mlp(ay_in, self.m.lut.coeff_y)
        lut_out, rec["vy"] = kernels.lut_kron_forward_raw(
            ax, ay, lv.lut_values, lv.cell_valid, alloc)
        rec["msg_in"] = msg_in = gcat([q_in, lut_out], [None, None],
                                      alloc=alloc)
        msg, rec["s_msg"] = self._mlp(msg_in, self.m.cell_msg, "tanh")
        rec["cinc_in"] = cinc_in = gcat([msg, lut_out], [None, None],
                                        alloc=alloc)
        alloc.release(lut_out)
        inc, rec["s_cinc"] = self._mlp(cinc_in, self.m.cell_inc, "softplus")
        rec["cand"] = cand = alloc.take((e, 4), dtype)
        atb.take(lv.cell_src, axis=0, out=cand)
        cand += inc
        # One-pass fanin reduction: late corners max-reduced, early
        # corners min-reduced, mixed by the learned gate.
        at, rec["out_max"], rec["out_min"] = kernels.segment_minmax_gate_raw(
            cand, seg, n_dst, self.gate, alloc)
        rec["at"] = at
        aggs = []
        if self.reduction in ("sum", "both"):
            agg = alloc.take((n_dst, self.d_prop), dtype, zero=True)
            kernels.scatter_add_rows(agg, lv.cell_seg, msg, schedule=seg,
                                     alloc=alloc)
            aggs.append(agg)
        rec["agg_max"] = None
        if self.reduction in ("max", "both"):
            rec["agg_max"] = kernels.segment_extrema_raw(
                msg, seg, n_dst, np.maximum, alloc=alloc)
            aggs.append(rec["agg_max"])
        rec["comb_in"] = comb_in = gcat(
            [he] + aggs, [lv.cell_dst] + [None] * len(aggs), alloc=alloc)
        if self.reduction in ("sum", "both"):
            alloc.release(aggs[0])
        ctx, rec["s_comb"] = self._mlp(comb_in, self.m.cell_combine, "tanh")
        return ctx, at, rec, inc

    # -- backward ------------------------------------------------------------
    def source_backward(self, rows, rec, ghp, gat, ghe):
        g_ctx = _take_rows(self.alloc, ghp, rows)
        g_src = self._mlp_bwd(g_ctx, self.m.source_init, rec["s_ctx"],
                              "tanh")
        g_at = _take_rows(self.alloc, gat, rows)
        g_src2 = self._mlp_bwd(g_at, self.m.source_at, rec["s_at"],
                               "softplus")
        g_src += g_src2
        ghe[rows] += g_src
        self.alloc.release_all((g_ctx, g_at, g_src, g_src2))
        self.release(rec)

    def net_backward(self, lv, rec, ghp, gat, ghe):
        scatter_add = nn.kernels.scatter_add_rows
        alloc, d_prop = self.alloc, self.d_prop
        g_ctx = _take_rows(alloc, ghp, lv.net_dst)
        g_at = _take_rows(alloc, gat, lv.net_dst)
        scatter_add(gat, lv.net_src, g_at, schedule=lv.net_src_sched,
                    alloc=alloc)
        g_joint = self._mlp_bwd(g_ctx, self.m.net_prop, rec["s_ctx"], "tanh")
        g_j2 = self._mlp_bwd(g_at, self.m.net_inc, rec["s_inc"], "softplus")
        g_joint += g_j2
        alloc.release_all((g_j2, g_ctx, g_at))
        scatter_add(ghp, lv.net_src, g_joint[:, :d_prop],
                    schedule=lv.net_src_sched, alloc=alloc)
        # Each net sink has exactly one driver: unique rows.
        ghe[lv.net_dst] += g_joint[:, d_prop:d_prop + self.d_emb]
        alloc.release(g_joint)
        self.release(rec)

    def cell_backward(self, lv, rec, g_inc, ghp, gat, ghe, g_gate):
        """``g_inc`` is the cell-delay output gradient of the level's
        edges (or None); ``g_gate`` accumulates the gate's pre-sigmoid
        gradient sum."""
        kernels, m, mlp_bwd = nn.kernels, self.m, self._mlp_bwd
        alloc, dtype = self.alloc, self.dtype
        d_prop, d_emb, q_dim = self.d_prop, self.d_emb, self.q_dim
        seg = lv.cell_seg_sched
        e = len(lv.cell_eids)
        g_ctx = _take_rows(alloc, ghp, lv.cell_dst)
        g_at = _take_rows(alloc, gat, lv.cell_dst)
        # combine MLP <- [h_emb(dst) | reduction channels].
        g_comb = mlp_bwd(g_ctx, m.cell_combine, rec["s_comb"], "tanh")
        alloc.release(g_ctx)
        ghe[lv.cell_dst] += g_comb[:, :d_emb]
        col = d_emb
        g_msg = None
        if self.reduction in ("sum", "both"):
            g_msg = alloc.take((e, d_prop), dtype)
            g_comb[:, col:col + d_prop].take(lv.cell_seg, axis=0, out=g_msg)
            col += d_prop
        if self.reduction in ("max", "both"):
            part = kernels.segment_extrema_backward_raw(
                rec["s_msg"][2], rec["agg_max"], g_comb[:, col:col + d_prop],
                seg, alloc)
            if g_msg is None:
                g_msg = part
            else:
                g_msg += part
                alloc.release(part)
        alloc.release(g_comb)
        g_cand, g_gate_part = kernels.segment_minmax_gate_backward_raw(
            g_at, rec["cand"], rec["out_max"], rec["out_min"], self.gate,
            seg, alloc)
        g_gate += g_gate_part
        alloc.release(g_at)
        kernels.scatter_add_rows(gat, lv.cell_src, g_cand,
                                 schedule=lv.cell_src_sched, alloc=alloc)
        if g_inc is not None:
            g_cand += g_inc
        # cell_inc MLP <- [msg | lut_out].
        g_ci = mlp_bwd(g_cand, m.cell_inc, rec["s_cinc"], "softplus")
        alloc.release(g_cand)
        g_msg += g_ci[:, :d_prop]
        # cell_msg MLP <- [h_s | h_d | lut_out].
        g_mi = mlp_bwd(g_msg, m.cell_msg, rec["s_msg"], "tanh")
        alloc.release(g_msg)
        g_lut = alloc.take((e, 8), dtype)
        np.add(g_ci[:, d_prop:], g_mi[:, d_prop + d_emb:], out=g_lut)
        alloc.release(g_ci)
        g_ax, g_ay = kernels.lut_kron_backward_raw(
            g_lut, rec["s_ax"][2], rec["vy"], lv.lut_values, lv.cell_valid,
            alloc)
        alloc.release(g_lut)
        g_axi = mlp_bwd(g_ax, m.lut.coeff_x, rec["s_ax"])
        g_ayi = mlp_bwd(g_ay, m.lut.coeff_y, rec["s_ay"])
        alloc.release_all((g_ax, g_ay))
        g_q8 = alloc.take((e * 8, q_dim), dtype)
        np.add(g_axi[:, :q_dim], g_ayi[:, :q_dim], out=g_q8)
        alloc.release_all((g_axi, g_ayi))
        g_q = alloc.take((e, q_dim), dtype)
        np.add.reduce(g_q8.reshape(e, 8, q_dim), axis=1, out=g_q)
        alloc.release(g_q8)
        g_qi = mlp_bwd(g_q, m.lut.query, rec["s_q"], "tanh")
        alloc.release(g_q)
        # q_in and msg_in share the [h_s | h_d] prefix.
        g_hs = alloc.take((e, d_prop), dtype)
        np.add(g_qi[:, :d_prop], g_mi[:, :d_prop], out=g_hs)
        g_hd = alloc.take((e, d_emb), dtype)
        np.add(g_qi[:, d_prop:], g_mi[:, d_prop:d_prop + d_emb], out=g_hd)
        alloc.release_all((g_qi, g_mi))
        kernels.scatter_add_rows(ghp, lv.cell_src, g_hs,
                                 schedule=lv.cell_src_sched, alloc=alloc)
        kernels.scatter_add_rows(ghe, lv.cell_dst_edges, g_hd,
                                 schedule=lv.cell_dst_sched, alloc=alloc)
        alloc.release_all((g_hs, g_hd))
        self.release(rec)


def propagate_levels(steps, sched, he, hp, atb, sources, cell_delay,
                     frontier):
    """The step driver: run the source, net and cell steps level by level.

    Writes the new rows into ``hp``/``atb`` in place.  Every node is
    written at exactly one level and read only at later ones, and each
    level's writes land after both of its steps have read the pre-level
    state.  Three modes:

    * **record** (``steps.save``): returns the step records that
      :func:`reverse_levels` sweeps backwards;
    * **no-grad full forward**: every level, each level's buffers
      released once its rows are written;
    * **dirty frontier**: ``frontier.view(lv)`` returns the level view
      to recompute (a subset, or None to skip the level) and each write
      is bit-compared against the cached row, marking
      ``frontier.node_dirty`` only where the state moved — so the
      frontier stops at unchanged rows.  ``frontier`` is None otherwise.

    ``cell_delay`` (or None) receives the per-edge cell delays in level
    order.
    """
    save = steps.save

    def write(index, ctx, at, rec):
        if frontier is not None:
            changed = (np.any(ctx != hp[index], axis=1) |
                       np.any(at != atb[index], axis=1))
            frontier.node_dirty[index[changed]] = True
        hp[index] = ctx
        atb[index] = at
        if not save:
            steps.release(rec)
        return rec

    src_rec = None
    if len(sources):
        src_rec = write(sources, *steps.source(he, sources))

    recs = []
    chunk = 0
    for lv in sched.levels:
        view = lv if frontier is None else frontier.view(lv)
        if view is None:
            continue
        net = cell = None
        if len(view.net_eids):
            net = steps.net(view, hp, he, atb)
        lo = chunk
        if len(view.cell_eids):
            cell = steps.cell(view, hp, he, atb)
            chunk += len(view.cell_eids)
            if cell_delay is not None:
                cell_delay[lo:chunk] = cell[3]
        # Writes after both steps' reads; net sinks and cell outputs are
        # disjoint rows.
        net_rec = cell_rec = None
        if net is not None:
            net_rec = write(view.net_dst, *net)
        if cell is not None:
            cell_rec = write(view.cell_dst, *cell[:3])
        if save:
            recs.append((net_rec, cell_rec, lo))
    return (src_rec, recs) if save else None


def reverse_levels(steps, sched, record, ghp, gat, ghe, g_gate, g_cd):
    """Reverse sweep of a recorded :func:`propagate_levels` pass.

    ``ghp``/``gat`` hold the output gradients of the context and arrival
    state (consumed level by level); parameter gradients accumulate in
    place, the ``h_emb`` gradient into ``ghe`` and the gate's into
    ``g_gate``.  ``g_cd`` is the cell-delay output gradient, or None.
    """
    src_rec, recs = record
    for lv, (net_rec, cell_rec, lo) in zip(reversed(sched.levels),
                                           reversed(recs)):
        # Cell sources lie at earlier levels than the net sinks, so the
        # cell backward leaves the net rows' gradients untouched.
        if cell_rec is not None:
            g_inc = (None if g_cd is None
                     else g_cd[lo:lo + len(lv.cell_eids)])
            steps.cell_backward(lv, cell_rec, g_inc, ghp, gat, ghe, g_gate)
        if net_rec is not None:
            steps.net_backward(lv, net_rec, ghp, gat, ghe)
    if src_rec is not None:
        steps.source_backward(sched.sources, src_rec, ghp, gat, ghe)


def _fused_propagate(model, graph, h_emb):
    """Level-fused propagation: the whole loop as ONE fused tape node.

    The composed path creates tens of tape nodes per topological level,
    and deep designs have hundreds of levels, so the tape bookkeeping
    rivals the arithmetic.  Here :func:`propagate_levels` updates two
    shared state buffers in place, and one backward closure runs
    :func:`reverse_levels` with ONE gradient buffer per state.

    Intermediates come from the graph schedule's
    :class:`~repro.nn.arena.TapeArena` when it is free (leased for the
    forward + backward episode), so steady-state training allocates
    nothing fresh; buffers that escape (outputs, parameter and
    ``h_emb`` gradients) are always fresh.  Runs in ``h_emb``'s dtype
    and matches the composed path within the fused==naive contract.

    Returns ``(h_prop, at, cell_delay, edge_order)``; the first three
    are glue nodes around the shared backward closure, which fires once
    all output gradients are in.
    """
    he = h_emb.data
    dtype = he.dtype
    sched = graph.compute_schedule(dtype=dtype)
    n = graph.num_nodes
    save = nn.is_grad_enabled()

    plan = token = None
    if arena_enabled():
        plan = sched.arena("train" if save else "infer")
        token = plan.begin()
    alloc = plan if token is not None else NULL_ARENA
    steps = PropagationSteps(model, dtype, save, alloc)

    # Outputs escape the mega-op as tensor data: always fresh.
    hp = np.zeros((n, model.cfg.prop_dim), dtype=dtype)
    atb = np.zeros((n, 4), dtype=dtype)
    cell_eids = [lv.cell_eids for lv in sched.levels]
    edge_order = (np.concatenate(cell_eids) if cell_eids
                  else np.zeros(0, dtype=np.int64))
    cell_delay = np.zeros((len(edge_order), 4), dtype=dtype)
    record = propagate_levels(steps, sched, he, hp, atb, sched.sources,
                              cell_delay, None)
    if not save and token is not None:
        plan.end(token)

    # -- backward: one closure consuming all three output gradients ----------
    holder = {}

    def mega_backward(_g):
        ghp, gat = alloc.take(hp.shape, dtype), alloc.take(atb.shape, dtype)
        for buf, key in ((ghp, "hp"), (gat, "at")):
            seed = holder.pop(key, None)
            buf[...] = 0.0 if seed is None else seed
        # h_emb's gradient and the gate gradient escape: always fresh.
        ghe = np.zeros_like(he)
        g_gate = np.zeros_like(model.agg_gate.data)
        reverse_levels(steps, sched, record, ghp, gat, ghe, g_gate,
                       holder.pop("cd", None))
        alloc.release_all((ghp, gat))
        if token is not None:
            plan.end(token)
        if model.agg_gate.requires_grad:
            gate = steps.gate
            model.agg_gate._accumulate(g_gate * gate * (1.0 - gate),
                                       own=True)
        if h_emb.requires_grad:
            h_emb._accumulate(ghe, own=True)

    # The heads' parameters ride along as untouched leaf parents.
    root = nn.Tensor._make(np.zeros((), dtype=dtype),
                           (h_emb, *model.parameters()), mega_backward)
    if save and token is not None:
        # If the tape is abandoned (never backpropagated), recover the
        # arena lease when the root dies; end() is idempotent per token,
        # so the normal mega_backward release wins when it runs first.
        weakref.finalize(root, plan.end, token)

    def _output(data, key):
        # Glue node: stashes its gradient and pokes the root so the
        # shared closure fires exactly once, after every used output's
        # gradient has been accumulated (reverse-topological order).
        def backward(g):
            holder[key] = g
            root._accumulate(np.zeros((), dtype=dtype))

        return nn.Tensor._make(data, (root,), backward)

    return (_output(hp, "hp"), _output(atb, "at"),
            _output(cell_delay, "cd"), edge_order)
