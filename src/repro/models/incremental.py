"""Cone-limited incremental forward for :class:`TimingGNN`.

The delta serving path (:mod:`repro.serving.delta`) applies small ECO
edits to a cached :class:`~repro.graphdata.hetero.HeteroGraph` and wants
fresh predictions without re-running the whole levelized propagation.
This module caches the propagation state of the last forward pass and,
given the dirty feature rows reported by
:class:`~repro.graphdata.patch.GraphPatcher`, re-executes only the
levels/segments downstream of the touched pins:

* the **net embedding** is recomputed per net: every net convolution
  passes messages only between a driver and its sinks, and every pin is
  the driver or a sink of exactly one net, so a pin's embedding depends
  on its own net alone — whatever the layer count.  Only the nets with
  a dirty pin or dirty net edge are re-embedded, through a
  :class:`~repro.graphdata.hetero.NetSubgraph` view, and their rows are
  bit-compared against the cached embedding — the exact per-node dirty
  set of the embedding stage;
* the **propagation loop** then re-runs with a dirty-frontier mask over
  the cached :class:`~repro.graphdata.hetero.LevelSchedule`: a net edge
  recomputes iff its driver state, sink embedding or edge features
  changed; a cell fanin segment recomputes (all of its edges together,
  so the segment reduction stays bit-identical) iff any input changed.
  Rows whose recomputed state equals the cached state bit for bit stop
  the frontier — exactly the early-termination rule of
  :class:`~repro.sta.incremental.IncrementalTimer`.

Both passes run the propagation model's own net and cell steps
(:class:`~repro.models.propagation.PropagationSteps`) through its step
driver (:func:`~repro.models.propagation.propagate_levels`): a full
refresh is the driver's no-grad full forward, a cone refresh its
dirty-frontier mode over level subsets whose segment reductions keep
the full pass's per-segment order — so a cone refresh can only
*over*-invalidate, never drift.  Full refreshes (the first one, and
any after a structural edit) embed the whole graph, and a model the
driver cannot run (the ``mlp`` LUT ablation) refreshes with a
whole-graph no-grad forward every time.  The differential harness in
``tests/test_delta.py`` pins incremental == full forward (arrival,
slew and net delay) within the dtype contract tolerance across edit
kinds, LUT modes and kernel backends.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graphdata.hetero import NetSubgraph
from ..nn.arena import NULL_ARENA
from .propagation import (PropagationSteps, _runs_steps,
                          propagate_levels)

__all__ = ["IncrementalForwardState"]


def _merge_deltas(deltas):
    """Union a list of DirtyDeltas -> (structural, nodes, net, cell)."""
    structural = any(d.structural for d in deltas)
    if structural:
        return True, None, None, None
    nodes = [d.nodes for d in deltas if len(d.nodes)]
    nets = [d.net_eids for d in deltas if len(d.net_eids)]
    cells = [d.cell_eids for d in deltas if len(d.cell_eids)]
    cat = lambda parts: (np.unique(np.concatenate(parts)) if parts  # noqa: E731
                         else np.empty(0, dtype=np.int64))
    return False, cat(nodes), cat(nets), cat(cells)


def _touched_net_pins(graph, nodes, net_eids):
    """Every pin (ascending) of the nets that have a dirty pin in
    ``nodes`` or a dirty edge in ``net_eids``.  A net is a driver plus
    its sinks; a driver without sinks is a net of its own."""
    driver = np.arange(graph.num_nodes)
    driver[graph.net_dst] = graph.net_src
    pins = np.zeros(graph.num_nodes, dtype=bool)
    pins[driver[nodes]] = True
    pins[graph.net_src[net_eids]] = True
    pins[graph.net_dst[pins[graph.net_src]]] = True
    return np.nonzero(pins)[0]


class IncrementalForwardState:
    """Cached forward state of one (model, live graph) pair.

    ``refresh`` brings ``arrival``/``slew``/``net_delay`` up to date
    with the patched graph; ``version`` tracks the patcher version the
    state corresponds to, so the owning session knows which dirty log
    entries still need replaying.
    """

    def __init__(self, model):
        self.model = model
        self.version = -1          # patcher version this state matches
        self.he = None             # (N, d_emb) net embedding
        self.hp = None             # (N, d_prop) propagation context
        self.atb = None            # (N, 4) arrival accumulator
        self.arrival = None        # (N, 4) refined arrival head
        self.slew = None           # (N, 4) slew head
        self.net_delay = None      # (N, 4) net-delay head

    def invalidate(self):
        """Drop all cached state (structural edit / new graph object)."""
        self.he = self.hp = self.atb = None
        self.arrival = self.slew = self.net_delay = None

    # -- refresh -----------------------------------------------------------
    def refresh(self, graph, deltas, version):
        """Re-predict after ``deltas`` (DirtyDeltas since last refresh).

        Returns instrumentation: ``{"full": bool, "dirty_nodes": int}``.
        """
        structural, nodes, net_eids, cell_eids = _merge_deltas(deltas)
        prop = self.model.propagation
        full = structural or self.he is None or not _runs_steps(prop)
        if not full and not deltas and self.version == version:
            return {"full": False, "dirty_nodes": 0}
        if full:
            self.invalidate()

        n = graph.num_nodes
        embed = self.model.net_embedding.forward
        if full:
            with nn.no_grad():
                he_t, nd_t = embed(graph)
            he, self.net_delay = he_t.data, nd_t.data
        else:
            pins = _touched_net_pins(graph, nodes, net_eids)
            with nn.no_grad():
                he_t, nd_t = embed(NetSubgraph(graph, pins))
            he, self.net_delay = self.he.copy(), self.net_delay.copy()
            he[pins] = he_t.data
            self.net_delay[pins] = nd_t.data
            emb_dirty = np.zeros(n, dtype=bool)
            emb_dirty[pins] = np.any(he[pins] != self.he[pins], axis=1)
        if not _runs_steps(prop):
            with nn.no_grad():
                atslew = prop.forward(graph, he_t)[0].data
            self.arrival, self.slew = atslew[:, :4], atslew[:, 4:]
            self.version = version
            return {"full": True, "dirty_nodes": n}

        sched = graph.compute_schedule(dtype=he.dtype)
        steps = PropagationSteps(prop, he.dtype, False, NULL_ARENA)
        if full:
            self.hp = np.zeros((n, prop.cfg.prop_dim), dtype=he.dtype)
            self.atb = np.zeros((n, 4), dtype=he.dtype)
            self.arrival = np.zeros((n, 4), dtype=he.dtype)
            self.slew = np.zeros((n, 4), dtype=he.dtype)
            propagate_levels(steps, sched, he, self.hp, self.atb,
                             sched.sources, None, None)
            rows = np.arange(n)
        else:
            frontier = _Frontier(graph, emb_dirty, net_eids, cell_eids)
            sources = sched.sources[emb_dirty[sched.sources]]
            propagate_levels(steps, sched, he, self.hp, self.atb, sources,
                             None, frontier)
            rows = np.nonzero(frontier.node_dirty | emb_dirty)[0]
        self.he = he
        if len(rows):
            with nn.no_grad():
                atslew = prop.heads(nn.Tensor(he[rows]),
                                    nn.Tensor(self.hp[rows]),
                                    nn.Tensor(self.atb[rows])).data
            self.arrival[rows] = atslew[:, :4]
            self.slew[rows] = atslew[:, 4:]
        self.version = version
        return {"full": full, "dirty_nodes": len(rows)}


class _Frontier:
    """Dirty-frontier selection for one cone refresh (the rules of the
    module docstring).  ``node_dirty`` is live: the step driver marks
    the rows whose state moved as it writes each level."""

    def __init__(self, graph, emb_dirty, net_eids, cell_eids):
        self.emb_dirty = emb_dirty
        self.node_dirty = np.zeros(graph.num_nodes, dtype=bool)
        self.net_feat_dirty = np.zeros(graph.num_net_edges, dtype=bool)
        self.net_feat_dirty[net_eids] = True
        self.lut_dirty = np.zeros(graph.num_cell_edges, dtype=bool)
        self.lut_dirty[cell_eids] = True

    def view(self, lv):
        """The subset of level ``lv`` to recompute, or None."""
        node_dirty, emb_dirty = self.node_dirty, self.emb_dirty
        net_rows = np.nonzero(node_dirty[lv.net_src] |
                              emb_dirty[lv.net_dst] |
                              self.net_feat_dirty[lv.net_eids])[0]
        edge_sel = (node_dirty[lv.cell_src] |
                    emb_dirty[lv.cell_dst_edges] |
                    self.lut_dirty[lv.cell_eids])
        segs = np.unique(np.concatenate(
            [lv.cell_seg[edge_sel], np.nonzero(emb_dirty[lv.cell_dst])[0]]))
        if not len(net_rows) and not len(segs):
            return None
        return lv.subset(net_rows, segs)
