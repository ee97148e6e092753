"""Incremental static timing analysis.

Physical optimization (placement moves, gate sizing, buffering) needs
timing feedback after every small edit; re-running full STA each time is
the exact cost the paper's GNN is built to avoid, and what production
timers solve with incremental updates.  This module implements the
classic cone-update algorithm:

1. an edit (cell move, cell resize) dirties the nets it touches;
2. dirty nets are re-routed and their RC trees re-extracted;
3. arrival/slew recompute level by level through the *fanout cone* of
   the dirty pins only, terminating early at nodes whose values did not
   move (within a tolerance);
4. endpoint required times are static (clock period + setup/hold), so
   endpoint slack — WNS/TNS — is exact after the forward pass.  Full
   per-node required times can be refreshed on demand.

The incremental result is bit-identical (within tolerance) to a full
re-analysis; `tests/test_incremental.py` checks this on random edit
sequences.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..liberty.cell import CORNERS
from ..routing.rctree import extract_rc_tree
from ..routing.router import RoutedNet
from ..routing.steiner import build_steiner_tree
from .engine import (PO_MARGIN_FRAC, _propagate_backward,
                     _set_required_at_endpoints, compute_node,
                     init_source_node)

__all__ = ["IncrementalTimer"]


class IncrementalTimer:
    """Keeps a design's timing up to date across placement/netlist edits.

    Parameters are the artefacts of a completed full analysis; the
    timer mutates ``placement``, ``routing`` and ``result`` in place as
    edits arrive.
    """

    def __init__(self, design, placement, routing, graph, result,
                 tolerance=1e-9):
        self.design = design
        self.placement = placement
        self.routing = routing
        self.graph = graph
        self.result = result
        self.tolerance = tolerance
        self.last_update_nodes = 0     # instrumentation: cone size

    # -- edits -----------------------------------------------------------------
    def move_cell(self, cell, new_xy):
        """Move a cell instance to ``new_xy`` and update timing."""
        return self.update(self.placement.move_cell(cell, new_xy))

    def resize_cell(self, cell, new_cell_type):
        """Swap a cell to a different library cell with identical pins."""
        return self.update(self.graph.resize_cell(cell, new_cell_type))

    def update(self, nets):
        """Re-route ``nets`` and re-time the fanout cone of their pins.

        ``nets`` are the nets one or more edits touched.  At
        ``tolerance=0`` one call over their union times the design
        exactly as one call per edit would.
        """
        self._reroute(nets)
        self._update_forward(self._seeds_for_nets(nets))
        return self

    # -- queries ---------------------------------------------------------------
    def wns(self, mode="setup"):
        return self.result.wns(mode)

    def tns(self, mode="setup"):
        return self.result.tns(mode)

    def refresh_required(self):
        """Recompute all per-node required times (full backward pass)."""
        self.result.required[:] = np.nan
        _set_required_at_endpoints(self.graph, self.result,
                                   self.result.clock_period,
                                   po_margin_frac=PO_MARGIN_FRAC)
        _propagate_backward(self.graph, self.routing, self.result)
        return self

    # -- internals ---------------------------------------------------------------
    def _reroute(self, nets):
        wire = self.design.library.wire
        for net in nets:
            coords = self.placement.pin_xy[[p.index for p in net.pins]]
            tree = build_steiner_tree(coords)
            rc = {}
            for corner in CORNERS:
                base = 0 if corner == "early" else 2
                caps_r = np.asarray([
                    self.design.pin_capacitance(s)[base] for s in net.sinks])
                caps_f = np.asarray([
                    self.design.pin_capacitance(s)[base + 1]
                    for s in net.sinks])
                rc[corner] = extract_rc_tree(tree, 0.5 * (caps_r + caps_f),
                                             wire, corner)
            self.routing.nets[net.name] = RoutedNet(net, tree, rc)
            driver_node = self.graph.node_of_pin[net.driver.index]
            self.result.load_cap[driver_node, 0] = rc["early"].total_cap
            self.result.load_cap[driver_node, 1] = rc["late"].total_cap

    def _seeds_for_nets(self, nets):
        """Nodes whose timing is directly touched by re-routed nets."""
        seeds = set()
        for net in nets:
            # Sinks see new interconnect delay; the driver sees a new
            # load, which changes the cell arcs *into* the driver.
            seeds.add(self.graph.node_of_pin[net.driver.index])
            for sink in net.sinks:
                seeds.add(self.graph.node_of_pin[sink.index])
        return seeds

    def _update_forward(self, seeds):
        """Cone-limited forward update from the seed nodes."""
        graph, result = self.graph, self.result
        level = graph.level
        heap = [(int(level[n]), int(n)) for n in seeds]
        heapq.heapify(heap)
        queued = set(seeds)
        visited = 0
        default_slew = self.design.library.default_input_slew
        while heap:
            _lvl, node = heapq.heappop(heap)
            queued.discard(node)
            visited += 1
            if graph.fanin_degree(node) == 0:
                changed = init_source_node(graph, result, node,
                                           default_slew)
            else:
                changed = compute_node(graph, routing=self.routing,
                                       result=result, node=node,
                                       tolerance=self.tolerance)
            if not changed:
                continue
            for ei in graph.out_net_edges(node):
                dst = graph.net_edges[ei].dst
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (int(level[dst]), int(dst)))
            for ei in graph.out_cell_edges(node):
                dst = graph.cell_edges[ei].dst
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (int(level[dst]), int(dst)))
        self.last_update_nodes = visited
