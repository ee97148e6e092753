"""Timing graph construction and levelization.

Pins become nodes; two edge types mirror the paper's heterogeneous graph:

* **net edges** — net driver pin -> each sink pin;
* **cell edges** — combinational cell input pin -> output pin (one per
  liberty timing arc).

Clock pins are ideal (pre-CTS) and excluded, so register Q pins are graph
sources and register D pins are sinks/endpoints.  Levelization assigns
each node its longest-path depth; STA propagation and the paper's delay
propagation model both walk these levels in order (Sec. 3.1: "the number
of topological levels equals the maximum logic depth").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["NetEdge", "CellEdge", "TimingGraph", "build_timing_graph"]


@dataclass
class NetEdge:
    """A net arc: driver node -> sink node."""

    src: int
    dst: int
    net: object                 # netlist.Net
    sink_pos: int               # index of dst within net.sinks


@dataclass
class CellEdge:
    """A cell arc: input-pin node -> output-pin node."""

    src: int
    dst: int
    cell: object                # netlist.CellInst
    arc: object                 # liberty.TimingArc


class TimingGraph:
    """The heterogeneous pin graph of one design."""

    def __init__(self, design):
        self.design = design
        self.node_pins = []            # node id -> Pin
        self.node_of_pin = {}          # pin index -> node id
        self.net_edges = []
        self.cell_edges = []
        self.level = None              # (num_nodes,) int
        self._in_net = None
        self._in_cell = None
        self._out_net = None
        self._out_cell = None

    # -- shape ---------------------------------------------------------------
    @property
    def num_nodes(self):
        return len(self.node_pins)

    @property
    def num_levels(self):
        return int(self.level.max()) + 1 if self.num_nodes else 0

    def node(self, pin):
        return self.node_of_pin[pin.index]

    # -- adjacency ------------------------------------------------------------
    def _build_adjacency(self):
        self._in_net = [[] for _ in range(self.num_nodes)]
        self._in_cell = [[] for _ in range(self.num_nodes)]
        self._out_net = [[] for _ in range(self.num_nodes)]
        self._out_cell = [[] for _ in range(self.num_nodes)]
        for i, e in enumerate(self.net_edges):
            self._in_net[e.dst].append(i)
            self._out_net[e.src].append(i)
        for i, e in enumerate(self.cell_edges):
            self._in_cell[e.dst].append(i)
            self._out_cell[e.src].append(i)

    def in_net_edges(self, node):
        return self._in_net[node]

    def in_cell_edges(self, node):
        return self._in_cell[node]

    def out_net_edges(self, node):
        return self._out_net[node]

    def out_cell_edges(self, node):
        return self._out_cell[node]

    def fanin_degree(self, node):
        return len(self._in_net[node]) + len(self._in_cell[node])

    def fanout_degree(self, node):
        return len(self._out_net[node]) + len(self._out_cell[node])

    # -- edits -----------------------------------------------------------------
    def resize_cell(self, cell, new_cell_type):
        """Swap ``cell`` to a pin-compatible library cell in place.

        Rebinds the arcs of the cell's edges to the new type.  Returns
        the nets of the cell's timed pins: their loads (input caps) or
        drivers changed.
        """
        if set(new_cell_type.pins) != set(cell.cell_type.pins):
            raise ValueError("resize requires pin-compatible cell types")
        cell.cell_type = new_cell_type
        for edge in self.cell_edges:
            if edge.cell is cell:
                edge.arc = new_cell_type.arc(edge.arc.input_pin,
                                             edge.arc.output_pin)
        return {pin.net for pin in cell.pins.values()
                if not pin.is_clock and pin.net is not None}

    # -- levelization ------------------------------------------------------------
    def levelize(self):
        """Longest-path levels (Kahn's algorithm); raises on cycles."""
        n = self.num_nodes
        indeg = np.zeros(n, dtype=np.int64)
        succ = [[] for _ in range(n)]
        for e in self.net_edges + self.cell_edges:
            succ[e.src].append(e.dst)
            indeg[e.dst] += 1
        level = np.zeros(n, dtype=np.int64)
        queue = deque(int(i) for i in np.nonzero(indeg == 0)[0])
        visited = 0
        while queue:
            node = queue.popleft()
            visited += 1
            for nxt in succ[node]:
                level[nxt] = max(level[nxt], level[node] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if visited != n:
            raise ValueError("timing graph contains a cycle")
        self.level = level
        return level

    def nodes_by_level(self):
        """List of node-id arrays, one per level."""
        out = [[] for _ in range(self.num_levels)]
        for node, lvl in enumerate(self.level):
            out[lvl].append(node)
        return [np.asarray(nodes, dtype=np.int64) for nodes in out]

    def topological_nodes(self):
        """All node ids sorted by level."""
        return np.argsort(self.level, kind="stable")

    # -- classification ------------------------------------------------------------
    def source_nodes(self):
        """Nodes with no fanin: primary inputs and register Q pins."""
        return [n for n in range(self.num_nodes) if self.fanin_degree(n) == 0]

    def endpoint_nodes(self):
        """Register D pins and primary outputs."""
        eps = []
        for node, pin in enumerate(self.node_pins):
            if pin.is_primary_output:
                eps.append(node)
            elif (pin.cell is not None and pin.cell.is_sequential
                  and pin.direction == "input" and not pin.is_clock):
                eps.append(node)
        return eps


def build_timing_graph(design):
    """Build and levelize the timing graph of ``design``."""
    graph = TimingGraph(design)
    for pin in design.pins:
        if pin.is_clock:
            continue
        graph.node_of_pin[pin.index] = len(graph.node_pins)
        graph.node_pins.append(pin)
    for net in design.nets:
        src = graph.node_of_pin[net.driver.index]
        for pos, sink in enumerate(net.sinks):
            graph.net_edges.append(
                NetEdge(src=src, dst=graph.node_of_pin[sink.index],
                        net=net, sink_pos=pos))
    for cell in design.combinational_cells:
        for arc in cell.cell_type.arcs:
            src = graph.node_of_pin[cell.pins[arc.input_pin].index]
            dst = graph.node_of_pin[cell.pins[arc.output_pin].index]
            graph.cell_edges.append(CellEdge(src=src, dst=dst,
                                             cell=cell, arc=arc))
    graph._build_adjacency()
    graph.levelize()
    return graph
