"""In-place incremental patching of an extracted :class:`HeteroGraph`.

ECO loops (gate sizing, buffering, legalization nudges) edit a handful
of cells and re-query timing thousands of times.  A model prediction
reads only features, so an edit changes the design and patches the
feature rows it touched; it never routes and never runs STA:

* ``move_cell`` moves the cell in the placement
  (:meth:`~repro.placement.placer.Placement.move_cell`, the same move
  the incremental timer makes) and rewrites the moved pins'
  boundary-distance columns and their net-edge distance rows;
* ``resize_cell`` swaps the cell type and rebinds its arcs
  (:meth:`~repro.sta.graph.TimingGraph.resize_cell`), then rewrites the
  pins' capacitance columns and the cell-edge LUT rows.  Resizing a
  register also rewrites its D-pin endpoint ``required`` rows: they
  follow the static rule of :func:`~repro.sta.engine.endpoint_required`
  and feed served slack;
* ``insert_buffer`` / ``remove_buffer`` change the netlist structure
  (node/edge counts change), so they rebuild the timing graph and run
  the label-free feature pass of :mod:`repro.graphdata.extract`.

Patched rows land in the flat ``HeteroGraph`` arrays and in the cached
per-level :class:`~repro.graphdata.hetero.LevelCompute` copies, so the
cached ``LevelSchedule`` CSR layouts survive the edit.  Every edit bumps
the graph version, records the nets it dirtied and returns a
:class:`DirtyDelta` naming the feature rows it invalidated; the
incremental model forward (:mod:`repro.models.incremental`) uses those
as its dirty frontier.

Ground-truth labels are computed lazily, by
:meth:`GraphPatcher.materialize`.  With no routing or STA result yet (a
label-free start, or after a structural edit) it routes the design and
runs full STA at the session's fixed clock period.  Otherwise it
re-routes the nets dirtied since the last label pass and runs one cone
update from their pins.  The serving layer answers a degraded delta
request only from labels that describe the current version; past the
request deadline it returns a 504 rather than start this pass.

The differential harness in ``tests/test_delta.py`` pins the contract:
after any edit sequence, the patched arrays equal a from-scratch
re-extraction bit for bit (labels after ``materialize()``, at 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..obs import get_tracer
from ..sta.engine import endpoint_required
from .extract import extract_features, write_labels
from .hetero import CAP_SCALE, DIST_SCALE, TIME_SCALE

__all__ = ["EditError", "DirtyDelta", "GraphPatcher", "parse_edits",
           "EDIT_OPS"]

EDIT_OPS = ("move_cell", "resize_cell", "insert_buffer", "remove_buffer")

_EMPTY = np.empty(0, dtype=np.int64)


class EditError(ValueError):
    """A malformed or inapplicable edit (maps to HTTP 400)."""


def _require(edit, op, *fields):
    for name in fields:
        if name not in edit:
            raise EditError(f"edit op {op!r} requires field {name!r}")


def parse_edits(raw):
    """Validate a JSON edit list; returns normalized edit dicts.

    Supported ops::

        {"op": "move_cell",   "cell": name, "x": um, "y": um}
        {"op": "resize_cell", "cell": name, "cell_type": lib_cell}
        {"op": "insert_buffer", "net": name, "sink": pin_name,
         "buffer_cell": lib_cell?, "name": buf_name?, "new_net": name?}
        {"op": "remove_buffer", "name": buf_name}
    """
    if not isinstance(raw, list):
        raise EditError("edits must be a list of edit objects")
    edits = []
    for pos, edit in enumerate(raw):
        if not isinstance(edit, dict):
            raise EditError(f"edit #{pos} is not an object")
        op = edit.get("op")
        if op not in EDIT_OPS:
            raise EditError(f"edit #{pos}: unknown op {op!r} "
                            f"(expected one of {', '.join(EDIT_OPS)})")
        if op == "move_cell":
            _require(edit, op, "cell", "x", "y")
            try:
                edit = {"op": op, "cell": str(edit["cell"]),
                        "x": float(edit["x"]), "y": float(edit["y"])}
            except (TypeError, ValueError) as exc:
                raise EditError(f"edit #{pos}: bad coordinates: {exc}")
            if not (math.isfinite(edit["x"]) and math.isfinite(edit["y"])):
                raise EditError(f"edit #{pos}: coordinates must be finite")
        elif op == "resize_cell":
            _require(edit, op, "cell", "cell_type")
            edit = {"op": op, "cell": str(edit["cell"]),
                    "cell_type": str(edit["cell_type"])}
        elif op == "insert_buffer":
            _require(edit, op, "net", "sink")
            edit = {"op": op, "net": str(edit["net"]),
                    "sink": str(edit["sink"]),
                    "buffer_cell": str(edit.get("buffer_cell", "BUF_X2")),
                    "name": (str(edit["name"]) if edit.get("name")
                             else None),
                    "new_net": (str(edit["new_net"]) if edit.get("new_net")
                                else None)}
        else:   # remove_buffer
            _require(edit, op, "name")
            edit = {"op": op, "name": str(edit["name"])}
        edits.append(edit)
    return edits


@dataclass
class DirtyDelta:
    """Feature rows invalidated by one edit.

    ``structural`` means node/edge counts changed (buffer edits): every
    cached forward state for the graph must be rebuilt from scratch.
    """

    structural: bool = False
    nodes: np.ndarray = field(default_factory=lambda: _EMPTY)
    net_eids: np.ndarray = field(default_factory=lambda: _EMPTY)
    cell_eids: np.ndarray = field(default_factory=lambda: _EMPTY)


class GraphPatcher:
    """Keeps one design's :class:`HeteroGraph` live across ECO edits.

    Owns the artefact chain of ONE design (design, placement, timing
    graph, extraction, and the routing and STA result once labels
    exist) and mutates it in place.  ``routing`` and ``result`` may be
    None; ``hetero`` must carry ``result``'s labels when they are
    given.  The serving layer holds one patcher per delta session,
    built label-free from the cached base graph's design, placement
    seed and clock period, so the shared graph cache entry itself is
    never mutated.
    """

    def __init__(self, design, placement, routing, graph, result, hetero):
        self.design = design
        self.placement = placement
        self.routing = routing
        self.graph = graph
        self.result = result
        self.hetero = hetero
        self.clock_period = hetero.clock_period
        self.version = 0
        # The version the label arrays describe; None before any labels.
        self.labels_version = None if result is None else 0
        self._dirty_nets = set()     # nets edited since the last labels
        # LIFO of (buffer cell, split net, detached sink, new net):
        # the structural revert relies on append-only design arrays.
        self._buffer_stack = []
        self._n_buffers = 0
        self._bind()

    # -- index structures --------------------------------------------------
    def _bind(self):
        """(Re)build lookup tables after construction or a rebuild."""
        if not self.hetero.levels and self.hetero.num_nodes:
            self.hetero.build_levels()
        self._cells = {cell.name: cell for cell in self.design.cells}
        self._nets = {net.name: net for net in self.design.nets}
        self._cell_eids = {}
        for eid, edge in enumerate(self.graph.cell_edges):
            self._cell_eids.setdefault(id(edge.cell), []).append(eid)
        # eid -> (level index, position inside the level) so patched rows
        # land in the cached LevelCompute copies too.
        h = self.hetero
        self._net_lvl = np.full(h.num_net_edges, -1, dtype=np.int64)
        self._net_pos = np.full(h.num_net_edges, -1, dtype=np.int64)
        self._cell_lvl = np.full(h.num_cell_edges, -1, dtype=np.int64)
        self._cell_pos = np.full(h.num_cell_edges, -1, dtype=np.int64)
        for li, block in enumerate(h.levels):
            self._net_lvl[block.net_eids] = li
            self._net_pos[block.net_eids] = np.arange(len(block.net_eids))
            self._cell_lvl[block.cell_eids] = li
            self._cell_pos[block.cell_eids] = np.arange(
                len(block.cell_eids))

    def _cell_nodes(self, cell):
        """Graph nodes of a cell's timed (non-clock, connected) pins."""
        nodes = []
        for pin in cell.pins.values():
            if pin.is_clock or pin.net is None:
                continue
            nodes.append(int(self.graph.node_of_pin[pin.index]))
        return np.asarray(sorted(nodes), dtype=np.int64)

    def _lookup_cell(self, name):
        cell = self._cells.get(name)
        if cell is None:
            raise EditError(f"no cell named {name!r}")
        return cell

    # -- edits -------------------------------------------------------------
    def apply(self, edit):
        """Apply one parsed edit; bumps the version, returns DirtyDelta."""
        op = edit["op"]
        with get_tracer().span("graphdata.patch", op=op,
                               design=self.design.name):
            if op == "move_cell":
                delta = self._move_cell(edit)
            elif op == "resize_cell":
                delta = self._resize_cell(edit)
            elif op == "insert_buffer":
                delta = self._insert_buffer(edit)
            elif op == "remove_buffer":
                delta = self._remove_buffer(edit)
            else:
                raise EditError(f"unknown edit op {op!r}")
        self.version += 1
        return delta

    def _move_cell(self, edit):
        cell = self._lookup_cell(edit["cell"])
        self._dirty_nets |= self.placement.move_cell(
            cell, (edit["x"], edit["y"]))
        nodes = self._cell_nodes(cell)
        die = self.placement.die
        h = self.hetero
        for node in nodes:
            pin = self.graph.node_pins[node]
            h.node_features[node, 2:6] = die.boundary_distances(
                self.placement.pin_xy[pin.index]) / DIST_SCALE
        moved = np.zeros(h.num_nodes, dtype=bool)
        moved[nodes] = True
        eids = np.nonzero(moved[h.net_src] | moved[h.net_dst])[0]
        self._patch_net_features(eids)
        return DirtyDelta(nodes=nodes, net_eids=eids)

    def _resize_cell(self, edit):
        cell = self._lookup_cell(edit["cell"])
        try:
            new_type = self.design.library[edit["cell_type"]]
        except KeyError:
            raise EditError(f"no library cell {edit['cell_type']!r}")
        try:
            self._dirty_nets |= self.graph.resize_cell(cell, new_type)
        except ValueError as exc:          # pin-incompatible swap
            raise EditError(str(exc))
        nodes = self._cell_nodes(cell)
        h = self.hetero
        for node in nodes:
            pin = self.graph.node_pins[node]
            h.node_features[node, 6:10] = \
                self.design.pin_capacitance(pin) / CAP_SCALE
        eids = np.asarray(self._cell_eids.get(id(cell), []),
                          dtype=np.int64)
        for eid in eids:
            self._patch_cell_edge(int(eid))
        # A register's setup/hold moved its D-pin endpoint rows.
        endpoints = nodes[h.is_endpoint[nodes]]
        h.required[endpoints] = endpoint_required(
            self.graph, endpoints, self.clock_period) / TIME_SCALE
        return DirtyDelta(nodes=nodes, cell_eids=eids)

    def _insert_buffer(self, edit):
        net = self._nets.get(edit["net"])
        if net is None:
            raise EditError(f"no net named {edit['net']!r}")
        sink_pin = next((p for p in net.sinks if p.name == edit["sink"]),
                        None)
        if sink_pin is None:
            raise EditError(f"net {net.name!r} has no sink pin "
                            f"{edit['sink']!r}")
        try:
            buffer_type = self.design.library[edit["buffer_cell"]]
        except KeyError:
            raise EditError(f"no library cell {edit['buffer_cell']!r}")
        name = edit["name"] or f"deltabuf{self._n_buffers}"
        if name in self._cells:
            raise EditError(f"cell name {name!r} already exists")
        net_name = edit["new_net"] or f"{name}_net"
        if net_name in self._nets:
            raise EditError(f"net name {net_name!r} already exists")
        self._n_buffers += 1

        # Same structural recipe as repro.opt.buffering: detach the sink,
        # drive it through a buffer placed at the arc midpoint.
        placement = self.placement
        driver_pin = net.driver
        buf = self.design.add_cell(name, buffer_type)
        net.sinks.remove(sink_pin)
        self.design.connect(net, buf.pins["A"])
        new_net = self.design.add_net(net_name, buf.pins["Y"], [sink_pin])
        mid = 0.5 * (placement.pin_xy[driver_pin.index] +
                     placement.pin_xy[sink_pin.index])
        placement.cell_xy = np.vstack([placement.cell_xy, mid])
        for pin in buf.pins.values():
            offset = placement._pin_offset(pin)
            placement.pin_xy = np.vstack(
                [placement.pin_xy, placement.die.clamp(mid + offset)])
        self._buffer_stack.append((buf, net, sink_pin, new_net))
        self._rebuild()
        return DirtyDelta(structural=True)

    def _remove_buffer(self, edit):
        name = edit["name"]
        if not self._buffer_stack or \
                self._buffer_stack[-1][0].name != name:
            have = (self._buffer_stack[-1][0].name
                    if self._buffer_stack else None)
            raise EditError(
                f"remove_buffer only reverts the most recently inserted "
                f"buffer (last: {have!r}, requested: {name!r})")
        buf, net, sink_pin, new_net = self._buffer_stack.pop()
        # The revert relies on the buffer being the latest append to the
        # design/placement arrays — guaranteed by the LIFO check above.
        assert self.design.nets[-1] is new_net
        assert self.design.cells[-1] is buf
        self.design.cells.remove(buf)
        self.design.nets.pop()
        net.sinks.remove(buf.pins["A"])
        self.design.connect(net, sink_pin)
        self.design.pins = self.design.pins[:-len(buf.pins)]
        self.placement.cell_xy = self.placement.cell_xy[:-1]
        self.placement.pin_xy = self.placement.pin_xy[:-len(buf.pins)]
        self._rebuild()
        return DirtyDelta(structural=True)

    # -- feature row recomputation (exact extract.py formulas) -------------
    def _patch_net_features(self, eids):
        h = self.hetero
        pin_xy = self.placement.pin_xy
        node_pins = self.graph.node_pins
        scheds = list((h._schedule or {}).values())
        for eid in eids:
            eid = int(eid)
            sxy = pin_xy[node_pins[h.net_src[eid]].index]
            dxy = pin_xy[node_pins[h.net_dst[eid]].index]
            row = (dxy - sxy) / DIST_SCALE
            h.net_features[eid] = row
            # Every cached per-dtype schedule mirrors the row (assignment
            # into a float32 schedule casts, matching a fresh build).
            for sched in scheds:
                lv = sched.levels[self._net_lvl[eid]]
                lv.net_features[self._net_pos[eid]] = row

    def _patch_cell_edge(self, eid):
        h = self.hetero
        edge = self.graph.cell_edges[eid]
        v, idx, val = edge.arc.stacked_luts()
        idx = idx.copy()
        idx[:, :7] /= TIME_SCALE
        idx[:, 7:] /= CAP_SCALE
        val = val / TIME_SCALE
        h.cell_valid[eid] = v
        h.cell_indices[eid] = idx.reshape(-1)
        h.cell_values[eid] = val.reshape(-1)
        for sched in (h._schedule or {}).values():
            lv = sched.levels[self._cell_lvl[eid]]
            pos = int(self._cell_pos[eid])
            lv.cell_valid[pos] = v
            lv.cell_indices[pos] = idx.reshape(-1)
            lv.cell_values[pos] = val.reshape(-1)
            # lut_idx_x/y are contiguous copies; lut_values is a view of
            # cell_values but is rewritten too so the invariant is local.
            lv.lut_idx_x[pos * 8:(pos + 1) * 8] = idx[:, :7]
            lv.lut_idx_y[pos * 8:(pos + 1) * 8] = idx[:, 7:]
            lv.lut_values[pos * 8:(pos + 1) * 8] = val.reshape(8, 49)

    # -- the lazy label pass ------------------------------------------------
    def _sync_labels(self):
        """Copy the STA result into the label arrays (the label pass).

        Only :meth:`materialize` calls this, once the result describes
        the current version; edits never do.  Between label passes the
        label arrays describe :attr:`labels_version` (NaN before the
        first pass), while features and endpoint ``required`` rows
        always describe the current version.
        """
        write_labels(self.hetero, self.result)

    def materialize(self):
        """Bring the labels up to the current version; returns the graph.

        Routes and runs full STA at :attr:`clock_period` when there is
        no STA result yet.  Otherwise re-routes the nets dirtied
        since the last label pass, runs one cone update from their pins
        and a full backward required pass.  Labels then equal a
        from-scratch re-analysis of the edited design.
        """
        from ..routing import route_design
        from ..sta import IncrementalTimer, run_sta

        if self.labels_version == self.version:
            return self.hetero
        if self.result is None:
            self.routing = route_design(self.design, self.placement)
            self.result = run_sta(self.design, self.placement, self.routing,
                                  clock_period=self.clock_period,
                                  graph=self.graph)
        else:
            timer = IncrementalTimer(self.design, self.placement,
                                     self.routing, self.graph, self.result,
                                     tolerance=0.0)
            timer.update(self._dirty_nets).refresh_required()
        self._dirty_nets = set()
        self._sync_labels()
        self.labels_version = self.version
        return self.hetero

    # -- structural rebuild ------------------------------------------------
    def _rebuild(self):
        """New timing graph + feature pass after a structural edit.

        Routing and the STA result are dropped: the next
        :meth:`materialize` routes and times the new netlist in full.
        """
        from ..sta import build_timing_graph

        self.graph = build_timing_graph(self.design)
        self.hetero = extract_features(self.graph, self.placement,
                                       self.clock_period,
                                       split=self.hetero.split)
        self.routing = self.result = None
        self.labels_version = None
        self._dirty_nets = set()
        self._bind()
