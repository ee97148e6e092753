"""Static timing analysis engine.

This is the label generator of the reproduction — the stand-in for
OpenSTA inside the OpenROAD flow.  It performs full 4-corner analysis
(early/late x rise/fall, the paper's "EL/RF"):

* forward, level by level: arrival time and slew, with NLDM LUT lookups
  for cell arcs (respecting unateness) and Elmore delays plus PERI slew
  degradation for net arcs;
* required-time selection at endpoints from clock period, setup and hold;
* backward propagation of required times and slack everywhere.

Corner index convention everywhere: 0 = (early, rise), 1 = (early, fall),
2 = (late, rise), 3 = (late, fall).  Early corners propagate with ``min``
(hold analysis), late corners with ``max`` (setup analysis).
"""

from __future__ import annotations

import numpy as np

from ..liberty.cell import EL_RF
from ..obs import get_registry, get_tracer
from .graph import build_timing_graph

__all__ = ["TimingResult", "run_sta", "endpoint_required", "CORNER_INDEX",
           "LN9", "PO_MARGIN_FRAC"]

CORNER_INDEX = {pair: i for i, pair in enumerate(EL_RF)}
EARLY_COLS = (0, 1)
LATE_COLS = (2, 3)
# PERI slew degradation constant: the 10-90% ramp of an RC step response
# stretches by ~ln(9) per unit Elmore delay.
LN9 = float(np.log(9.0))
# Primary outputs must settle this fraction of the clock period early.
PO_MARGIN_FRAC = 0.05


def degrade_slew(slew, elmore):
    """Output slew at a net sink given driver slew and Elmore delay (ps)."""
    return np.sqrt(slew ** 2 + (LN9 * elmore) ** 2)


class TimingResult:
    """All timing quantities of one analysed design."""

    def __init__(self, graph, clock_period):
        n = graph.num_nodes
        self.graph = graph
        self.clock_period = clock_period
        self.arrival = np.full((n, 4), np.nan)
        self.slew = np.full((n, 4), np.nan)
        self.required = np.full((n, 4), np.nan)
        self.net_delay = np.zeros((n, 4))        # at sink nodes
        self.load_cap = np.zeros((n, 2))         # at driver nodes (E/L)
        self.cell_arc_delay = np.zeros((len(graph.cell_edges), 4))
        self.endpoint_mask = np.zeros(n, dtype=bool)
        # Winner bookkeeping for path tracing: predecessor node and its
        # corner column, per (node, corner column); -1 where none.
        self.pred_node = np.full((n, 4), -1, dtype=np.int64)
        self.pred_col = np.full((n, 4), -1, dtype=np.int64)

    @property
    def slack(self):
        """Per-node slack: early (hold) = AT - RAT, late (setup) = RAT - AT."""
        out = np.full_like(self.arrival, np.nan)
        out[:, EARLY_COLS] = (self.arrival[:, EARLY_COLS]
                              - self.required[:, EARLY_COLS])
        out[:, LATE_COLS] = (self.required[:, LATE_COLS]
                             - self.arrival[:, LATE_COLS])
        return out

    def endpoint_slack(self):
        """(num_endpoints, 4) slack at endpoint nodes (EL_RF order)."""
        eps = np.nonzero(self.endpoint_mask)[0]
        return eps, self.slack[eps]

    def wns(self, mode="setup"):
        """Worst negative slack over endpoints (ps); positive if all met."""
        _eps, slack = self.endpoint_slack()
        cols = LATE_COLS if mode == "setup" else EARLY_COLS
        return float(np.nanmin(slack[:, cols]))

    def tns(self, mode="setup"):
        """Total negative slack over endpoints (ps, <= 0)."""
        _eps, slack = self.endpoint_slack()
        cols = LATE_COLS if mode == "setup" else EARLY_COLS
        worst = np.nanmin(slack[:, cols], axis=1)
        return float(np.minimum(worst, 0.0).sum())

    def critical_path(self, mode="setup"):
        """Trace the worst path as a list of (node, corner column)."""
        eps, slack = self.endpoint_slack()
        cols = LATE_COLS if mode == "setup" else EARLY_COLS
        flat = np.nanargmin(slack[:, cols])
        node = int(eps[flat // len(cols)])
        col = int(cols[flat % len(cols)])
        path = [(node, col)]
        while self.pred_node[node, col] >= 0:
            node, col = (int(self.pred_node[node, col]),
                         int(self.pred_col[node, col]))
            path.append((node, col))
        path.reverse()
        return path


def _driver_loads(graph, routing):
    """(num_nodes, 2) early/late total load at each net-driver node."""
    loads = np.zeros((graph.num_nodes, 2))
    for net in graph.design.nets:
        routed = routing.nets[net.name]
        node = graph.node_of_pin[net.driver.index]
        loads[node, 0] = routed.load_cap("early")
        loads[node, 1] = routed.load_cap("late")
    return loads


def _propagate_forward(graph, routing, result, default_slew):
    """Levelized forward propagation of arrival time and slew."""
    design = graph.design
    at, slew = result.arrival, result.slew
    loads = result.load_cap

    # Sources: primary inputs launch at t=0 with the default input slew;
    # register Q pins launch through the CK->Q arc at the ideal clock edge.
    for node in graph.source_nodes():
        init_source_node(graph, result, node, default_slew)

    order = graph.topological_nodes()
    for node in order:
        if graph.fanin_degree(node) == 0:
            continue
        compute_node(graph, routing, result, node)
    # Unused in full propagation; kept for signature parity.
    del at, slew, loads


def init_source_node(graph, result, node, default_slew):
    """(Re)compute the launch values of a zero-fanin node.

    Returns True if the node's arrival or slew changed.
    """
    at, slew, loads = result.arrival, result.slew, result.load_cap
    old_at = at[node].copy()
    old_slew = slew[node].copy()
    pin = graph.node_pins[node]
    if pin.is_primary_input:
        at[node] = 0.0
        slew[node] = default_slew
    elif pin.cell is not None and pin.cell.is_sequential:
        arc = pin.cell.cell_type.arc("CK", pin.lib_pin)
        for col, (corner, transition) in enumerate(EL_RF):
            load = loads[node, 0 if corner == "early" else 1]
            d = arc.lut("delay", corner, transition).lookup(default_slew,
                                                            load)
            s = arc.lut("slew", corner, transition).lookup(default_slew,
                                                           load)
            at[node, col] = float(d)
            slew[node, col] = float(s)
    else:
        # Dangling source (e.g. unconnected port): time zero.
        at[node] = 0.0
        slew[node] = default_slew
    return (not np.array_equal(old_at, at[node], equal_nan=True) or
            not np.array_equal(old_slew, slew[node], equal_nan=True))


def compute_node(graph, routing, result, node, tolerance=0.0):
    """(Re)compute one non-source node's arrival/slew from its fanin.

    Shared by full propagation and the incremental timer.  Returns True
    when arrival or slew moved by more than ``tolerance`` (incremental
    propagation stops expanding the cone at unchanged nodes).
    """
    at, slew, loads = result.arrival, result.slew, result.load_cap
    old_at = at[node].copy()
    old_slew = slew[node].copy()
    best_at = np.full(4, np.nan)
    best_slew = np.full(4, np.nan)
    best_pred = np.full(4, -1, dtype=np.int64)
    best_col = np.full(4, -1, dtype=np.int64)

    def consider(col, cand_at, cand_slew, pred, pred_col):
        early = col in EARLY_COLS
        cur = best_at[col]
        better = (np.isnan(cur) or
                  (cand_at < cur if early else cand_at > cur))
        if better:
            best_at[col] = cand_at
            best_slew[col] = cand_slew
            best_pred[col] = pred
            best_col[col] = pred_col

    for ei in graph.in_net_edges(node):
        edge = graph.net_edges[ei]
        routed = routing.nets[edge.net.name]
        for col, (corner, _transition) in enumerate(EL_RF):
            elmore = routed.sink_elmore(corner)[edge.sink_pos]
            result.net_delay[node, col] = elmore
            cand_at = at[edge.src, col] + elmore
            cand_slew = degrade_slew(slew[edge.src, col], elmore)
            consider(col, cand_at, cand_slew, edge.src, col)

    for ei in graph.in_cell_edges(node):
        edge = graph.cell_edges[ei]
        for col, (corner, out_tr) in enumerate(EL_RF):
            load = loads[node, 0 if corner == "early" else 1]
            extreme = None
            for in_tr in edge.arc.input_transition_for(out_tr):
                in_col = CORNER_INDEX[(corner, in_tr)]
                in_slew = slew[edge.src, in_col]
                d = float(edge.arc.lut("delay", corner, out_tr)
                          .lookup(in_slew, load))
                s = float(edge.arc.lut("slew", corner, out_tr)
                          .lookup(in_slew, load))
                consider(col, at[edge.src, in_col] + d, s,
                         edge.src, in_col)
                if extreme is None:
                    extreme = d
                elif corner == "early":
                    extreme = min(extreme, d)
                else:
                    extreme = max(extreme, d)
            result.cell_arc_delay[ei, col] = extreme
    at[node] = best_at
    slew[node] = best_slew
    result.pred_node[node] = best_pred
    result.pred_col[node] = best_col
    old = np.concatenate([old_at, old_slew])
    new = np.concatenate([best_at, best_slew])
    nan_old, nan_new = np.isnan(old), np.isnan(new)
    if np.any(nan_old != nan_new):
        return True
    valid = ~nan_new
    return bool(np.any(np.abs(old[valid] - new[valid]) > tolerance))


def endpoint_required(graph, nodes, clock_period,
                      po_margin_frac=PO_MARGIN_FRAC):
    """Static required times (ps) at the endpoint ``nodes``: (len, 4).

    Register D pins need ``clock_period - setup`` (late) and ``hold``
    (early); primary outputs need the clock period less a margin (late)
    and 0 (early).  Only the clock period and the endpoint cell types
    enter, so the label-free feature pass and STA share this rule.
    """
    rows = np.empty((len(nodes), 4))
    for i, node in enumerate(nodes):
        pin = graph.node_pins[node]
        if pin.is_primary_output:
            margin = po_margin_frac * clock_period
            rows[i, LATE_COLS] = clock_period - margin
            rows[i, EARLY_COLS] = 0.0
        else:
            setup = pin.cell.cell_type.setup
            hold = pin.cell.cell_type.hold
            for col in LATE_COLS:
                rows[i, col] = clock_period - setup[col]
            for col in EARLY_COLS:
                rows[i, col] = hold[col]
    return rows


def _set_required_at_endpoints(graph, result, clock_period, po_margin_frac):
    """Setup/hold required times at register D pins and primary outputs."""
    nodes = graph.endpoint_nodes()
    result.endpoint_mask[nodes] = True
    result.required[nodes] = endpoint_required(graph, nodes, clock_period,
                                               po_margin_frac)


def _propagate_backward(graph, routing, result):
    """Propagate required times from endpoints toward the sources."""
    req = result.required
    slew = result.slew
    loads = result.load_cap
    order = graph.topological_nodes()[::-1]
    for node in order:
        cand = req[node].copy()

        def consider(col, value):
            early = col in EARLY_COLS
            if np.isnan(cand[col]):
                cand[col] = value
            elif early:
                cand[col] = max(cand[col], value)
            else:
                cand[col] = min(cand[col], value)

        for ei in graph.out_net_edges(node):
            edge = graph.net_edges[ei]
            routed = routing.nets[edge.net.name]
            for col, (corner, _transition) in enumerate(EL_RF):
                if np.isnan(req[edge.dst, col]):
                    continue
                elmore = routed.sink_elmore(corner)[edge.sink_pos]
                consider(col, req[edge.dst, col] - elmore)

        for ei in graph.out_cell_edges(node):
            edge = graph.cell_edges[ei]
            for out_col, (corner, out_tr) in enumerate(EL_RF):
                if np.isnan(req[edge.dst, out_col]):
                    continue
                load = loads[edge.dst, 0 if corner == "early" else 1]
                for in_tr in edge.arc.input_transition_for(out_tr):
                    in_col = CORNER_INDEX[(corner, in_tr)]
                    in_slew = slew[node, in_col]
                    d = float(edge.arc.lut("delay", corner, out_tr)
                              .lookup(in_slew, load))
                    consider(in_col, req[edge.dst, out_col] - d)
        req[node] = cand


def derive_clock_period(graph, result, library, slack_quantile=0.85,
                        po_margin_frac=PO_MARGIN_FRAC):
    """Pick a clock period so endpoint setup slacks straddle zero.

    Uses the already-propagated arrivals in ``result`` and sets T at the
    given quantile of the endpoint (late arrival + setup) distribution,
    mimicking how a designer would constrain a design near its achievable
    frequency (so a realistic fraction of endpoints ends up critical).
    """
    demands = []
    for node in graph.endpoint_nodes():
        pin = graph.node_pins[node]
        worst_at = np.nanmax(result.arrival[node, LATE_COLS])
        if pin.is_primary_output:
            demands.append(worst_at / (1.0 - po_margin_frac))
        else:
            setup = float(pin.cell.cell_type.setup[list(LATE_COLS)].max())
            demands.append(worst_at + setup)
    if not demands:
        return library.clock_period_guess
    return float(np.quantile(np.asarray(demands), slack_quantile))


def run_sta(design, placement, routing, clock_period=None, graph=None,
            po_margin_frac=PO_MARGIN_FRAC):
    """Run full 4-corner STA; returns a :class:`TimingResult`.

    When ``clock_period`` is None it is derived per design so that a
    realistic fraction of endpoints is timing-critical (slack near or
    below zero), as in a constrained physical design flow.
    """
    tracer = get_tracer()
    with tracer.span("sta.run", design=design.name) as span:
        if graph is None:
            with tracer.span("sta.build_graph"):
                graph = build_timing_graph(design)
        span.set(nodes=int(graph.num_nodes),
                 levels=int(graph.level.max()) + 1 if graph.num_nodes
                 else 0)
        result = TimingResult(graph, clock_period=0.0)
        result.load_cap = _driver_loads(graph, routing)
        with tracer.span("sta.propagate_forward",
                         nodes=int(graph.num_nodes)):
            _propagate_forward(graph, routing, result,
                               design.library.default_input_slew)
        if clock_period is None:
            clock_period = derive_clock_period(
                graph, result, design.library,
                po_margin_frac=po_margin_frac)
        design.clock_period = clock_period
        result.clock_period = clock_period
        _set_required_at_endpoints(graph, result, clock_period,
                                   po_margin_frac)
        with tracer.span("sta.propagate_backward"):
            _propagate_backward(graph, routing, result)
        get_registry().histogram(
            "repro_sta_levels",
            "Levelization depth of analysed designs.").observe(
            int(graph.level.max()) + 1 if graph.num_nodes else 0)
    return result
