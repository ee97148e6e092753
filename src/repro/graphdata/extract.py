"""Extraction: placed design -> :class:`HeteroGraph`, in two passes.

The **feature pass** (:func:`extract_features`) needs only the timing
graph, the placement and a clock period.  It builds the topology, the
features and the endpoint mask, plus the endpoint ``required`` rows:
those follow the static rule of :func:`repro.sta.engine.endpoint_required`
and are inputs to served slack, not STA labels.  The **label pass**
(:func:`write_labels`) copies a :class:`~repro.sta.engine.TimingResult`
into the label arrays, which the feature pass leaves NaN.
:func:`extract_graph` runs both, for training and dataset builds.

Features follow the paper exactly:

Table 2 pin features (10 dims, all from *placement only*):
    is primary I/O (1), is fanin-or-fanout i.e. drives a net (1),
    distance to the 4 die boundaries (4), pin capacitance per corner (4).
Table 2 tasks: net delay to root (4), arrival time (4), slew (4),
    endpoint flag, required arrival time at endpoints (4).

Table 3 net-edge features: signed x/y distance from driver to sink (2).
Table 3 cell-edge features: 8 LUT valid flags, 8x(7+7) LUT indices,
    8x(7x7) LUT value matrices (512).  Task: cell arc delay (4).
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry, get_tracer
from ..sta.engine import endpoint_required
from .hetero import (CAP_SCALE, DIST_SCALE, TIME_SCALE, HeteroGraph)

__all__ = ["extract_graph", "extract_features", "write_labels",
           "LABEL_FIELDS"]

# HeteroGraph arrays the label pass writes (normalized by TIME_SCALE).
LABEL_FIELDS = ("net_delay", "arrival", "slew", "required",
                "cell_arc_delay")


def _node_features(graph, placement):
    design = graph.design
    n = graph.num_nodes
    feats = np.zeros((n, 10))
    die = placement.die
    for node, pin in enumerate(graph.node_pins):
        xy = placement.pin_xy[pin.index]
        feats[node, 0] = 1.0 if pin.is_port else 0.0
        feats[node, 1] = 1.0 if pin.is_net_driver else 0.0
        feats[node, 2:6] = die.boundary_distances(xy) / DIST_SCALE
        feats[node, 6:10] = design.pin_capacitance(pin) / CAP_SCALE
    return feats


def _net_edge_arrays(graph, placement):
    e = len(graph.net_edges)
    src = np.zeros(e, dtype=np.int64)
    dst = np.zeros(e, dtype=np.int64)
    feats = np.zeros((e, 2))
    for i, edge in enumerate(graph.net_edges):
        src[i] = edge.src
        dst[i] = edge.dst
        sxy = placement.pin_xy[graph.node_pins[edge.src].index]
        dxy = placement.pin_xy[graph.node_pins[edge.dst].index]
        feats[i] = (dxy - sxy) / DIST_SCALE
    return src, dst, feats


def _cell_edge_arrays(graph):
    e = len(graph.cell_edges)
    src = np.zeros(e, dtype=np.int64)
    dst = np.zeros(e, dtype=np.int64)
    valid = np.zeros((e, 8))
    indices = np.zeros((e, 8 * 14))
    values = np.zeros((e, 8 * 49))
    # LUT feature tensors are identical for all edges sharing a (cell type,
    # arc) pair, so build them once per arc object.
    cache = {}
    for i, edge in enumerate(graph.cell_edges):
        src[i] = edge.src
        dst[i] = edge.dst
        key = id(edge.arc)
        if key not in cache:
            v, idx, val = edge.arc.stacked_luts()
            # Normalize: slew indices (first 7 of each 14) by TIME_SCALE,
            # load indices by CAP_SCALE, values by TIME_SCALE.
            idx = idx.copy()
            idx[:, :7] /= TIME_SCALE
            idx[:, 7:] /= CAP_SCALE
            cache[key] = (v, idx.reshape(-1), (val / TIME_SCALE).reshape(-1))
        v, idx_flat, val_flat = cache[key]
        valid[i] = v
        indices[i] = idx_flat
        values[i] = val_flat
    return src, dst, valid, indices, values


def extract_graph(graph, placement, result, split="train"):
    """Build the dataset view of one analysed design.

    ``graph`` is the STA :class:`~repro.sta.graph.TimingGraph`,
    ``result`` the :class:`~repro.sta.engine.TimingResult` labels.
    """
    with _span(graph):
        hetero = _extract_features(graph, placement, result.clock_period,
                                   split)
        return write_labels(hetero, result)


def extract_features(graph, placement, clock_period, split="train"):
    """The label-free feature pass: no routing, no STA.

    Equals :func:`extract_graph` bit for bit on every array except the
    label arrays, which stay NaN (endpoint ``required`` rows excepted).
    """
    with _span(graph, labels=False):
        return _extract_features(graph, placement, clock_period, split)


def write_labels(hetero, result):
    """The label pass: ``result``'s arrays, normalized, into ``hetero``."""
    for name in LABEL_FIELDS:
        np.divide(getattr(result, name), TIME_SCALE,
                  out=getattr(hetero, name))
    return hetero


def _span(graph, **extra):
    return get_tracer().span("graphdata.extract", design=graph.design.name,
                             nodes=int(graph.num_nodes),
                             net_edges=len(graph.net_edges),
                             cell_edges=len(graph.cell_edges), **extra)


def _extract_features(graph, placement, clock_period, split):
    node_features = _node_features(graph, placement)
    net_src, net_dst, net_features = _net_edge_arrays(graph, placement)
    cell_src, cell_dst, cell_valid, cell_indices, cell_values = \
        _cell_edge_arrays(graph)

    n = graph.num_nodes
    is_source = np.zeros(n, dtype=bool)
    is_source[graph.source_nodes()] = True
    is_net_sink = np.zeros(n, dtype=bool)
    is_net_sink[net_dst] = True
    endpoints = graph.endpoint_nodes()
    is_endpoint = np.zeros(n, dtype=bool)
    is_endpoint[endpoints] = True
    required = np.full((n, 4), np.nan)
    required[endpoints] = endpoint_required(graph, endpoints,
                                            clock_period) / TIME_SCALE

    hetero = HeteroGraph(
        name=graph.design.name,
        split=split,
        clock_period=clock_period,
        node_features=node_features,
        level=graph.level.copy(),
        is_source=is_source,
        is_endpoint=is_endpoint,
        is_net_sink=is_net_sink,
        net_src=net_src, net_dst=net_dst, net_features=net_features,
        cell_src=cell_src, cell_dst=cell_dst,
        cell_valid=cell_valid, cell_indices=cell_indices,
        cell_values=cell_values,
        net_delay=np.full((n, 4), np.nan),
        arrival=np.full((n, 4), np.nan),
        slew=np.full((n, 4), np.nan),
        required=required,
        cell_arc_delay=np.full((len(cell_src), 4), np.nan),
    )
    hetero.build_levels()
    get_registry().counter(
        "repro_graphs_extracted_total",
        "HeteroGraphs built from placed designs.").inc()
    return hetero
