"""Heterogeneous timing-graph dataset container.

One :class:`HeteroGraph` holds everything the models consume for one
design, as flat numpy arrays:

* pin (node) features and tasks of the paper's Table 2;
* net-edge and cell-edge features and tasks of Table 3;
* levelized propagation structure for the timer-inspired model.

All features and labels are stored *normalized* (see the scale constants)
so models train well; R2 metrics are scale-invariant so evaluation is
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HeteroGraph", "LevelBlock", "LevelSchedule", "LevelCompute",
           "NetSubgraph", "TIME_SCALE", "CAP_SCALE", "DIST_SCALE",
           "NODE_FEATURE_DIM", "NET_EDGE_FEATURE_DIM", "CELL_EDGE_FEATURE_DIM"]

TIME_SCALE = 100.0    # ps
CAP_SCALE = 10.0      # fF
DIST_SCALE = 200.0    # um

NODE_FEATURE_DIM = 10        # is_pio(1) + is_fanin(1) + boundary dist(4) + cap(4)
NET_EDGE_FEATURE_DIM = 2     # dx, dy
CELL_EDGE_FEATURE_DIM = 8 + 8 * 14 + 8 * 49   # valid + indices + values = 512


@dataclass
class LevelBlock:
    """Incoming edges of one topological level, grouped by edge type.

    ``net_seg``/``cell_seg`` map each edge to the position of its
    destination node inside ``net_dst``/``cell_dst`` (for segment
    reductions over a level).
    """

    level: int
    net_eids: np.ndarray
    net_dst: np.ndarray
    net_seg: np.ndarray
    cell_eids: np.ndarray
    cell_dst: np.ndarray
    cell_seg: np.ndarray

    @property
    def dst_nodes(self):
        return np.concatenate([self.net_dst, self.cell_dst])


class LevelCompute:
    """Cached index structures for one :class:`LevelBlock`.

    Full-batch training re-runs the propagation model over the same
    graphs every epoch; everything here is a pure function of the graph
    structure, so it is computed once per graph and reused by every
    forward pass (both kernel backends — the cached arrays are
    bit-identical to the per-forward recomputations they replace):

    * per-level gathers of the edge-endpoint index vectors and edge
      features (``graph.net_src[eids]`` and friends);
    * the LUT-interpolation reshapes — the ``np.repeat(np.arange(e), 8)``
      query expansion and the ``(e*8, 7/7/49)`` index/value matrices;
    * :class:`~repro.nn.kernels.SegmentSchedule` sorted-CSR layouts for
      every segment reduction and duplicate-index gradient scatter of
      the level.
    """

    __slots__ = (
        "net_eids", "net_src", "net_dst", "net_features",
        "net_src_sched", "net_dst_sched",
        "cell_eids", "cell_src", "cell_dst_edges", "cell_dst", "cell_seg",
        "cell_valid", "cell_indices", "cell_values",
        "cell_src_sched", "cell_dst_sched", "cell_seg_sched",
        "lut_rep", "lut_rep_sched", "lut_idx_x", "lut_idx_y", "lut_values",
    )

    def __init__(self, graph, block, dtype=np.float64):
        from ..nn.kernels import SegmentSchedule

        eids = block.net_eids
        self.net_eids = eids
        self.net_src = graph.net_src[eids]
        self.net_dst = graph.net_dst[eids]
        self.net_features = np.ascontiguousarray(
            graph.net_features[eids], dtype=dtype)
        self.net_src_sched = SegmentSchedule(self.net_src)
        self.net_dst_sched = SegmentSchedule(self.net_dst)

        ceids = block.cell_eids
        e = len(ceids)
        self.cell_eids = ceids
        self.cell_src = graph.cell_src[ceids]
        self.cell_dst_edges = graph.cell_dst[ceids]
        self.cell_dst = block.cell_dst
        self.cell_seg = block.cell_seg
        self.cell_src_sched = SegmentSchedule(self.cell_src)
        self.cell_dst_sched = SegmentSchedule(self.cell_dst_edges)
        self.cell_seg_sched = SegmentSchedule(block.cell_seg)
        self.cell_valid = np.asarray(graph.cell_valid[ceids],
                                     dtype=dtype)
        self.cell_indices = np.asarray(graph.cell_indices[ceids],
                                       dtype=dtype)
        self.cell_values = np.asarray(graph.cell_values[ceids],
                                      dtype=dtype)
        self.lut_rep = np.repeat(np.arange(e), 8)
        self.lut_rep_sched = SegmentSchedule(self.lut_rep)
        idx = self.cell_indices.reshape(e * 8, 14)
        self.lut_idx_x = np.ascontiguousarray(idx[:, :7])
        self.lut_idx_y = np.ascontiguousarray(idx[:, 7:])
        self.lut_values = self.cell_values.reshape(e * 8, 49)

    def subset(self, net_rows, segs):
        """A forward-only view of this level: the net edges at positions
        ``net_rows`` and every edge of the cell fanin segments ``segs``
        (ascending), with segments renumbered ``0..len(segs)-1`` under a
        local :class:`~repro.nn.kernels.SegmentSchedule`.

        The dirty-frontier refresh runs the propagation steps over such
        views.  Edges keep their stable order, so each kept segment
        reduces in the same order as in the full level.  The
        backward-only schedules and the raw LUT arrays stay unset.
        """
        from ..nn.kernels import SegmentSchedule

        view = object.__new__(LevelCompute)
        view.net_eids = self.net_eids[net_rows]
        view.net_src = self.net_src[net_rows]
        view.net_dst = self.net_dst[net_rows]
        view.net_features = self.net_features[net_rows]
        es = np.nonzero(np.isin(self.cell_seg, segs))[0]
        rows8 = (es[:, None] * 8 + np.arange(8)).ravel()
        view.cell_eids = self.cell_eids[es]
        view.cell_src = self.cell_src[es]
        view.cell_dst_edges = self.cell_dst_edges[es]
        view.cell_dst = self.cell_dst[segs]
        view.cell_seg = np.searchsorted(segs, self.cell_seg[es])
        view.cell_seg_sched = SegmentSchedule(view.cell_seg)
        view.cell_valid = self.cell_valid[es]
        view.lut_idx_x = self.lut_idx_x[rows8]
        view.lut_idx_y = self.lut_idx_y[rows8]
        view.lut_values = self.lut_values[rows8]
        return view


class NetSubgraph:
    """A net-only view of the pins ``nodes`` (ascending, whole nets:
    every driver together with all of its sinks).

    Carries what :class:`~repro.models.net_embedding.NetEmbedding` reads
    from a graph — pin and net-edge feature rows, net edges renumbered
    to local pin positions, and their own
    :class:`~repro.nn.kernels.SegmentSchedule` layouts — and is its own
    schedule.  The cone refresh embeds only the nets an edit touched
    through such a view.  Edges keep their stable order, so each net
    reduces in the same order as in the whole-graph pass.
    """

    __slots__ = ("nodes", "node_features", "net_src", "net_dst",
                 "net_features", "net_src_sched", "net_dst_sched")

    def __init__(self, graph, nodes):
        from ..nn.kernels import SegmentSchedule

        local = np.full(graph.num_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(len(nodes))
        eids = np.nonzero(local[graph.net_src] >= 0)[0]
        self.nodes = nodes
        self.node_features = graph.node_features[nodes]
        self.net_src = local[graph.net_src[eids]]
        self.net_dst = local[graph.net_dst[eids]]
        self.net_features = graph.net_features[eids]
        self.net_src_sched = SegmentSchedule(self.net_src)
        self.net_dst_sched = SegmentSchedule(self.net_dst)

    @property
    def num_nodes(self):
        return len(self.nodes)

    def compute_schedule(self, dtype=None):
        return self


class LevelSchedule:
    """Per-graph cache of propagation/embedding index structures.

    Built lazily by :meth:`HeteroGraph.compute_schedule` and cached on
    the graph, so full-batch training stops recomputing identical index
    structures every epoch x design.  Holds the graph-wide source list
    and net-graph reduction schedules (used by the net embedding's
    sink->driver reduction every conv layer) plus one
    :class:`LevelCompute` per topological level.

    Schedules are built per compute dtype (the cached feature arrays are
    cast once, here, instead of per forward pass) and carry the
    per-stage :class:`~repro.nn.arena.TapeArena` buffer-reuse plans —
    cached next to the CSR schedules so a graph-version bump
    (:meth:`HeteroGraph.build_levels`) invalidates the arenas together
    with the index structures, keeping the delta path correct.
    """

    __slots__ = ("num_nodes", "num_levels", "sources",
                 "net_src_sched", "net_dst_sched", "levels",
                 "dtype", "_arenas")

    def __init__(self, graph, dtype=np.float64):
        from ..nn.kernels import SegmentSchedule

        self.dtype = np.dtype(dtype)
        self.num_nodes = graph.num_nodes
        self.num_levels = len(graph.levels)
        self.sources = np.nonzero(graph.is_source)[0]
        self.net_src_sched = SegmentSchedule(graph.net_src)
        self.net_dst_sched = SegmentSchedule(graph.net_dst)
        self.levels = [LevelCompute(graph, block, dtype=self.dtype)
                       for block in graph.levels]
        self._arenas = {}

    def arena(self, stage):
        """The lazily created :class:`~repro.nn.arena.TapeArena` for one
        execution stage (e.g. ``"train"`` / ``"infer"``) of this
        schedule.  Dropped with the schedule on rebuild."""
        from ..nn.arena import TapeArena

        plan = self._arenas.get(stage)
        if plan is None:
            plan = self._arenas[stage] = TapeArena(
                tag=f"{stage}/{self.dtype.name}")
        return plan


@dataclass
class HeteroGraph:
    """The dataset view of one placed-and-timed design."""

    name: str
    split: str
    clock_period: float                    # ps (unnormalized)

    # Nodes.
    node_features: np.ndarray              # (N, 10)
    level: np.ndarray                      # (N,)
    is_source: np.ndarray                  # (N,) bool
    is_endpoint: np.ndarray                # (N,) bool
    is_net_sink: np.ndarray                # (N,) bool (fan-in nodes, Eq. 6)

    # Net edges (driver -> sink).
    net_src: np.ndarray                    # (E_net,)
    net_dst: np.ndarray                    # (E_net,)
    net_features: np.ndarray               # (E_net, 2)

    # Cell edges (input pin -> output pin).
    cell_src: np.ndarray                   # (E_cell,)
    cell_dst: np.ndarray                   # (E_cell,)
    cell_valid: np.ndarray                 # (E_cell, 8)
    cell_indices: np.ndarray               # (E_cell, 112)
    cell_values: np.ndarray                # (E_cell, 392)

    # Tasks (normalized by TIME_SCALE).
    net_delay: np.ndarray                  # (N, 4), at net-sink nodes
    arrival: np.ndarray                    # (N, 4)
    slew: np.ndarray                       # (N, 4)
    required: np.ndarray                   # (N, 4), NaN off endpoints
    cell_arc_delay: np.ndarray             # (E_cell, 4)

    levels: list = field(default_factory=list)   # list[LevelBlock]

    # Lazily built LevelSchedules keyed by dtype name (compute_schedule);
    # not part of the dataclass protocol so dataclasses.replace() resets
    # it.  None until first use, then {"float64": LevelSchedule, ...}.
    _schedule: object = field(default=None, init=False, repr=False,
                              compare=False)

    # -- shape -----------------------------------------------------------------
    @property
    def num_nodes(self):
        return len(self.node_features)

    @property
    def num_net_edges(self):
        return len(self.net_src)

    @property
    def num_cell_edges(self):
        return len(self.cell_src)

    @property
    def num_levels(self):
        return int(self.level.max()) + 1 if self.num_nodes else 0

    @property
    def num_endpoints(self):
        return int(self.is_endpoint.sum())

    def stats(self):
        """Structural statistics, Table-1 style."""
        return {"name": self.name, "nodes": self.num_nodes,
                "net_edges": self.num_net_edges,
                "cell_edges": self.num_cell_edges,
                "endpoints": self.num_endpoints}

    # -- labels ------------------------------------------------------------------
    def slack(self, arrival=None):
        """Endpoint slack (normalized) from arrivals + ground-truth RAT.

        ``arrival`` defaults to the ground truth; passing model-predicted
        arrivals reproduces the paper's slack evaluation (predicted AT
        combined with the known required times).
        Early columns (0, 1) are hold slack AT - RAT; late (2, 3) are
        setup slack RAT - AT.
        """
        if arrival is None:
            arrival = self.arrival
        out = np.full((self.num_nodes, 4), np.nan)
        eps = self.is_endpoint
        out[eps, 0:2] = arrival[eps, 0:2] - self.required[eps, 0:2]
        out[eps, 2:4] = self.required[eps, 2:4] - arrival[eps, 2:4]
        return out[eps]

    # -- levelized structure -------------------------------------------------------
    def build_levels(self):
        """Group incoming edges by destination level for the prop model."""
        self.levels = []
        for lvl in range(1, self.num_levels):
            net_mask = self.level[self.net_dst] == lvl
            cell_mask = self.level[self.cell_dst] == lvl
            net_eids = np.nonzero(net_mask)[0]
            cell_eids = np.nonzero(cell_mask)[0]
            net_dst, net_seg = np.unique(self.net_dst[net_eids],
                                         return_inverse=True)
            cell_dst, cell_seg = np.unique(self.cell_dst[cell_eids],
                                           return_inverse=True)
            self.levels.append(LevelBlock(
                level=lvl, net_eids=net_eids, net_dst=net_dst,
                net_seg=net_seg, cell_eids=cell_eids, cell_dst=cell_dst,
                cell_seg=cell_seg))
        self._schedule = None      # level structure changed; rebuild lazily
        return self.levels

    def compute_schedule(self, dtype=None):
        """The cached :class:`LevelSchedule` for this graph (lazy-built).

        One schedule is cached per compute dtype (``dtype=None`` means
        the active :func:`repro.nn.dtype.active_dtype`).  Derived purely
        from the graph structure; callers that mutate the structural
        arrays in place must call :meth:`build_levels` (which
        invalidates the cache) before the next forward pass.
        """
        if dtype is None:
            from ..nn.dtype import active_dtype
            dtype = active_dtype()
        dtype = np.dtype(dtype)
        if not self.levels and self.num_nodes:
            self.build_levels()
        if self._schedule is None:
            self._schedule = {}
        sched = self._schedule.get(dtype.name)
        if sched is None or sched.num_levels != len(self.levels):
            sched = LevelSchedule(self, dtype=dtype)
            self._schedule[dtype.name] = sched
        return sched

    # -- persistence --------------------------------------------------------------
    _ARRAY_FIELDS = [
        "node_features", "level", "is_source", "is_endpoint", "is_net_sink",
        "net_src", "net_dst", "net_features",
        "cell_src", "cell_dst", "cell_valid", "cell_indices", "cell_values",
        "net_delay", "arrival", "slew", "required", "cell_arc_delay",
    ]

    def save_npz(self, path):
        arrays = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        np.savez_compressed(path, _name=self.name, _split=self.split,
                            _clock_period=self.clock_period, **arrays)

    @classmethod
    def load_npz(cls, path):
        data = np.load(path, allow_pickle=False)
        kwargs = {name: data[name] for name in cls._ARRAY_FIELDS}
        graph = cls(name=str(data["_name"]), split=str(data["_split"]),
                    clock_period=float(data["_clock_period"]), **kwargs)
        graph.build_levels()
        return graph
