"""Layer spans recorded from outside the program, and their self times.

A traced measured process (``server.py`` or ``trainer.py`` started with a
spans path) installs a :class:`Recorder` before it imports the serving or
training stack.  The recorder replaces each public entry point listed in
:data:`PATCHES` with a wrapper that records one span per call: layer name,
start, end, parent span and op id.  Spans stay in memory and are written
as JSONL when the process stops; the harness then turns them into per-layer
self times with :func:`attribute`.

The program itself is not modified: every wrapper sits on a module or
class attribute that the program looks up at call time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# Root spans: their self time is the part of an op that no wrapped layer
# covers, reported as ``unattributed``.
ROOT_LAYERS = ("serving.http", "training.train")
UNATTRIBUTED = "unattributed"

# (module, attribute, layer, kind).  Functions that a caller imported by
# name are wrapped in the caller's namespace (flow and dataset both call
# the flow stages); methods are wrapped on their class.
PATCHES = (
    ("repro.flow", "make_sky130_like_library", "netlist", None),
    ("repro.flow", "build_benchmark", "netlist", None),
    ("repro.graphdata.dataset", "build_benchmark", "netlist", None),
    ("repro.flow", "place_design", "placement", None),
    ("repro.graphdata.dataset", "place_design", "placement", None),
    ("repro.flow", "route_design", "routing", None),
    ("repro.graphdata.dataset", "route_design", "routing", None),
    ("repro.flow", "build_timing_graph", "sta", None),
    ("repro.flow", "run_sta", "sta", None),
    ("repro.graphdata.dataset", "build_timing_graph", "sta", None),
    ("repro.graphdata.dataset", "run_sta", "sta", None),
    ("repro.flow", "extract_graph", "graphdata.extract", None),
    ("repro.graphdata.dataset", "extract_graph", "graphdata.extract", None),
    ("repro.graphdata.batch", "batch_graphs", "graphdata.batch", None),
    ("repro.models.timing_gnn", "TimingGNN.predict_batch",
     "models.timing_gnn", "batch"),
    ("repro.models.net_embedding", "NetEmbedding.forward",
     "models.net_embedding", None),
    ("repro.models.propagation", "DelayPropagation.forward",
     "models.propagation", None),
    ("repro.models.incremental", "IncrementalForwardState.refresh",
     "models.incremental", "refresh"),
    ("repro.graphdata.patch", "GraphPatcher.apply", "graphdata.patch", None),
    ("repro.sta.incremental", "IncrementalTimer.move_cell",
     "sta.incremental", None),
    ("repro.sta.incremental", "IncrementalTimer.resize_cell",
     "sta.incremental", None),
    ("repro.serving.http", "make_server", None, "server"),
    ("repro.serving.service", "PredictionService.predict",
     "serving.service", None),
    ("repro.serving.service", "PredictionService.predict_delta",
     "serving.service", None),
    ("repro.serving.batching", "MicroBatcher.submit", "serving.batching",
     "submit"),
    ("repro.serving.delta", "DeltaSession.apply", "serving.delta", None),
    ("repro.serving.delta", "DeltaSession.refresh", "serving.delta", None),
    ("repro.training.trainer", "train_timing_gnn", "training.train", None),
    ("repro.training.trainer", "combined_loss", "training.loss", None),
    ("repro.training.trainer", "evaluate_on", "training.evaluate", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn", "clip_grad_norm", "nn.optim", None),
    ("repro.nn.optim", "Adam.step", "nn.optim", None),
)

# Every layer a span can carry, in report order (roots excluded).
LAYERS = tuple(dict.fromkeys(
    layer for _m, _a, layer, _k in PATCHES
    if layer is not None and layer not in ROOT_LAYERS))


class Recorder:
    """Records one span per call of every patched entry point.

    Spans opened on a thread nest under the innermost open span of that
    thread and inherit its op id.  The micro-batcher runs the model on
    its own thread, so a ``predict_batch`` span is parented explicitly
    to the ``MicroBatcher.submit`` span(s) whose graphs it runs; when one
    batch serves several ops the extra submits are listed under ``also``
    and the batch is counted once for each of them.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pending = {}     # id(graph) -> [(op, submit span id)]

    def install(self):
        for module, attr, layer, kind in PATCHES:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if kind == "server":
                wrapper = self._wrap_make_server(original)
            else:
                wrapper = self.wrap(layer, original, kind)
            setattr(owner, attr, wrapper)

    def _wrap_make_server(self, make_server):
        """Root every HTTP POST in a ``serving.http`` span (op from header)."""
        recorder = self

        @functools.wraps(make_server)
        def traced_make_server(*args, **kwargs):
            server = make_server(*args, **kwargs)
            handler = server.RequestHandlerClass
            handler.do_POST = recorder.wrap("serving.http", handler.do_POST,
                                            "http")
            return server
        return traced_make_server

    def wrap(self, layer, fn, kind=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = recorder._open(layer, stack, kind, args, kwargs)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if kind == "refresh":
                span["dirty"] = int(result["dirty_nodes"])
                span["nodes"] = int(args[1].num_nodes)
            return result
        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, stack, kind, args, kwargs):
        parent = stack[-1] if stack else None
        span = {"id": next(self._ids), "name": layer, "phase": self.phase,
                "parent": parent["id"] if parent else None,
                "op": parent["op"] if parent else None}
        if kind == "http":
            span["op"] = args[0].headers.get("X-Trace-Id")
        elif kind == "submit":
            graph = args[2] if len(args) > 2 else kwargs["graph"]
            with self._lock:
                self._pending.setdefault(id(graph), []).append(
                    (span["op"], span["id"]))
        elif kind == "batch" and parent is None:
            members = []
            with self._lock:
                for graph in args[1]:
                    members.extend(self._pending.pop(id(graph), ()))
            if members:
                span["op"], span["parent"] = members[0]
                if len(members) > 1:
                    span["also"] = [sid for _op, sid in members[1:]]
        return span

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _merged_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def attribute(spans, phase):
    """Self seconds and visit counts per layer over one phase's spans.

    A span's interval is clipped to its parent's, and its self time is
    the clipped duration minus the union of its children's clipped
    intervals, so the self times of a tree add up to its root's
    duration.  Root-layer self time is reported as ``unattributed``.
    A batch span listed under several submits is visited once per submit.
    """
    spans = [s for s in spans if s["phase"] == phase]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    roots = []
    for span in spans:
        parents = [p for p in [span["parent"], *span.get("also", ())]
                   if p in by_id]
        if not parents:
            roots.append(span)
        for pid in parents:
            children[pid].append(span)

    self_s = defaultdict(float)
    calls = defaultdict(int)

    def visit(span, lo, hi):
        start, end = max(span["start"], lo), min(span["end"], hi)
        end = max(start, end)
        covered = [visit(child, start, end) for child in children[span["id"]]]
        layer = (UNATTRIBUTED if span["name"] in ROOT_LAYERS
                 else span["name"])
        self_s[layer] += (end - start) - _merged_length(covered)
        calls[layer] += 1
        return start, end

    for root in roots:
        visit(root, float("-inf"), float("inf"))
    return dict(self_s), dict(calls)
