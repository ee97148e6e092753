"""The four perf workloads: inputs from a seed, traffic, oracle, metrics.

``cold_predict``, ``warm_predict`` and ``eco_delta`` drive ``server.py``
over keep-alive HTTP; ``train_epochs`` drives ``trainer.py``.  The seed
selects placement seeds (cold, warm, train), design order and ECO edits;
the measured process only ever sees the generated requests.

An untraced run sets the measured process up ``Sizes.setups`` times
(``setup_s`` is the median), drives the last one for ``seconds`` and
reports the end-to-end metrics.  A traced run drives an untraced process
for half the time and a traced one for the other half, and reports the
per-layer metrics.  Traffic runs in whole rounds (every design, or every
edit of the cell pool, once per round), so each run sees the same mix of
work whatever the seed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import spans as spanlib
from harness import HttpClient, MeasuredProcess

TOLERANCE_PS = 1e-3
SUMMARY_KEYS = ("wns_setup_ps", "tns_setup_ps", "wns_hold_ps",
                "tns_hold_ps")
RTT_PROBES = 20
PRECONNECT_EXCHANGES = 3

# Name -> unit of every metric an untraced run prints.
END_TO_END = {
    "setup_s": "s",
    "latency_geomean_ms": "ms",
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

# Flow layers, which every workload's set-up runs; their set-up self
# time is reported separately.
SETUP_LAYERS = ("netlist", "placement", "routing", "sta",
                "graphdata.extract")

# Name -> unit of every metric a traced run prints.
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in spanlib.LAYERS
       for kind, unit in (("ms_per_op", "ms/op"),
                          ("calls_per_op", "calls/op"))},
    "serving.http.transport.ms_per_op": "ms/op",
    "unattributed.ms_per_op": "ms/op",
    "trace.latency_ms_per_op": "ms/op",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "serving.http.transport_ms_p50": "ms",
    "serving.http.idle_rtt_ms": "ms",
    "serving.batching.batch_mean": "items/batch",
    "serving.cache.graph_hit_ratio": "ratio",
    "models.incremental.dirty_ratio": "ratio",
    "table5.flow_over_gnn": "ratio",
    **{f"setup.{layer}.ms": "ms" for layer in SETUP_LAYERS},
}


@dataclass(frozen=True)
class Sizes:
    """How big each workload is.  The CLI always runs the defaults."""

    scale: float = 1.0
    serve_designs: tuple = ()      # () = the 7 test designs
    train_designs: tuple = ()      # () = the 14 train designs
    eco_design: str = "jpeg_encoder"
    eco_pool: int = 10             # cells the ECO edits cycle through
    setups: int = 3
    epochs_per_call: int = 5

    def resolved(self):
        from repro.netlist import benchmark_names
        return replace(
            self,
            serve_designs=self.serve_designs or tuple(
                benchmark_names("test")),
            train_designs=self.train_designs or tuple(
                benchmark_names("train")))


@dataclass
class Op:
    """One client request and the harness's verdict on its response."""

    index: int
    op: str
    start: float
    seconds: float
    status: int
    payload: dict
    ok: bool = False


@dataclass
class Phase:
    """One timed phase against one measured process."""

    ops: list
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stats: tuple                   # /stats before and after
    idle_rtt_ms: float


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict                  # name -> (value, unit)
    records: list = field(default_factory=list)   # JSONL for --out


def median(values):
    return float(statistics.median(values)) if len(values) else 0.0


def geomean(values):
    """Geometric mean: each op weighs by its relative latency, so a run's
    value does not jump between designs the way a median of a few very
    different designs does."""
    return float(np.exp(np.mean(np.log(values)))) if len(values) else 0.0


# -- the oracle -------------------------------------------------------------

def timing_summary(graph, arrival):
    """Endpoint count, WNS and TNS (ps) implied by predicted arrivals."""
    from repro.graphdata import TIME_SCALE
    from repro.training import slack_from_arrival
    slack = slack_from_arrival(graph, arrival) * TIME_SCALE
    hold, setup = slack[:, 0:2], slack[:, 2:4]
    return {"num_endpoints": int(len(slack)),
            "wns_setup_ps": float(np.nanmin(setup)),
            "tns_setup_ps": float(np.minimum(setup, 0.0).min(axis=1).sum()),
            "wns_hold_ps": float(np.nanmin(hold)),
            "tns_hold_ps": float(np.minimum(hold, 0.0).min(axis=1).sum())}


def matches(prediction, reference):
    try:
        if prediction["num_endpoints"] != reference["num_endpoints"]:
            return False
        return all(abs(float(prediction[key]) - reference[key])
                   <= TOLERANCE_PS for key in SUMMARY_KEYS)
    except (KeyError, TypeError, ValueError):
        return False


def reference_model():
    """The seeded model the server serves, built independently here."""
    from repro.models import ModelConfig, TimingGNN
    return TimingGNN(ModelConfig.benchmark())


def reference(model, design, seed, scale):
    """Unbatched harness-side prediction for one placed design."""
    from repro.flow import Flow
    graph = Flow.from_benchmark(design, scale=scale).place(seed=seed) \
        .extract()
    return timing_summary(graph, model.predict(graph).numpy_arrival())


# -- serving workloads ------------------------------------------------------

class ServingWorkload:
    """Request stream, per-response check and reference check."""

    def __init__(self, seed, sizes):
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)

    def prepare(self):
        """Harness-side work needed before the server starts."""

    def server_config(self):
        raise NotImplementedError

    def request(self, index):
        """``(path, body)`` of the index-th request."""
        raise NotImplementedError

    def check(self, op):
        """Per-response check beyond status 200 and not degraded."""
        return True

    def verify(self, phases, model):
        """Compare responses with harness-side references; clears ``ok``."""


class DesignRounds(ServingWorkload):
    """Each round requests every design once, in a new seeded order."""

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.designs = list(sizes.serve_designs)
        self.round_size = len(self.designs)
        self.first_seed = int(self.rng.integers(1, 2 ** 30))
        self._orders = []

    def design(self, index):
        rnd = index // self.round_size
        while len(self._orders) <= rnd:
            self._orders.append(self.rng.permutation(self.designs).tolist())
        return self._orders[rnd][index % self.round_size]


class ColdPredict(DesignRounds):
    """Every request places its design with a new seed: all cache misses."""

    name = "cold_predict"

    def server_config(self):
        from repro.netlist import BENCHMARKS
        nodes = {spec.name: spec.target_nodes for spec in BENCHMARKS}
        smallest = min(self.designs, key=nodes.__getitem__)
        return {"warmup": {"design": smallest, "seed": self.first_seed - 1}}

    def request(self, index):
        return "/predict", {"design": self.design(index),
                            "seed": self.first_seed + index}

    def check(self, op):
        return op.payload["cache_hit"] is False

    def verify(self, phases, model):
        # One reference per design: the first round's request for it.
        refs = {}
        for index in range(self.round_size):
            refs[self.design(index)] = reference(
                model, self.design(index), self.first_seed + index,
                self.sizes.scale)
        for phase in phases:
            for op in phase.ops:
                ref = refs[self.design(op.index)]
                prediction = op.payload.get("prediction", {})
                if op.index < self.round_size:
                    op.ok = op.ok and matches(prediction, ref)
                else:
                    op.ok = op.ok and (prediction.get("num_endpoints")
                                       == ref["num_endpoints"])


class WarmPredict(DesignRounds):
    """Designs warmed in set-up, then re-predicted with ``no_cache``."""

    name = "warm_predict"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.seeds = {d: self.first_seed + i
                      for i, d in enumerate(self.designs)}

    def server_config(self):
        return {"warm": [[d, self.seeds[d]] for d in self.designs]}

    def request(self, index):
        design = self.design(index)
        return "/predict", {"design": design, "seed": self.seeds[design],
                            "no_cache": True}

    def check(self, op):
        return op.payload["cache_hit"] is False

    def verify(self, phases, model):
        refs = {d: reference(model, d, self.seeds[d], self.sizes.scale)
                for d in self.designs}
        for phase in phases:
            for op in phase.ops:
                op.ok = op.ok and matches(op.payload.get("prediction", {}),
                                          refs[self.design(op.index)])


class EcoDelta(ServingWorkload):
    """Single-edit deltas on one design: moves, every 5th edit a resize.

    Each round edits every cell of a fixed pool spread over the netlist
    once; every 5th pool cell is resized, the others are moved.  An
    edit's cost depends on its cell's fanout cone and on the placement,
    so the placement seed and the pool are fixed and every run gets the
    same mix of cheap and expensive edits.  The seed picks the order,
    the move offsets and the new cell types.
    """

    name = "eco_delta"
    placement_seed = 1

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.design = sizes.eco_design
        self.edits = []

    def prepare(self):
        from repro.flow import Flow
        from repro.liberty import sizing_alternatives
        self.flow = Flow.from_benchmark(self.design, scale=self.sizes.scale)
        self.flow.place(seed=self.placement_seed).extract()
        design, placement = self.flow.design, self.flow.placement
        library = design.library
        candidates = [c for c in design.cells
                      if not c.cell_type.is_sequential
                      and len(sizing_alternatives(library, c.cell_type)) > 1]
        step = max(1, len(candidates) // self.sizes.eco_pool)
        pool = candidates[::step][:self.sizes.eco_pool]
        self.round_size = len(pool)
        self.pool = [c.name for c in pool]
        self.home = {c.name: placement.cell_xy[design.cells.index(c)].copy()
                     for c in pool}
        self.types = {c.name: c.cell_type.name for c in pool}
        self.alternatives = {
            c.name: [v.name for v in sizing_alternatives(library,
                                                         c.cell_type)]
            for c in pool}
        die = placement.die
        self.die = np.array([die.width, die.height])
        self.sigma = 0.02 * float(self.die.max())

    def edit(self, index):
        while len(self.edits) <= index:
            for k in self.rng.permutation(self.round_size):
                cell = self.pool[k]
                if k % 5 == 4:
                    choices = [t for t in self.alternatives[cell]
                               if t != self.types[cell]]
                    self.types[cell] = choices[
                        int(self.rng.integers(len(choices)))]
                    self.edits.append({"op": "resize_cell", "cell": cell,
                                       "cell_type": self.types[cell]})
                else:
                    xy = np.clip(self.home[cell]
                                 + self.rng.normal(0.0, self.sigma, 2),
                                 0.0, self.die)
                    self.edits.append({"op": "move_cell", "cell": cell,
                                       "x": float(xy[0]),
                                       "y": float(xy[1])})
        return self.edits[index]

    def server_config(self):
        return {"eco": {"design": self.design, "seed": self.placement_seed}}

    def request(self, index):
        return "/predict/delta", {"design": self.design,
                                  "seed": self.placement_seed,
                                  "edits": [self.edit(index)]}

    def check(self, op):
        return (op.payload["graph_version"] == op.index + 1
                and op.payload["num_edits"] == 1)

    def verify(self, phases, model):
        """Replay the edits through GraphPatcher; delta must equal full."""
        from repro.graphdata.patch import GraphPatcher, parse_edits
        flow = self.flow
        patcher = GraphPatcher(flow.design, flow.placement, flow.routing,
                               flow.graph, flow.result, flow.extract())
        applied = 0
        for count in sorted({len(phase.ops) for phase in phases}):
            for edit in parse_edits(self.edits[applied:count]):
                patcher.apply(edit)
            applied = count
            graph = patcher.materialize()
            ref = timing_summary(graph, model.predict(graph).numpy_arrival())
            for phase in phases:
                if len(phase.ops) == count and count:
                    last = phase.ops[-1]
                    last.ok = last.ok and matches(
                        last.payload.get("prediction", {}), ref)


def drive(proc, workload, seconds, probe=False):
    """Closed-loop traffic from one keep-alive client (whole rounds).

    ``probe`` also measures the keep-alive ``/healthz`` round trip.
    """
    client = HttpClient(proc.url)
    ops = []
    try:
        for _ in range(PRECONNECT_EXCHANGES):
            client.request("GET", "/healthz")
        idle_rtt_ms = 0.0
        if probe:
            idle_rtt_ms = 1000.0 * statistics.median(
                client.request("GET", "/healthz")[3]
                for _ in range(RTT_PROBES))
        stats_before = client.request("GET", "/stats")[1]
        cpu_before = proc.cpu_s()
        deadline = time.perf_counter() + seconds
        index = 0
        while index % workload.round_size or time.perf_counter() < deadline:
            path, body = workload.request(index)
            op = f"{index + 1:016x}"     # doubles as the X-Trace-Id
            status, payload, start, elapsed = client.request(
                "POST", path, body, op=op)
            ops.append(Op(index, op, start, elapsed, status, payload))
            index += 1
        cpu_s = proc.cpu_s() - cpu_before
        peak_rss_mb = proc.peak_rss_mb()
        stats_after = client.request("GET", "/stats")[1]
    finally:
        client.close()

    for op in ops:
        try:
            op.ok = (op.status == 200 and not op.payload["degraded"]
                     and op.payload["model"] == "timing-full"
                     and workload.check(op))
        except (KeyError, TypeError):
            op.ok = False
    wall_s = (max(op.start + op.seconds for op in ops)
              - min(op.start for op in ops))
    return Phase(ops, wall_s, cpu_s, peak_rss_mb,
                 (stats_before, stats_after), idle_rtt_ms)


def _stats_delta(stats, *path):
    before, after = stats
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return after, before


def _batch_mean(stats):
    after, before = _stats_delta(stats, "batching")
    batches = sum(a["batches"] - before.get(k, {}).get("batches", 0)
                  for k, a in after.items())
    items = sum(a["items"] - before.get(k, {}).get("items", 0)
                for k, a in after.items())
    return items / batches if batches else 0.0


def _graph_hit_ratio(stats):
    after, before = _stats_delta(stats, "graph_cache")
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def measure(script, config, timed, seconds, trace, sizes, scratch):
    """Set up the measured process and run ``timed(proc, seconds, plain)``.

    Untraced: set up ``sizes.setups`` times and time the last process;
    returns ``([phase], setup seconds, [])``.  Traced: an untraced
    process for half of ``seconds`` (``plain=True``), then a traced one
    for the other half; returns ``([plain, traced], [], spans)``.
    """
    if not trace:
        setups, proc = [], None
        try:
            for _ in range(sizes.setups):
                if proc is not None:
                    proc.stop()
                proc = MeasuredProcess(script, config,
                                       scratch.fresh_dir(script))
                setups.append(proc.setup_s)
            phase = timed(proc, seconds, False)
            proc.stop()
        finally:
            if proc is not None:
                proc.close()
        return [phase], setups, []
    with MeasuredProcess(script, config, scratch.fresh_dir(script)) as proc:
        plain = timed(proc, seconds / 2, True)
        proc.stop()
    workdir = scratch.fresh_dir(script)
    spans_path = workdir / "spans.jsonl"
    with MeasuredProcess(script, {**config, "spans": str(spans_path)},
                         workdir) as proc:
        traced = timed(proc, seconds / 2, False)
        proc.stop()
    return [plain, traced], [], spanlib.load_spans(spans_path)


def run_serving(workload, seconds, trace, sizes, scratch):
    workload.prepare()
    config = {"scale": sizes.scale, **workload.server_config()}
    phases, setups, span_list = measure(
        "server.py", config,
        lambda proc, secs, plain: drive(proc, workload, secs, probe=plain),
        seconds, trace, sizes, scratch)
    workload.verify(phases, reference_model())
    ops = [op for phase in phases for op in phase.ops]
    failed = sum(not op.ok for op in ops)
    records = [{"name": "client.op", "op": op.op, "phase": "timed",
                "start": op.start, "end": op.start + op.seconds,
                "status": op.status, "ok": op.ok} for op in phases[-1].ops]
    if not trace:
        phase = phases[0]
        metrics = end_to_end(
            setups, [op.seconds * 1000.0 for op in phase.ops if op.ok],
            len(phase.ops), phase.wall_s, phase.cpu_s, phase.peak_rss_mb)
    else:
        metrics = serving_layers(*phases, span_list)
    return Outcome(len(ops), failed, metrics, records + span_list)


# -- training workload ------------------------------------------------------

class TrainEpochs:
    """Back-to-back ``train_timing_gnn`` calls on the training designs."""

    name = "train_epochs"

    def __init__(self, seed, sizes):
        rng = np.random.default_rng(seed)
        self.config = {"scale": sizes.scale,
                       "designs": list(sizes.train_designs),
                       "seed": int(rng.integers(1, 2 ** 30)),
                       "train_seed": int(seed),
                       "epochs": sizes.epochs_per_call}


@dataclass
class TrainPhase:
    calls: list
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @staticmethod
    def call_ok(call):
        loss = call["loss"]
        return (len(loss) >= 2 and all(math.isfinite(x) for x in loss)
                and loss[-1] < loss[0])

    @property
    def epochs(self):
        return sum(len(call["epoch_ms"]) for call in self.calls)

    @property
    def failed(self):
        return sum(len(call["epoch_ms"]) for call in self.calls
                   if not self.call_ok(call))

    def epoch_ms(self):
        return [ms for call in self.calls if self.call_ok(call)
                for ms in call["epoch_ms"]]


def train_phase(proc, seconds):
    cpu_before = proc.cpu_s()
    proc.send({"go": seconds})
    done = proc.wait_event("done", timeout=4 * seconds + 120.0)
    cpu_s = proc.cpu_s() - cpu_before
    return TrainPhase(done["calls"], done["wall_s"], cpu_s,
                      proc.peak_rss_mb())


def run_train(workload, seconds, trace, sizes, scratch):
    phases, setups, span_list = measure(
        "trainer.py", workload.config,
        lambda proc, secs, _plain: train_phase(proc, secs),
        seconds, trace, sizes, scratch)
    attempted = sum(phase.epochs for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if not trace:
        phase = phases[0]
        metrics = end_to_end(setups, phase.epoch_ms(), phase.epochs,
                             phase.wall_s, phase.cpu_s, phase.peak_rss_mb)
    else:
        metrics = train_layers(*phases, span_list)
    return Outcome(attempted, failed, metrics, span_list)


# -- metrics ----------------------------------------------------------------

def end_to_end(setups, ok_latencies_ms, ops, wall_s, cpu_s, peak_rss_mb):
    values = {
        "setup_s": statistics.median(setups),
        "latency_geomean_ms": geomean(ok_latencies_ms),
        "throughput_per_s": len(ok_latencies_ms) / wall_s if wall_s else 0.0,
        "cpu_ms_per_op": 1000.0 * cpu_s / max(ops, 1),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _layer_values(span_list, ops, latency_s, transport_s):
    """Per-layer values shared by the serving and training breakdowns."""
    ops = max(ops, 1)
    timed_self, timed_calls = spanlib.attribute(span_list, "timed")
    setup_self, _ = spanlib.attribute(span_list, "setup")
    values = {}
    for layer in spanlib.LAYERS:
        values[f"{layer}.ms_per_op"] = \
            1000.0 * timed_self.get(layer, 0.0) / ops
        values[f"{layer}.calls_per_op"] = timed_calls.get(layer, 0) / ops
    unattributed = timed_self.get(spanlib.UNATTRIBUTED, 0.0)
    values["serving.http.transport.ms_per_op"] = 1000.0 * transport_s / ops
    values["unattributed.ms_per_op"] = 1000.0 * unattributed / ops
    values["trace.latency_ms_per_op"] = 1000.0 * latency_s / ops
    values["trace.unattributed_share"] = \
        unattributed / latency_s if latency_s else 0.0
    gnn = (values["models.net_embedding.ms_per_op"]
           + values["models.propagation.ms_per_op"])
    flow = values["routing.ms_per_op"] + values["sta.ms_per_op"]
    values["table5.flow_over_gnn"] = flow / gnn if gnn else 0.0
    refreshes = [s for s in span_list if s["phase"] == "timed"
                 and s["name"] == "models.incremental"]
    values["models.incremental.dirty_ratio"] = (
        statistics.mean(s["dirty"] / s["nodes"] for s in refreshes)
        if refreshes else 0.0)
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}.ms"] = 1000.0 * setup_self.get(layer, 0.0)
    return values


def _overhead(traced_ms, plain_ms):
    plain = geomean(plain_ms)
    return (geomean(traced_ms) - plain) / plain if plain else 0.0


def serving_layers(plain, traced, span_list):
    handler_s = {s["op"]: s["end"] - s["start"] for s in span_list
                 if s["phase"] == "timed" and s["name"] == "serving.http"}
    latency_s = sum(op.seconds for op in traced.ops)
    transport_s = sum(op.seconds - handler_s.get(op.op, 0.0)
                      for op in traced.ops)
    values = _layer_values(span_list, len(traced.ops), latency_s,
                           transport_s)
    plain_ok = [op for op in plain.ops if op.ok]
    values["trace.overhead_share"] = _overhead(
        [op.seconds * 1000.0 for op in traced.ops if op.ok],
        [op.seconds * 1000.0 for op in plain_ok])
    values["serving.http.transport_ms_p50"] = median(
        [op.seconds * 1000.0 - op.payload["latency_ms"] for op in plain_ok])
    values["serving.http.idle_rtt_ms"] = plain.idle_rtt_ms
    values["serving.batching.batch_mean"] = _batch_mean(plain.stats)
    values["serving.cache.graph_hit_ratio"] = _graph_hit_ratio(plain.stats)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def train_layers(plain, traced, span_list):
    latency_s = sum(s["end"] - s["start"] for s in span_list
                    if s["phase"] == "timed"
                    and s["name"] == "training.train")
    values = _layer_values(span_list, traced.epochs, latency_s, 0.0)
    values["trace.overhead_share"] = _overhead(traced.epoch_ms(),
                                               plain.epoch_ms())
    for name in ("serving.http.transport_ms_p50", "serving.http.idle_rtt_ms",
                 "serving.batching.batch_mean",
                 "serving.cache.graph_hit_ratio"):
        values[name] = 0.0
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


WORKLOADS = {
    "cold_predict": (ColdPredict, run_serving),
    "warm_predict": (WarmPredict, run_serving),
    "eco_delta": (EcoDelta, run_serving),
    "train_epochs": (TrainEpochs, run_train),
}


def run(name, seed, seconds, trace, scratch, sizes=None):
    """Run one workload once; returns its :class:`Outcome`."""
    sizes = (sizes or Sizes()).resolved()
    make, runner = WORKLOADS[name]
    return runner(make(seed, sizes), seconds, trace, sizes, scratch)
