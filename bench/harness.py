"""One benchmark run: set up, warm, measure, check, report.

An end-to-end run (``trace=False``) builds the workload's deployment
``SETUPS`` times and reports the median set-up time, then runs the
workload's fixed op budget with no instrumentation in the program.
Between ops it samples the host's speed, and it reports every time
divided by the host's slowdown around it (``speed``).

A traced run makes two passes over the same seeded op sequence, each
on a fresh deployment: an untraced pass that reads the layers' public
counters and the garbage collector's pauses, and a traced pass with
the outside-in ledger installed.  Their throughputs give the tracing
overhead.

The op budget is fixed per workload and proportional to ``seconds``
(``Workload.base_ops`` ops at 10 s), never a deadline: the final state,
every layer's call count and the memory a run retains are then the
same on every commit, and a faster commit simply finishes sooner.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

from . import speed
from .ledger import (COUNTER_UNITS, OP_LAYERS, SETUP_LAYERS, Ledger,
                     counter_metrics, read_counters)
from .workloads import WORKLOADS, Workload

#: Deployments built per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Self times plus unattributed time must sum to the traced op
#: latency within this share.
IDENTITY_TOLERANCE = 0.05
#: Latency percentiles are medians over consecutive slices of at least
#: ``SLICE_OPS`` ops, so that every slice's p99 has ten samples beyond
#: it; at most ``MAX_SLICES`` slices.
SLICE_OPS = 1000
MAX_SLICES = 20

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in OP_LAYERS:
        units[f"{layer.name}.calls_per_op"] = "calls/op"
        units[f"{layer.name}.self_us_per_op"] = "us/op"
    for layer in SETUP_LAYERS:
        units[f"{layer.name}.setup_calls"] = "count"
        units[f"{layer.name}.setup_self_ms"] = "ms"
    units.update(COUNTER_UNITS)
    units.update({
        "runtime.gc.gen2_collections": "count",
        "runtime.gc.pause_ms_per_kop": "ms/kop",
        "trace.unattributed_us_per_op": "us/op",
        "trace.overhead_ratio": "ratio",
    })
    return units


@dataclass
class Pass:
    """What one pass over the measured ops observed."""

    latencies_ns: list[int]
    failed: int
    #: The measuring loop's wall time, without the speed samples.
    wall_ns: int
    #: Op plus operator time, the span the ledger attributes.
    busy_ns: int
    unattributed_ns: int
    #: Paced passes only: the host-speed samples, and for each the
    #: stretch of ops that followed it as ``(first op, wall ns)``.
    speed_samples: list[int]
    segments: list[tuple[int, int]]

    def normalized(self) -> tuple[list[float], float]:
        """Latencies and wall time in reference ns (``speed``)."""
        slow = speed.local_slowdowns(self.speed_samples)
        ends = [first for first, __ in self.segments[1:]]
        ends.append(len(self.latencies_ns))
        latencies: list[float] = []
        wall = 0.0
        for (first, ns), end, s in zip(self.segments, ends, slow):
            latencies.extend(x / s for x in self.latencies_ns[first:end])
            wall += ns / s
        return latencies, wall


class GcWatch:
    """``gc.callbacks`` hook: generation-2 collections and total pause."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_ns = 0
        self._start = 0

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._start
            self.gen2 += info["generation"] == 2


def _drive(w: Workload, start: int, n: int,
           ledger: Optional[Ledger] = None, paced: bool = False) -> Pass:
    """Run ops ``start .. start+n-1`` in a closed loop; ``paced`` takes
    a host-speed sample before the first op and then about every
    ``speed.EVERY_NS`` between ops."""
    latencies = [0] * n
    failed = busy = unattributed = 0
    clock = perf_counter_ns
    prepare, execute, operate, check = (w.prepare, w.execute, w.operate,
                                        w.check)
    samples = [speed.sample()] if paced else []
    segments = [(0, 0)]
    mark = clock()
    for k in range(n):
        i = start + k
        inputs = prepare(i)
        if ledger is not None:
            ledger.covered_ns = 0
        t0 = clock()
        output = execute(i, inputs)
        t1 = clock()
        operate(i)
        t2 = clock()
        latencies[k] = t1 - t0
        busy += t2 - t0
        if ledger is not None:
            unattributed += t2 - t0 - ledger.covered_ns
        if not check(i, inputs, output):
            failed += 1
        if paced and k + 1 < n and (now := clock()) - mark >= speed.EVERY_NS:
            segments[-1] = (segments[-1][0], now - mark)
            samples.append(speed.sample())
            segments.append((k + 1, 0))
            mark = clock()
    segments[-1] = (segments[-1][0], clock() - mark)
    wall = sum(ns for __, ns in segments)
    return Pass(latencies, failed, wall, busy, unattributed, samples,
                segments if paced else [])


def _build(cls: type[Workload], seed: int, scale: float) -> Workload:
    """Set up and warm one deployment (warmup ops must all pass)."""
    w = cls(seed, scale)
    try:
        w.setup()
        warm = _drive(w, 0, w.warmup_ops)
    except BaseException:
        w.close()
        raise
    if warm.failed:
        w.close()
        raise RuntimeError(f"{warm.failed} warmup ops failed")
    return w


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _slices(n: int) -> list[tuple[int, int]]:
    """Consecutive op ranges of at least ``SLICE_OPS`` ops each (one
    range when the run is shorter), at most ``MAX_SLICES`` of them."""
    count = max(1, min(MAX_SLICES, n // SLICE_OPS))
    edges = [round(k * n / count) for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _sliced_percentile(latencies: list[float], q: float) -> float:
    """The median over slices of each slice's percentile: a few seconds
    of machine slowdown inside a run then moves it less than the
    percentile of the pooled run."""
    return statistics.median(_percentile(sorted(latencies[a:b]), q)
                             for a, b in _slices(len(latencies)))


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]


def run_end_to_end(name: str, seed: int, seconds: float,
                   scale: float) -> Result:
    cls = WORKLOADS[name]
    setup_s, setup_raw = [], []
    w: Optional[Workload] = None
    for k in range(SETUPS):
        if w is not None:
            w.close()
            w = None
        gc.collect()
        before = speed.burst()
        t0 = perf_counter()
        w = _build(cls, seed, scale)
        setup_raw.append(perf_counter() - t0)
        setup_s.append(setup_raw[-1]
                       / speed.slowdown(before + speed.burst()))
    assert w is not None
    try:
        n = w.ops(seconds)
        run = _drive(w, w.warmup_ops, n, paced=True)
        problems = w.verify()
    finally:
        w.close()
    latencies, wall = run.normalized()
    slices = _slices(n)
    smallest = min(b - a for a, b in slices)
    raw = {
        "throughput_ops_s": n / (run.wall_ns / 1e9),
        "latency_p50_us": _sliced_percentile(run.latencies_ns, 0.50) / 1e3,
        "latency_p99_us": _sliced_percentile(run.latencies_ns, 0.99) / 1e3,
        "setup_s": statistics.median(setup_raw),
    }
    notes = [
        f"{name} seed={seed} scale={scale}: {n} ops after "
        f"{w.warmup_ops} warmup ops",
        "setup_s runs (reference s): "
        + ", ".join(f"{s:.3f}" for s in setup_s),
        f"latency: {len(slices)} slice(s) of >= {smallest} ops, "
        f"{smallest - math.ceil(0.99 * smallest)} samples beyond each "
        f"slice's p99; error_rate {run.failed / n:g} ({run.failed}/{n})",
        f"host slowdown: median {speed.slowdown(run.speed_samples):.3f} "
        f"over {len(run.speed_samples)} samples; raw (unnormalized) "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ] + [f"invariant violated: {p}" for p in problems]
    metrics = {
        "throughput_ops_s": n / (wall / 1e9),
        "latency_p50_us": _sliced_percentile(latencies, 0.50) / 1e3,
        "latency_p99_us": _sliced_percentile(latencies, 0.99) / 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return Result(not run.failed and not problems, n, run.failed, metrics,
                  notes)


def run_traced(name: str, seed: int, seconds: float, scale: float) -> Result:
    cls = WORKLOADS[name]
    # pass 1: untraced — counters, garbage collector, baseline speed
    gc.collect()
    w = _build(cls, seed, scale)
    n = w.ops(seconds)
    watch = GcWatch()
    try:
        before, absent_counters = read_counters(w.providers(), w.links())
        gc.callbacks.append(watch)
        try:
            plain = _drive(w, w.warmup_ops, n)
        finally:
            gc.callbacks.remove(watch)
        after, __ = read_counters(w.providers(), w.links())
        problems = w.verify()
    finally:
        w.close()
    del w
    # pass 2: traced — the per-layer ledger
    gc.collect()
    setup_ledger = Ledger(SETUP_LAYERS)
    setup_ledger.install()
    try:
        w = _build(cls, seed, scale)
    finally:
        setup_ledger.uninstall()
    ledger = Ledger(OP_LAYERS)
    try:
        ledger.install()
        try:
            traced = _drive(w, w.warmup_ops, n, ledger)
        finally:
            ledger.uninstall()
        problems += w.verify()
    finally:
        w.close()

    metrics: dict[str, float] = {}
    for layer, (calls, self_us) in ledger.per_op(n).items():
        metrics[f"{layer}.calls_per_op"] = calls
        metrics[f"{layer}.self_us_per_op"] = self_us
    for k, layer in enumerate(SETUP_LAYERS):
        metrics[f"{layer.name}.setup_calls"] = setup_ledger.calls[k]
        metrics[f"{layer.name}.setup_self_ms"] = \
            setup_ledger.self_ns[k] / 1e6
    metrics.update(counter_metrics(before, after, n))
    metrics["runtime.gc.gen2_collections"] = watch.gen2
    metrics["runtime.gc.pause_ms_per_kop"] = watch.pause_ns / 1e6 / (n / 1e3)
    metrics["trace.unattributed_us_per_op"] = traced.unattributed_ns / 1e3 / n
    metrics["trace.overhead_ratio"] = traced.wall_ns / plain.wall_ns

    # Within an op, self times and unattributed time add up to the op's
    # duration by construction; they differ only by wrapped-layer time
    # spent outside the ops (a layer called from the harness' untimed
    # prepare/check).  How much the wrappers slow the layers shows in
    # trace.overhead_ratio instead.
    accounted_ns = sum(ledger.self_ns) + traced.unattributed_ns
    drift = abs(accounted_ns - traced.busy_ns) / traced.busy_ns
    if drift > IDENTITY_TOLERANCE:
        problems.append(f"wrapped layers ran outside the timed ops: "
                        f"self times + unattributed differ from the "
                        f"traced op latency by {drift:.1%}")
    notes = [f"{name} seed={seed} scale={scale}: {n} ops per pass after "
             f"{cls.warmup_ops} warmup ops",
             *_ledger_table(name, ledger, n, traced.busy_ns / 1e3 / n,
                            setup_ledger.absent)]
    if absent_counters:
        notes.append("absent counters (no such stats key in this "
                     "program): " + ", ".join(absent_counters))
    notes += [f"invariant violated: {p}" for p in problems]
    failed = plain.failed + traced.failed
    return Result(not failed and not problems, 2 * n, failed, metrics,
                  notes)


def _ledger_table(workload: str, ledger: Ledger, n: int, op_us: float,
                  absent_in_setup: list[str]) -> list[str]:
    rows = [f"traced time per op {op_us:.2f} us; layer, calls/op, "
            f"self us/op, share, should move"]
    idle = []
    for k, layer in enumerate(ledger.layers):
        calls = ledger.calls[k] / n
        self_us = ledger.self_ns[k] / 1e3 / n
        rows.append(f"  {layer.name:<30} {calls:9.3f} {self_us:10.3f} "
                    f"{self_us / op_us:6.1%}  {layer.moves}")
        if workload in layer.busy_on and ledger.calls[k] == 0:
            idle.append(layer.name)
    absent = ledger.absent + absent_in_setup
    if absent:
        rows.append("absent layers (no target in this program): "
                    + ", ".join(absent))
    if idle:
        rows.append("idle where predicted busy: " + ", ".join(idle))
    return rows
