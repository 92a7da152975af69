"""The outside-in per-layer self-time ledger.

The benchmark never edits the program to time it.  For a ``--trace``
run it replaces each layer's public entry points with a timing wrapper
*from outside* and puts the originals back afterwards; end-to-end runs
install nothing.  Wrappers go on the layer classes (public names in
public modules) rather than on instances, because the delta engine,
its envelope channels and the journal are reachable from a deployment
only through private attributes.  The one layer that is not a class
method — the blog application's handler — is wrapped on the registered
``AppModule``, which every provider shares.

Self time is exact: a wrapper's duration minus the durations of the
wrapped calls nested inside it, so the self times of one op sum to the
part of the op that some wrapped layer covered.  The rest of the op
(the provider's own dispatch, the harness' call into it) is
``trace.unattributed_us_per_op``.

A target the program no longer has (a method a refactor deleted)
makes its layer *absent* rather than crashing the run.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Layer:
    """One row of the wrap table."""

    name: str
    #: ``(module, class)`` whose methods are wrapped; ``class`` may be
    #: ``"MODULES[0]"`` for an application module instance.
    module: str
    owner: str
    methods: tuple[str, ...]
    #: The end-to-end metric a change to this layer should move.
    moves: str
    #: Workloads on which this layer should be busy (README.md lists
    #: where each should read ~0).
    busy_on: tuple[str, ...]


#: Layers timed around each measured op.
OP_LAYERS = (
    Layer("net.gateway.admission", "repro.net.gateway", "Gateway",
          ("authenticate", "admit"), "latency_p50_us",
          ("tainted_read",)),
    Layer("platform.plans.lookup", "repro.platform.plans", "PlanCache",
          ("lookup",), "latency_p99_us", ("policy_churn",)),
    Layer("declassify.service.authority", "repro.declassify.service",
          "DeclassificationService", ("authority_for",), "latency_p99_us",
          ("policy_churn",)),
    Layer("platform.capindex.lookup", "repro.platform.capindex",
          "LaunchCapIndex", ("lookup",), "latency_p99_us",
          ("policy_churn",)),
    Layer("kernel.pool.checkout", "repro.kernel.pool", "ProcessPool",
          ("checkout", "checkout_planned", "release"), "latency_p50_us",
          ("tainted_read",)),
    Layer("kernel.kernel.label_change", "repro.kernel.kernel", "Kernel",
          ("change_label",), "latency_p50_us", ("tainted_read",)),
    Layer("apps.blog.handler", "repro.apps.blog", "MODULES[0]",
          ("handler",), "latency_p50_us", ("labeled_write",)),
    Layer("db.store.scan", "repro.db.store", "LabeledStore",
          ("select", "count", "update", "insert"), "latency_p50_us",
          ("labeled_write", "tainted_read")),
    Layer("resources.containers.charge", "repro.resources.containers",
          "ResourceManager", ("charge", "charge_many"), "throughput_ops_s",
          ("tainted_read",)),
    Layer("kernel.audit.record", "repro.kernel.audit", "AuditLog",
          ("record", "record_lazy"), "throughput_ops_s",
          ("tainted_read",)),
    Layer("net.gateway.egress", "repro.net.gateway", "Gateway",
          ("egress", "egress_planned"), "latency_p50_us",
          ("tainted_read",)),
    Layer("core.journal.append", "repro.core.journal", "Journal",
          ("append",), "throughput_ops_s", ("labeled_write", "delta_sync")),
    Layer("platform.durability.snapshot", "repro.platform.provider",
          "Provider", ("snapshot_incremental",), "latency_p99_us",
          ("labeled_write", "delta_sync")),
    Layer("fs.filesystem.ops", "repro.fs.filesystem", "LabeledFileSystem",
          ("create", "read", "write", "listdir"), "latency_p50_us",
          ("delta_sync",)),
    Layer("federation.delta.sync", "repro.federation.delta", "DeltaSync",
          ("sync",), "throughput_ops_s", ("delta_sync",)),
    Layer("net.envelopes.transfer", "repro.net.envelopes",
          "EnvelopeChannel", ("transfer_batch",), "latency_p50_us",
          ("delta_sync",)),
    Layer("platform.shards.route", "repro.platform.shards",
          "ShardedProvider", ("shard_for",), "latency_p50_us",
          ("shard_batch",)),
    # the parent's share of a cross-shard batch once routing is
    # subtracted: fan-out, blocking on both children, reassembly
    Layer("platform.shards.wait", "repro.platform.shards",
          "ShardedProvider", ("handle_batch",), "latency_p50_us",
          ("shard_batch",)),
)

#: Layers timed while the deployment is built (they move ``setup_s``).
SETUP_LAYERS = (
    Layer("kernel.kernel.create_tag", "repro.kernel.kernel", "Kernel",
          ("create_tag",), "setup_s", ("tainted_read", "policy_churn")),
)


def _owner(layer: Layer) -> Optional[Any]:
    """The class (or ``NAME[k]`` instance) a layer's methods live on,
    or None when the program no longer has it."""
    try:
        module = importlib.import_module(layer.module)
    except ImportError:
        return None
    name, __, index = layer.owner.partition("[")
    owner = getattr(module, name, None)
    if index and owner is not None:
        k = int(index.rstrip("]"))
        owner = owner[k] if k < len(owner) else None
    return owner


class Ledger:
    """Calls and exact self time per layer, from outside-in wrappers.

    ``covered_ns`` accumulates the time of outermost wrapped calls; the
    harness zeroes it before an op and reads it after, so the op's
    unattributed time is its duration minus ``covered_ns``.
    """

    def __init__(self, layers: tuple[Layer, ...]) -> None:
        self.layers = layers
        self.calls = [0] * len(layers)
        self.self_ns = [0] * len(layers)
        #: Layers none of whose targets exist in this program.
        self.absent: list[str] = []
        #: One child-time accumulator per open wrapped call; slot 0 is
        #: the op itself.
        self._stack = [0]
        self._installed: list[tuple[Any, str, Any, bool]] = []

    @property
    def covered_ns(self) -> int:
        return self._stack[0]

    @covered_ns.setter
    def covered_ns(self, value: int) -> None:
        self._stack[0] = value

    def _wrap(self, slot: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack[-2] += elapsed
                self_ns[slot] += elapsed - stack.pop()
                calls[slot] += 1

        return timed

    def install(self) -> None:
        """Wrap every target that exists; note layers with none."""
        for slot, layer in enumerate(self.layers):
            owner = _owner(layer)
            found = False
            for method in layer.methods:
                original = getattr(owner, method, None)
                if not callable(original):
                    continue
                found = True
                # an inherited method is shadowed, then deleted again
                own = not isinstance(owner, type) or method in vars(owner)
                self._set(owner, method, self._wrap(slot, original))
                self._installed.append((owner, method, original, own))
            if not found and layer.name not in self.absent:
                self.absent.append(layer.name)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._installed:
            owner, method, original, own = self._installed.pop()
            if own:
                self._set(owner, method, original)
            else:
                delattr(owner, method)

    @staticmethod
    def _set(owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, type):
            setattr(owner, name, value)
        else:
            # registered AppModules are frozen dataclass instances
            object.__setattr__(owner, name, value)

    def per_op(self, ops: int) -> dict[str, tuple[float, float]]:
        """``layer -> (calls per op, self microseconds per op)``."""
        return {layer.name: (self.calls[k] / ops,
                             self.self_ns[k] / 1e3 / ops)
                for k, layer in enumerate(self.layers)}


# -- counters: before/after deltas of each layer's public stats() -------

def _stats(obj: Any, path: str) -> Optional[dict[str, Any]]:
    """``obj.<path>()``, or None when the program no longer has it."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj()


#: ``(prefix, stats method path, keys)`` read from every provider.
PROVIDER_COUNTERS = (
    ("plans", "plans.stats", ("hits", "misses", "bypasses")),
    ("capindex", "capindex.stats", ("hits", "misses")),
    ("flow", "kernel.flow_cache.stats", ("hit_total", "miss_total")),
    ("durability", "persistence_stats", ("bytes_written", "compactions")),
)
#: The same, read from every federation link.
LINK_COUNTERS = (
    ("federation", "federation_stats", ("full_recons",)),
)


def read_counters(providers: list[Any],
                  links: list[Any]) -> tuple[Counter, list[str]]:
    """Raw cumulative counters summed over in-process providers/links,
    and the counters the program no longer has (``absent``).

    A stats method or key a refactor renames is listed as absent rather
    than read as 0, so it cannot pass for a real 0."""
    out: Counter = Counter()
    absent: list[str] = []
    for sources, table in ((providers, PROVIDER_COUNTERS),
                           (links, LINK_COUNTERS)):
        for source in sources:
            for prefix, path, keys in table:
                stats = _stats(source, path) or {}
                for key in keys:
                    name = f"{prefix}.{key}"
                    if key in stats:
                        out[name] += stats[key]
                    elif name not in absent:
                        absent.append(name)
    return out, absent


def _ratio(part: float, *rest: float) -> float:
    total = part + sum(rest)
    return part / total if total else 0.0


#: name -> unit of every counter-derived metric.
COUNTER_UNITS = {
    "platform.plans.hit_ratio": "ratio",
    "platform.capindex.hit_ratio": "ratio",
    "labels.cache.hit_ratio": "ratio",
    "core.journal.bytes_per_op": "B/op",
    "platform.durability.compactions": "count",
    "federation.delta.full_recons": "count",
}


def counter_metrics(before: Counter, after: Counter,
                    ops: int) -> dict[str, float]:
    """Ratios and per-op rates over the measured ops.  A ratio whose
    layer saw no lookups at all reads 0."""
    d = Counter(after)
    d.subtract(before)
    return {
        "platform.plans.hit_ratio": _ratio(
            d["plans.hits"], d["plans.misses"], d["plans.bypasses"]),
        "platform.capindex.hit_ratio": _ratio(
            d["capindex.hits"], d["capindex.misses"]),
        "labels.cache.hit_ratio": _ratio(
            d["flow.hit_total"], d["flow.miss_total"]),
        "core.journal.bytes_per_op": d["durability.bytes_written"] / ops,
        "platform.durability.compactions": d["durability.compactions"],
        "federation.delta.full_recons": d["federation.full_recons"],
    }
