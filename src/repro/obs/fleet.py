"""Fleet observability: cross-boundary traces, merged metrics, health.

M11 gave one provider an instrument panel; M13 sharded the request
plane and M15 federated it, and both left observability behind — a
trace died at the shard-RPC boundary, ``trace_report`` was a raw
per-shard broadcast, and no single surface answered "which provider is
unhealthy, how stale is each sync cursor."  This module is the fleet
half of ``repro.obs`` (M16), three coupled pieces:

* **Trace propagation.**  :class:`~repro.obs.trace.TraceContext` is
  the compact wire form of an open span (trace id, parent span id,
  sampling fold).  A boundary crossing exports it on the near side
  (``Tracer.export_context``) and opens a :class:`RemoteCapture`
  window on the far side: every trace the far tracer finishes inside
  the window inherits the fold decision and is collected as a
  ``trace_to_dict`` skeleton (while still reaching the far side's own
  recorder).  The near side stitches the returned skeletons under the
  originating span with ``Tracer.graft``; ``trace_to_dict`` merges
  them into one causal tree, ordered deterministically like the M13
  ``(shard, seq)`` audit merge.  The window wraps the tracer's *sink*,
  not the span close path, so the M11 hot-path budget is untouched.

* **Fleet metrics.**  :class:`FleetRegistry` attaches every member's
  :class:`~repro.core.metrics.Metrics` and exactly-merges audit
  counters and each member's span-latency
  :class:`~repro.obs.histogram.LatencyHistogram` s (bucket-wise
  addition through :func:`~repro.obs.histogram.merge_histograms` —
  merged percentiles equal the percentiles of the union of
  observations).  It renders JSON snapshots, delta
  snapshots between scrapes, and a Prometheus-style text exposition
  (:func:`prometheus_text`, round-trippable through
  :func:`parse_prometheus`).

* **Health.**  :func:`provider_health` derives ok/degraded gauges from
  the provider's ``stats()`` tree — journal byte lag since the last
  checkpoint, process-pool occupancy, plan-cache hit ratio,
  audit-ring drops — and :func:`fabric_health` rolls per-provider
  states and per-link :class:`~repro.core.journal.JournalCursor`
  staleness into one ``ok``/``degraded``/``down`` report that
  ``FederationFabric.crash`` flips observably.

Everything here is read-side and duck-typed: no imports from the
platform or federation packages, so ``repro.obs`` stays at the bottom
of the dependency graph.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Iterator, Optional

from .export import trace_to_dict
from .histogram import LatencyHistogram, merge_histograms
from .trace import Trace, TraceContext, Tracer

__all__ = [
    "RemoteCapture", "FleetRegistry", "prometheus_text",
    "parse_prometheus", "provider_health", "fabric_health",
    "JOURNAL_LAG_DEGRADED_BYTES",
]

#: Journal bytes accumulated since the last checkpoint before a
#: provider reads ``degraded``: the journal's own auto-compaction
#: threshold is 1 MiB, so lag past it means compaction is overdue
#: (checkpointing stalled or writes are outrunning it).
JOURNAL_LAG_DEGRADED_BYTES = 1 << 20


# ----------------------------------------------------------------------
# trace propagation
# ----------------------------------------------------------------------

class RemoteCapture:
    """Collect traces finished on a tracer while serving a remote parent.

    The far-side half of cross-boundary tracing: the shard worker (or
    the federation link's destination provider) enters this window
    with the near side's exported :class:`TraceContext` before running
    the shipped work.  Inside the window:

    * new root traces inherit the context's ``fold`` decision (the
      sampling choice travels with the request), and
    * every finished trace is serialized to a skeleton dict and
      appended to :attr:`skeletons` — *in addition to* reaching the
      tracer's normal sink, so the far side's own flight recorder
      still sees its local view.

    The wrap happens at the sink (once per finished trace), never on
    the span close path, and is fully undone on exit — nested windows
    restore correctly.  Skeletons are plain picklable dicts: they ride
    the fork engine's pipe as-is.
    """

    __slots__ = ("tracer", "ctx", "skeletons", "_saved_sink",
                 "_saved_remote")

    def __init__(self, tracer: Tracer, ctx: TraceContext) -> None:
        self.tracer = tracer
        self.ctx = ctx
        self.skeletons: list[dict[str, Any]] = []

    def __enter__(self) -> "RemoteCapture":
        tracer = self.tracer
        self._saved_sink = tracer.sink
        self._saved_remote = tracer._remote
        tracer._remote = self.ctx
        tracer.sink = self._offer
        return self

    def _offer(self, trace: Trace) -> None:
        self.skeletons.append(trace_to_dict(trace))
        saved = self._saved_sink
        if saved is not None:
            saved(trace)

    def __exit__(self, *exc: Any) -> None:
        tracer = self.tracer
        tracer.sink = self._saved_sink
        tracer._remote = self._saved_remote


# ----------------------------------------------------------------------
# fleet metrics registry
# ----------------------------------------------------------------------

class FleetRegistry:
    """Merged counters and span histograms across a fleet of Metrics.

    Attach one :class:`~repro.core.metrics.Metrics` per member (a
    shard, a provider, a gateway tier), each attached to its
    provider's tracer; reads merge on demand — counters by addition,
    span-latency histograms bucket-exactly — so the fleet view never
    goes stale and members never synchronize.

    Health sources (anything with a ``health_report()`` — a
    ``ShardedProvider``, a ``FederationFabric``) attach separately via
    :meth:`attach_health` and are folded into :meth:`health_report`.
    """

    def __init__(self) -> None:
        #: member name -> Metrics (insertion-ordered; reads sort).
        self._members: dict[str, Any] = {}
        self._health_sources: dict[str, Any] = {}
        #: Scrape state for :meth:`delta_snapshot`.
        self._last_counters: dict[str, int] = {}
        self._last_observations: dict[str, int] = {}

    # -- membership --------------------------------------------------------

    def attach(self, name: str, metrics: Any) -> "FleetRegistry":
        """Register a member's Metrics under ``name``; chains."""
        self._members[name] = metrics
        return self

    def attach_health(self, name: str, source: Any) -> "FleetRegistry":
        """Register a health source (duck-typed on ``health_report``)."""
        self._health_sources[name] = source
        return self

    def members(self) -> list[str]:
        return sorted(self._members)

    def _sorted_members(self) -> Iterator[tuple[str, Any]]:
        for name in sorted(self._members):
            yield name, self._members[name]

    # -- merged reads ------------------------------------------------------

    def merged_counts(self) -> Counter:
        """Audit counters summed across members, keyed
        ``(category, allowed)``."""
        merged: Counter = Counter()
        for _, metrics in self._sorted_members():
            merged.update(metrics.category_counts())
        return merged

    def merged_latency(self) -> dict[str, LatencyHistogram]:
        """Per-span-name latency histograms merged bucket-exactly.

        The merge is exact (bucket-wise addition), so percentiles read
        from the result equal percentiles of a histogram fed the union
        of every member's observations — the property test in
        ``tests/obs/test_fleet.py`` pins this.
        """
        return merge_histograms(metrics.latency_histograms()
                                for _, metrics in self._sorted_members())

    def _flat_counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (category, allowed), n in sorted(self.merged_counts().items()):
            out[f"{category}.{'allow' if allowed else 'deny'}"] = n
        return out

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full merged view, JSON-serializable: the input of
        ``python -m repro.analysis metrics`` and
        :func:`prometheus_text`."""
        return {
            "members": self.members(),
            "counters": self._flat_counters(),
            "latency": {name: hist.snapshot()
                        for name, hist in self.merged_latency().items()},
            "per_member": {name: metrics.snapshot()
                           for name, metrics in self._sorted_members()},
        }

    def delta_snapshot(self) -> dict[str, Any]:
        """Counters and observation counts since the previous scrape.

        Every call advances the scrape point.  Counters are monotonic,
        so the delta is a plain subtraction; zero-delta keys are
        dropped.  Histogram shapes don't subtract meaningfully (the
        buckets do, but a scraper wants rates), so latency reports the
        per-span observation-count delta.
        """
        counters = self._flat_counters()
        observations = {name: hist.count
                        for name, hist in self.merged_latency().items()}
        delta = {
            "counters": {k: v - self._last_counters.get(k, 0)
                         for k, v in sorted(counters.items())
                         if v != self._last_counters.get(k, 0)},
            "observations": {k: v - self._last_observations.get(k, 0)
                             for k, v in sorted(observations.items())
                             if v != self._last_observations.get(k, 0)},
        }
        self._last_counters = counters
        self._last_observations = observations
        return delta

    def prometheus(self, prefix: str = "w5") -> str:
        """The merged view as Prometheus text exposition."""
        return prometheus_text(self.snapshot(), prefix=prefix)

    # -- health ------------------------------------------------------------

    def health_report(self) -> dict[str, Any]:
        """Every attached health source's report, rolled up: the
        overall state is the worst member state."""
        sources = {name: source.health_report()
                   for name, source in sorted(self._health_sources.items())}
        return {"state": _worst(r.get("state", "ok")
                               for r in sources.values()),
                "sources": sources}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _bucket_le(index: int) -> str:
    """The upper edge of log2 bucket ``index`` in seconds."""
    return repr((1 << (index + 1)) * 1e-9)


def prometheus_text(snapshot: dict[str, Any], prefix: str = "w5") -> str:
    """Render a :meth:`FleetRegistry.snapshot` as Prometheus text.

    Counters become ``{prefix}_audit_total{category=...,verdict=...}``;
    merged span histograms become ``{prefix}_span_latency_seconds``,
    the standard cumulative-bucket triplet (``_bucket``/``_sum``/
    ``_count``) labelled ``span=...`` with ``le`` edges at the log2
    bucket boundaries.  Output is deterministic (sorted) and
    round-trips through :func:`parse_prometheus`.
    """
    lines: list[str] = []
    lines.append(f"# TYPE {prefix}_members gauge")
    lines.append(f"{prefix}_members {len(snapshot.get('members', []))}")
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"# TYPE {prefix}_audit_total counter")
        for key, n in sorted(counters.items()):
            category, verdict = key.rsplit(".", 1)
            lines.append(
                f'{prefix}_audit_total{{category="{category}",'
                f'verdict="{verdict}"}} {n}')
    latency = snapshot.get("latency", {})
    if latency:
        name = f"{prefix}_span_latency_seconds"
        lines.append(f"# TYPE {name} histogram")
        for span, snap in sorted(latency.items()):
            cumulative = 0
            buckets = snap.get("buckets") or {}
            for index in sorted(int(i) for i in buckets):
                cumulative += int(buckets[str(index)]
                                  if str(index) in buckets
                                  else buckets[index])
                lines.append(
                    f'{name}_bucket{{span="{span}",'
                    f'le="{_bucket_le(index)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{span="{span}",'
                         f'le="+Inf"}} {snap.get("count", cumulative)}')
            lines.append(f'{name}_sum{{span="{span}"}} '
                         f'{snap.get("total_s", 0.0)!r}')
            lines.append(f'{name}_count{{span="{span}"}} '
                         f'{snap.get("count", cumulative)}')
    return "\n".join(lines) + "\n"


_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Parse text exposition back into samples.

    Keys are ``(metric_name, sorted_label_items)``; values are floats.
    A deliberately small parser — enough for the round-trip test and
    for reading our own output back in tooling, not a general client.
    """
    samples: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            labels_raw, value = rest.rsplit("} ", 1)
            labels = tuple(sorted(_LABEL_RE.findall(labels_raw)))
        else:
            name, value = line.rsplit(" ", 1)
            labels = ()
        samples[(name, labels)] = float(value)
    return samples


# ----------------------------------------------------------------------
# health model
# ----------------------------------------------------------------------

def _worst(states: Any) -> str:
    rank = {"ok": 0, "degraded": 1, "down": 2}
    worst = 0
    for state in states:
        # an unrecognized state is suspect, never better than degraded
        worst = max(worst, rank.get(state, 1))
    return ("ok", "degraded", "down")[worst]


def provider_health(provider: Any,
                    journal_lag_limit: int = JOURNAL_LAG_DEGRADED_BYTES
                    ) -> dict[str, Any]:
    """One provider's gauges + readiness, read from its ``stats()``
    tree (:meth:`repro.platform.Provider.stats`).

    Gauges: journal bytes since the last checkpoint (lag — ``None``
    without a durability manager), process-pool occupancy (idle
    processes + reuse counters), plan-cache hit ratio, audit-ring drop
    count.  ``degraded`` when journal lag exceeds ``journal_lag_limit``
    (compaction overdue) or the audit ring has dropped events (the
    accountability record is no longer complete); ``down`` never
    originates here — only a fabric knows a provider is unreachable.
    """
    stats = provider.stats()
    journal_lag = stats["persistence"].get("size_bytes")
    plans = stats["plans"]
    decided = plans.get("hits", 0) + plans.get("misses", 0)
    pool = stats["pool"]
    dropped = stats["audit"]["dropped"]
    gauges: dict[str, Any] = {
        "journal_lag_bytes": journal_lag,
        "pool_idle": pool.get("idle", 0),
        "pool_reuses": pool.get("reuses", 0),
        "plan_cache_hit_ratio": (plans.get("hits", 0) / decided
                                 if decided else None),
        "audit_dropped": dropped,
    }
    reasons: list[str] = []
    if journal_lag is not None and journal_lag > journal_lag_limit:
        reasons.append(f"journal lag {journal_lag}B exceeds "
                       f"{journal_lag_limit}B (compaction overdue)")
    if dropped:
        reasons.append(f"audit ring dropped {dropped} events")
    return {"state": "degraded" if reasons else "ok",
            "reasons": reasons, "gauges": gauges}


def fabric_health(fabric: Any) -> dict[str, Any]:
    """A federation fabric's rolled-up readiness (M16).

    Per provider: ``down`` when crashed (its ring slot is None),
    otherwise :func:`provider_health`.  Per link: ``degraded`` while a
    peer is down or any linked user's :class:`JournalCursor` is stale
    (``None`` lag — first sync pending, or invalidated by crash
    recovery or by two checkpoints/compactions since the last round;
    one is tailed through the journal's kept epoch), since the mirror
    may be arbitrarily behind until the next sync round re-attaches
    cursors.  A link with an oracle-plane side keeps no cursors (every
    round is the full reconciliation), so it has no lag to go stale.
    The fabric state is the worst of all of it — ``crash()`` flips it
    to ``down`` observably, ``recover()`` plus one sync round brings
    it back to ``ok``.
    """
    providers: dict[str, dict[str, Any]] = {}
    for index, provider in enumerate(fabric.providers):
        name = f"provider:{index}"
        if provider is None:
            providers[name] = {"state": "down", "reasons": ["crashed"],
                               "gauges": {}}
        else:
            providers[name] = provider_health(provider)
    links: dict[str, dict[str, Any]] = {}
    for (i, j), link in sorted(fabric._links.items()):
        reasons = []
        if fabric.providers[i] is None or fabric.providers[j] is None:
            reasons.append("peer down")
        lag = link._delta.cursor_lag()
        for username, sides in sorted(lag.items()):
            stale = sorted(side for side, value in sides.items()
                           if value is None)
            if stale:
                reasons.append(
                    f"stale cursor for {username!r} "
                    f"(side {'/'.join(stale)}): full recon pending")
        links[f"link:{i}<->{j}"] = {
            "state": "degraded" if reasons else "ok",
            "reasons": reasons,
            "cursor_lag": lag,
        }
    state = _worst([r["state"] for r in providers.values()]
                   + [r["state"] for r in links.values()])
    return {"state": state, "providers": providers, "links": links}
