"""Metrics: live counters derived from the audit stream.

Benchmarks and operators both want "how many exports were denied this
minute" without scanning the whole audit log.  ``Metrics`` reads the
per-(category, verdict) counts from the lifetime counters of an
:class:`~repro.kernel.audit.AuditLog`, cheap to read at any time and
free on the record path.

Latency is the tracer's: :meth:`Metrics.attach` names the provider
whose span histograms :meth:`Metrics.latency_histograms` returns (the
input :class:`~repro.obs.FleetRegistry` merges across a fleet).  Plane
counters (flow cache, plans, pool, data plane, durability, gateway)
are not kept here: :meth:`repro.platform.Provider.stats` is the one
tree that reports them.

Purely observational: it never influences a decision, so it sits
outside the trusted base.
"""

from __future__ import annotations

from typing import Any, Optional

from ..kernel.audit import AuditLog
from ..obs import LatencyHistogram


class Metrics:
    """Counter aggregation over an audit log (attach once, read often).

    The category counts are the log's lifetime counters, so they count
    every record since the log was created, whenever ``Metrics`` was
    attached and whatever the ring evicted before.
    """

    def __init__(self, audit: AuditLog) -> None:
        #: The log's live counters, shared, not copied.
        self._by_category = audit.lifetime_counts()
        #: The provider whose tracer supplies latency (see attach).
        self._provider: Any = None

    def attach(self, provider: Any) -> "Metrics":
        """Name the provider (anything with a ``tracer``) whose span
        histograms :meth:`latency_histograms` returns; returns self,
        so ``Metrics(p.kernel.audit).attach(p)`` reads in one line.
        Attaching changes nothing in the provider."""
        self._provider = provider
        return self

    # -- reads ------------------------------------------------------------

    def count(self, category: str, allowed: Optional[bool] = None) -> int:
        if allowed is None:
            return (self._by_category[(category, True)]
                    + self._by_category[(category, False)])
        return self._by_category[(category, allowed)]

    def denial_rate(self, category: str) -> float:
        total = self.count(category)
        if total == 0:
            return 0.0
        return self.count(category, allowed=False) / total

    def snapshot(self) -> dict[str, int]:
        """A flat dict (``category.allow``/``category.deny`` keys)."""
        out: dict[str, int] = {}
        for (category, allowed), n in sorted(self._by_category.items()):
            out[f"{category}.{'allow' if allowed else 'deny'}"] = n
        return out

    def category_counts(self) -> dict[tuple[str, bool], int]:
        """The raw ``(category, allowed) -> count`` counters (a copy).
        The merge input of :class:`~repro.obs.FleetRegistry` (M16)."""
        return dict(self._by_category)

    def latency_histograms(self) -> dict[str, LatencyHistogram]:
        """The attached provider's per-span-name latency histograms
        (empty when nothing is attached or tracing is off).  The dict
        is a copy; the histograms are live — merge *into* a fresh one,
        as :func:`repro.obs.histogram.merge_histograms` does."""
        if self._provider is None:
            return {}
        return self._provider.tracer.histograms()
