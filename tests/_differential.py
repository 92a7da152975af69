"""The one fast-vs-oracle differential for provider-level suites.

:class:`PlanePair` builds the same deployment twice, on
``ProviderConfig.fast()`` and on ``ProviderConfig.oracle()``.
:meth:`PlanePair.run` drives one operation through both and requires
identical outcomes (responses compare exactly).  Then
:meth:`PlanePair.assert_equivalent` requires, exactly:

* ``resources.total(kind)`` for every resource kind, the per-kind
  denial counters and ``audit.dropped``;
* the audit log's per-(category, verdict) counters;
* the audit streams after one normalisation (:func:`normalized_audit`).

The normalisation covers the only difference process recycling makes.
A recycled process keeps its pid across requests where the oracle
spawns a fresh one, and the pool marks its spawn and exit records
`` (recycled)``.  So the marker is dropped, every spawn record starts a
new logical process (numbered in order of appearance), and each pid in
a detail is replaced by the number of the logical process it names at
that point of the stream.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable, Iterable

from repro.core import W5System
from repro.kernel import audit as A
from repro.platform import ProviderConfig
from repro.resources.containers import KINDS

_PID = re.compile(r"pid([= ])(\d+)")
_RECYCLED = " (recycled)"
#: Audit categories whose O(1) counters are compared (None = all).
_CATEGORIES = (None, A.SPAWN, A.EXIT, A.SEND, A.RECEIVE, A.LABEL_CHANGE,
               A.GRANT, A.TAG_CREATE, A.ENDPOINT, A.FILE_READ,
               A.FILE_WRITE, A.DB_QUERY, A.EXPORT, A.DECLASSIFY,
               A.RESOURCE)


def normalized_audit(audit: Any) -> list[tuple]:
    """``(category, allowed, subject, detail)`` per retained event, with
    the recycled marker dropped and pids renumbered per spawn."""
    current: dict[str, int] = {}
    numbers = itertools.count()

    def renumber(match: "re.Match[str]") -> str:
        pid = match.group(2)
        if pid not in current:
            current[pid] = next(numbers)
        return f"pid{match.group(1)}#{current[pid]}"

    out = []
    for event in audit:
        detail = event.detail.replace(_RECYCLED, "")
        if event.category == A.SPAWN:
            for __, pid in _PID.findall(detail):
                current[pid] = next(numbers)
        out.append((event.category, event.allowed, event.subject,
                    _PID.sub(renumber, detail)))
    return out


def authority_view(w5: W5System, viewer: Any) -> list[tuple]:
    """``viewer``'s export authority, comparable across deployments.

    Where planned dispatch is on, it is the authority a planned blog
    request exports under: the plan's held authority (refreshed, if the
    plan went stale, through the dirty log) plus the live verdicts of
    the non-cacheable grants.  Elsewhere it is the live evaluation of
    every grant, the reference.
    """
    provider = w5.provider
    plan = (provider.plans.lookup("blog", viewer)
            if provider.plans.enabled else None)
    if plan is None:
        caps = provider._authority_for(viewer)
    else:
        caps = provider.declass.with_live_grants(plan.authority, viewer)
    return sorted((c.tag.tag_id, c.tag.purpose, c.sign) for c in caps)


class PlanePair:
    """One deployment on each plane, driven in lockstep."""

    def __init__(self, build: Callable[[ProviderConfig], W5System]) -> None:
        self.fast = build(ProviderConfig.fast())
        self.oracle = build(ProviderConfig.oracle())

    def run(self, apply: Callable[[W5System, Any], Any], op: Any) -> Any:
        """``apply(deployment, op)`` on both planes; the outcomes (the
        response, typically) must be identical.  Returns the outcome."""
        outcome = apply(self.fast, op)
        assert outcome == apply(self.oracle, op), f"divergence on {op}"
        return outcome

    def assert_authority_agrees(self, viewers: Iterable[Any]) -> None:
        """Each viewer's export authority is the same on both planes."""
        for viewer in viewers:
            assert authority_view(self.fast, viewer) \
                == authority_view(self.oracle, viewer), viewer

    def assert_equivalent(self) -> None:
        fast, oracle = self.fast.provider.kernel, self.oracle.provider.kernel
        for kind in KINDS:
            assert fast.resources.total(kind) \
                == oracle.resources.total(kind), kind
        assert fast.resources.denials == oracle.resources.denials
        assert fast.audit.dropped == oracle.audit.dropped
        for category in _CATEGORIES:
            for allowed in (None, True, False):
                assert (fast.audit.count(category=category, allowed=allowed)
                        == oracle.audit.count(category=category,
                                              allowed=allowed)), \
                    (category, allowed)
        assert normalized_audit(fast.audit) \
            == normalized_audit(oracle.audit)
