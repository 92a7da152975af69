"""Incremental launch-capability index: O(1) app launches.

:meth:`Provider.launch_caps` assembles the capability set an app
instance starts with.  Computed naively that is a scan over **every
account** (read caps for everyone who enabled the app) plus every
group — per request.  This index memoizes the finished
:class:`~repro.labels.CapabilitySet` per ``(app, viewer)`` pair and
invalidates on exactly the events that can change it:

* ``enable_app`` / ``disable_app`` — that app's entries only;
* ``delete_account`` — the departing user's enabled apps;
* group create / roster change — everything (group caps can reach any
  app any member enabled);
* snapshot restore — everything.

Correctness by construction: a miss calls the provider's legacy scan
(:meth:`Provider._scan_launch_caps`), so fast-path and slow-path
results are the same object — :class:`~repro.labels.CapabilitySet`
instances are interned — and a cold cache degenerates to exactly the
old behavior.  Memoizing the *finished set* matters more than it looks:
even with per-account caps precomputed, merging N capabilities into a
``CapabilitySet`` is O(N) (interning hashes the whole membership), so
the only way a launch gets cheaper than O(enabled users) is to not
rebuild the set at all.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..labels import CapabilitySet

if TYPE_CHECKING:  # pragma: no cover
    from .provider import Provider
    from .registry import AppModule

#: Bound on the memo: (app, viewer) entries kept before it is cleared.
MAX_ENTRIES = 8192


class LaunchCapIndex:
    """Per-(app, viewer) launch-capability memo with event invalidation."""

    def __init__(self, provider: "Provider") -> None:
        self.provider = provider
        self.enabled = provider.kernel.plane == "fast"
        self._memo: dict[tuple[str, Optional[str]], CapabilitySet] = {}
        self._stats = {"hits": 0, "misses": 0, "invalidations": 0}
        #: Monotonic generation, bumped on *every* invalidation event
        #: (even when the memo held nothing for it).  Derived caches —
        #: the :mod:`repro.platform.plans` PlanCache — stamp the epoch
        #: at build time and treat any bump as "recompile".
        self.epoch = 0

    def lookup(self, app: "AppModule",
               viewer: Optional[str]) -> CapabilitySet:
        if not self.enabled:
            return self.provider._scan_launch_caps(app, viewer)
        key = (app.name, viewer)
        cached = self._memo.get(key)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        self._stats["misses"] += 1
        caps = self.provider._scan_launch_caps(app, viewer)
        if len(self._memo) >= MAX_ENTRIES:
            self._memo.clear()
        self._memo[key] = caps
        return caps

    # -- invalidation ---------------------------------------------------

    def invalidate_app(self, app_name: str) -> None:
        """Drop every viewer's entry for one app (enable/disable)."""
        self.epoch += 1
        doomed = [k for k in self._memo if k[0] == app_name]
        for k in doomed:
            del self._memo[k]
        if doomed:
            self._stats["invalidations"] += 1

    def invalidate_all(self, reason: str = "") -> None:
        self.epoch += 1
        if self._memo:
            self._memo.clear()
            self._stats["invalidations"] += 1

    def stats(self) -> dict[str, int]:
        stats = dict(self._stats)
        stats["entries"] = len(self._memo)
        stats["epoch"] = self.epoch
        return stats
