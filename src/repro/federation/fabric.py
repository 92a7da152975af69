"""A consistent-hash fabric of federated providers (M15).

The paper's answer to walled gardens (§3.3) is pairwise: two providers
and a sync declassifier.  The north star needs *hundreds* of
providers, which demands a directory: given a username, which provider
is their home?  :class:`FederationFabric` answers with the M13
consistent-hash ring (:class:`~repro.platform.ShardMap`) — placement
is a pure function of the username, stable across processes, so any
provider (or client) can route a request to the right home without a
central registry, and resizing the ring moves only O(1/N) of users.

On top of placement the fabric manages:

* **mirrors** — a user can mirror their home onto other providers;
  each (home, mirror) pair gets a :class:`ProviderLink` (delta sync on
  the fast plane) with the user linked and granted on both sides;
* **routed reads** — ``read_user_data`` looks the home up in the ring
  and reads there; if the home is down, the read fails over to a live
  mirror (the mirrored copy is as protected as the original — C6 — so
  this changes availability, never policy);
* **failure + recovery** — the fabric is its providers' operator: it
  holds each provider's base, the full snapshot its first
  ``snapshot_incremental()`` returns when the fabric builds or
  recovers it.  ``crash(i)`` keeps the raw journal bytes beside that
  base (exactly what M10 persists) and takes the provider offline;
  ``recover(i)`` folds them with
  :func:`~repro.platform.recover_provider` and swaps the result back
  into every link.  A journal compacted behind the fabric's back (a
  direct ``snapshot_incremental()`` that returned a full snapshot)
  extends a checkpoint the fabric does not hold: recovery refuses it
  with :class:`~repro.platform.BaseMismatch` rather than lose the
  writes that snapshot carried.  The recovered journal has a fresh identity (unlike a
  compaction, which keeps the ending epoch for the cursors reading
  it), so every delta-sync cursor into it is stale by construction:
  the next sync round per user runs one full content-based
  reconciliation, then re-attaches fresh cursors.  Recovery can never cause a missed or
  duplicated transfer — at worst it costs one naive round.
"""

from __future__ import annotations

from typing import Any, Optional

from ..platform import (NoSuchUser, Provider, ProviderConfig, ShardMap,
                        recover_provider)
from .peering import ProviderLink, SyncError


class ProviderDown(Exception):
    """The addressed provider has crashed and was not yet recovered."""


class FederationFabric:
    """N providers, one consistent-hash directory, delta-synced links."""

    def __init__(self, n_providers: int,
                 provider_config: Optional[ProviderConfig] = None,
                 tracing: bool = False) -> None:
        if n_providers < 2:
            raise SyncError("a fabric needs at least two providers")
        self.ring = ShardMap(n_providers)
        self._provider_config = provider_config
        self._tracing = tracing
        self.providers: list[Optional[Provider]] = [
            Provider(name=f"w5-{i}", config=provider_config,
                     tracing=tracing)
            for i in range(n_providers)]
        #: index -> the base the fabric holds: the provider's first
        #: snapshot_incremental(), a full snapshot.
        self._bases = [p.snapshot_incremental() for p in self.providers]
        #: (lo, hi) provider-index pair -> the link between them.
        self._links: dict[tuple[int, int], ProviderLink] = {}
        #: username -> mirror provider indices (home not included).
        self._mirrors: dict[str, set[int]] = {}
        self._passwords: dict[str, str] = {}
        #: crashed index -> (old instance, journal bytes)
        self._wreckage: dict[int, tuple[Provider, bytes]] = {}

    # ------------------------------------------------------------------
    # directory
    # ------------------------------------------------------------------

    def home_of(self, username: str) -> int:
        """The ring position that is ``username``'s home provider."""
        return self.ring.shard_of_user(username)

    def provider(self, index: int) -> Provider:
        provider = self.providers[index]
        if provider is None:
            raise ProviderDown(f"provider {index} is down")
        return provider

    def home_provider(self, username: str) -> Provider:
        return self.provider(self.home_of(username))

    # ------------------------------------------------------------------
    # accounts and mirrors
    # ------------------------------------------------------------------

    def signup(self, username: str, password: str) -> int:
        """Create the account on its ring-assigned home; returns the
        home index."""
        home = self.home_of(username)
        self.provider(home).signup(username, password)
        self._passwords[username] = password
        self._mirrors.setdefault(username, set())
        return home

    def mirror(self, username: str, index: int) -> ProviderLink:
        """Mirror ``username`` onto provider ``index``: create the
        twin account there, link it to the home account, and grant the
        sync declassifiers on both sides."""
        if username not in self._passwords:
            raise NoSuchUser(username)
        home = self.home_of(username)
        if index == home:
            raise SyncError(f"provider {index} is already {username}'s home")
        mirror = self.provider(index)
        try:
            mirror.account(username)
        except NoSuchUser:
            mirror.signup(username, self._passwords[username])
        link = self.link_between(home, index)
        link.link_account(username)
        link.grant_sync(username)
        self._mirrors[username].add(index)
        return link

    def mirrors_of(self, username: str) -> set[int]:
        return set(self._mirrors.get(username, ()))

    def link_between(self, i: int, j: int) -> ProviderLink:
        """The (lazily created) link between two providers.  The
        lower-indexed provider is side A, so conflict resolution is
        deterministic fabric-wide."""
        if i == j:
            raise SyncError("a provider cannot peer with itself")
        key = (min(i, j), max(i, j))
        link = self._links.get(key)
        if link is None:
            link = ProviderLink(self.provider(key[0]),
                                self.provider(key[1]))
            self._links[key] = link
        return link

    def links(self) -> list[ProviderLink]:
        return list(self._links.values())

    # ------------------------------------------------------------------
    # routed data plane
    # ------------------------------------------------------------------

    def store_user_data(self, username: str, filename: str,
                        content: Any) -> None:
        """Write through the ring: the home provider takes the write."""
        self.home_provider(username).store_user_data(
            username, filename, content)

    def read_user_data(self, username: str, filename: str) -> Any:
        """Cross-provider declassified read, routed through home
        lookup; fails over to a live mirror when the home is down."""
        home = self.home_of(username)
        if self.providers[home] is not None:
            return self.providers[home].read_user_data(username, filename)
        for index in sorted(self._mirrors.get(username, ())):
            provider = self.providers[index]
            if provider is not None:
                return provider.read_user_data(username, filename)
        raise ProviderDown(
            f"{username}'s home (provider {home}) is down and no live "
            f"mirror holds their data")

    def sync_user(self, username: str) -> int:
        """One sync round over each of the user's (home, mirror)
        links; returns total files + rows moved."""
        home = self.home_of(username)
        moved = 0
        for index in sorted(self._mirrors.get(username, ())):
            if self.providers[home] is None or self.providers[index] is None:
                continue  # that side is down; sync resumes on recovery
            moved += self.link_between(home, index).sync_user(username)
        return moved

    def sync_all(self) -> int:
        return sum(self.sync_user(u) for u in sorted(self._mirrors))

    # ------------------------------------------------------------------
    # failure and journal-replay recovery
    # ------------------------------------------------------------------

    def crash(self, index: int) -> None:
        """Take provider ``index`` down, keeping only what M10 made
        durable: the raw journal bytes, beside the base the fabric
        already holds."""
        provider = self.provider(index)
        manager = provider._durability
        if manager is None:
            raise SyncError(
                f"provider {index} has no durability manager; nothing "
                f"would survive a crash")
        self._wreckage[index] = (provider, manager.journal.raw_bytes())
        self.providers[index] = None

    def recover(self, index: int) -> dict[str, Any]:
        """Journal-replay recovery (M10): rebuild the crashed provider
        from snapshot + journal, swap it into every link, and
        invalidate the links' cursors (the fresh journal identity
        makes them stale anyway — the swap just makes it explicit).
        Returns the replay report.  A journal that does not extend the
        held base raises :class:`~repro.platform.BaseMismatch` and
        leaves the provider down."""
        if index not in self._wreckage:
            raise SyncError(f"provider {index} did not crash")
        old, journal = self._wreckage[index]
        recovered, report = recover_provider(
            self._bases[index], journal, config=self._provider_config,
            tracing=self._tracing)
        del self._wreckage[index]
        self._bases[index] = recovered.snapshot_incremental()
        self.providers[index] = recovered
        for (i, j), link in self._links.items():
            if index in (i, j):
                link.replace_provider(old, recovered)
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def health_report(self) -> dict[str, Any]:
        """Fleet health rollup (M16): every provider slot and link
        classified ok / degraded / down from existing gauges — see
        :func:`repro.obs.fabric_health` for the rules."""
        from ..obs.fleet import fabric_health
        return fabric_health(self)

    def federation_stats(self) -> dict[str, Any]:
        """Fabric-wide counters: ring shape, per-link engine stats,
        and envelope traffic totals (for ``Metrics.attach``)."""
        links = [link.federation_stats() for __, link in
                 sorted(self._links.items())]
        totals = {"envelopes_sent": 0, "bytes_moved": 0, "transfers": 0}
        for stats in links:
            for key in totals:
                totals[key] += stats.get(key, 0)
        return {
            "providers": len(self.providers),
            "live": sum(p is not None for p in self.providers),
            "links": len(self._links),
            "mirrored_users": sum(bool(m) for m in self._mirrors.values()),
            **totals,
            "per_link": links,
        }
