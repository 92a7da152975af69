"""Multi-provider W5: account linking and data mirroring (§3.3).

"One approach is to create import/export declassifiers that
synchronize user data between two W5 providers.  If an end-user deemed
such applications trustworthy, it would give its privileges to data
transfer applications on both platforms A and B.  Then, whenever the
user updated his data on one platform, the changes would propagate to
the other."

A :class:`ProviderLink` is a peering arrangement between two
providers.  Linking an account creates a *sync pair*: on each side, a
transfer agent holding exactly the privileges the user granted there
(her ``t-`` to export, her ``w+``/``t+`` to import).  ``sync_user``
runs rounds of bidirectional reconciliation over the user's home
files and rows, and the mirrored copy lands under the *destination*
provider's tags — so the data is exactly as protected on B as it was
on A (verified in experiment C6).

Every link runs one engine, :class:`~repro.federation.delta.DeltaSync`,
and its providers' plane decides how a round finds what changed:

* when both providers are on the fast plane, a round tails each
  provider's write-ahead journal from a per-(user, peer) cursor and
  reconciles only what changed — O(dirty);
* otherwise (an oracle-plane provider keeps no journal) a round is
  :meth:`ProviderLink._naive_round`, which re-reads everything both
  sides hold — O(corpus), trivially correct.  It is the federation
  oracle, and also the fast plane's fallback whenever a cursor goes
  stale (first sync, two compactions or checkpoints between rounds,
  crash recovery; one compaction is tailed through the journal's kept
  epoch).  See :mod:`repro.federation.delta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..fs import FsView
from ..kernel import Process
from ..labels import Label
from ..platform import NoSuchUser, NotAuthorized, Provider


class SyncError(Exception):
    """Linking or sync failed (missing account or missing grant)."""


@dataclass
class SyncState:
    """Per-(user, link) bookkeeping."""

    username: str
    granted_on_a: bool = False
    granted_on_b: bool = False
    transfers: int = 0


class ProviderLink:
    """A peering arrangement between two providers."""

    def __init__(self, provider_a: Provider, provider_b: Provider) -> None:
        if provider_a is provider_b:
            raise SyncError("a provider cannot peer with itself")
        self.a = provider_a
        self.b = provider_b
        self._states: dict[str, SyncState] = {}
        from .delta import DeltaSync
        self._delta = DeltaSync(self)

    # ------------------------------------------------------------------
    # user-driven setup
    # ------------------------------------------------------------------

    def link_account(self, username: str) -> SyncState:
        """Declare that ``username``'s accounts on A and B are the same
        person.  Both accounts must exist; no privileges move yet."""
        self.a.account(username)  # raises NoSuchUser if absent
        self.b.account(username)
        state = self._states.setdefault(username, SyncState(username))
        return state

    def grant_sync(self, username: str, on: str = "both") -> SyncState:
        """The user hands the transfer agents her privileges (§3.3:
        "it would give its privileges to data transfer applications on
        both platforms")."""
        state = self._states.get(username)
        if state is None:
            raise SyncError(f"{username} has not linked accounts")
        if on in ("a", "both"):
            state.granted_on_a = True
        if on in ("b", "both"):
            state.granted_on_b = True
        return state

    def state_of(self, username: str) -> Optional[SyncState]:
        return self._states.get(username)

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------

    def sync_user(self, username: str) -> int:
        """One bidirectional reconciliation round; returns the number
        of files and rows transferred.  Requires grants on both sides.

        On two fast-plane providers the round tails each side's
        journal from this link's cursor and touches only dirty
        entries; otherwise it is a full content-based reconciliation.
        Either way the outcome is identical.
        """
        state = self._states.get(username)
        if state is None:
            raise SyncError(f"{username} has not linked accounts")
        if not (state.granted_on_a and state.granted_on_b):
            raise NotAuthorized(
                f"{username} has not granted the sync declassifiers on "
                f"both providers")
        tracer = self.a.tracer
        if tracer.enabled:
            with tracer.request("fed.sync", user=username,
                                link=f"{self.a.name}<->{self.b.name}"):
                return self._delta.sync(state)
        return self._delta.sync(state)

    def _naive_round(self, state: SyncState) -> int:
        """One full content-based round: the trivially-correct oracle
        the journal tail must match byte-for-byte, every round of a
        link with an oracle-plane side, and the fallback whenever a
        journal cursor is stale."""
        moved = 0
        moved += self._pump(state, self.a, self.b)
        moved += self._pump(state, self.b, self.a)
        moved += self._pump_rows(state, self.a, self.b)
        moved += self._pump_rows(state, self.b, self.a)
        return moved

    # ------------------------------------------------------------------
    # fabric hooks
    # ------------------------------------------------------------------

    def replace_provider(self, old: Provider, new: Provider) -> None:
        """Swap a recovered provider instance into the link (M10 crash
        recovery).  The new instance has a fresh journal (new id, new
        epoch), so every cursor this link holds is stale by
        construction; the delta engine drops them and the next
        ``sync_user`` per user runs one full reconciliation before
        re-attaching fresh cursors — recovery can never cause a missed
        or duplicated transfer."""
        if old is self.a:
            self.a = new
        elif old is self.b:
            self.b = new
        else:
            raise SyncError("provider is not part of this link")
        self._delta.invalidate()

    def federation_stats(self) -> dict[str, Any]:
        """Counters for ``Metrics.attach``: engine rounds, envelope
        traffic, and per-user cursor lag."""
        return {
            "link": f"{self.a.name}<->{self.b.name}",
            "linked_users": len(self._states),
            "transfers": sum(s.transfers for s in self._states.values()),
            **self._delta.stats(),
        }

    # ------------------------------------------------------------------
    # the naive pumps (the oracle round and the stale-cursor fallback)
    # ------------------------------------------------------------------

    def _pump(self, state: SyncState, src: Provider, dst: Provider) -> int:
        """Copy src-side files whose *content* differs on dst.

        Reconciliation here is purely content-based — there is no
        notion of "newer": a file is copied when the destination lacks
        it or holds different bytes, and ``sync_user`` pumps A first
        so conflicts resolve in A's favor.  (The delta engine reaches
        the same outcome from the other end: journal cursors tell it
        *which* paths changed since the last round, and only those are
        content-compared.)
        """
        username = state.username
        src_agent = self._agent(src, username)
        dst_agent = self._agent(dst, username)
        src_fs = FsView(src.fs, src_agent)
        dst_fs = FsView(dst.fs, dst_agent)
        home_src = f"/users/{username}"
        home_dst = f"/users/{username}"
        moved = 0
        try:
            names = src_fs.listdir(home_src)
            for name in names:
                path_src = f"{home_src}/{name}"
                if src_fs.stat(path_src)["is_dir"]:
                    continue  # top-level files only; apps use subtrees
                data = src_fs.read(path_src)
                path_dst = f"{home_dst}/{name}"
                if dst_fs.exists(path_dst):
                    if dst_fs.read(path_dst) != data:
                        dst_fs.write(path_dst, data)
                        moved += 1
                        state.transfers += 1
                else:
                    dst_fs.create(path_dst, data)
                    moved += 1
                    state.transfers += 1
        finally:
            src.kernel.exit(src_agent)
            dst.kernel.exit(dst_agent)
        return moved

    def _pump_rows(self, state: SyncState, src: Provider,
                   dst: Provider) -> int:
        """Mirror the linked user's *database rows* (append-only).

        A row belongs to the user when its secrecy label is exactly
        their tag on that provider.  Rows are identified by content
        (the sync declassifier has no cross-provider row ids), so this
        is an append-only mirror: new rows propagate, edits appear as
        additional rows on the peer.  Applications treating the store
        as a log (blog posts, guestbook entries) mirror perfectly;
        last-write-wins tables should sync through files instead.
        """
        username = state.username
        src_tag = src.account(username).data_tag
        src_agent = self._agent(src, username)
        dst_agent = self._agent(dst, username)
        moved = 0
        try:
            for table_name in src.db.tables():
                table = src.db.table(table_name)
                user_rows = [
                    row for row in table.rows.values()
                    if row.slabel == Label([src_tag])]
                if not user_rows:
                    continue
                if table_name not in dst.db.tables():
                    dst.db.create_table(dst_agent, table_name,
                                        indexes=table.indexed_columns)
                existing = {
                    _row_key(r)
                    for r in dst.db.select(dst_agent, table_name)}
                for row in user_rows:
                    if _row_key(row.values) in existing:
                        continue
                    dst.db.insert(dst_agent, table_name,
                                  dict(row.values))
                    moved += 1
                    state.transfers += 1
        finally:
            src.kernel.exit(src_agent)
            dst.kernel.exit(dst_agent)
        return moved

    def _agent(self, provider: Provider, username: str) -> Process:
        """The transfer agent on one side: a process holding exactly
        the linked user's authority there — the import/export
        declassifier of §3.3."""
        return provider.kernel.spawn_trusted(
            f"sync-agent:{username}",
            *provider.account(username).agent_state(),
            owner_user=username)


def _row_key(values: dict) -> frozenset:
    """Content identity for append-only row mirroring."""
    return frozenset((k, repr(v)) for k, v in values.items())


def converged(link: ProviderLink, username: str) -> bool:
    """True iff the user's top-level files are identical on A and B."""
    a_files = _snapshot(link.a, username)
    b_files = _snapshot(link.b, username)
    return a_files == b_files


def _snapshot(provider: Provider, username: str) -> dict[str, Any]:
    agent = provider.kernel.spawn_trusted(
        f"snapshot:{username}", *provider.account(username).agent_state(),
        owner_user=username)
    out: dict[str, Any] = {}
    try:
        fs = FsView(provider.fs, agent)
        home = f"/users/{username}"
        for name in fs.listdir(home):
            path = f"{home}/{name}"
            if not fs.stat(path)["is_dir"]:
                out[name] = fs.read(path)
    finally:
        provider.kernel.exit(agent)
    return out
