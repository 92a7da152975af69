"""Journal-cursor delta sync: O(dirty) federation rounds (M15).

The naive reconciler in :mod:`repro.federation.peering` is the honest
baseline: every round it lists the user's whole home, reads every file
on *both* providers, and re-selects every table row — O(corpus) per
round, quadratic over a session.  This module replaces the discovery
step with the M10 write-ahead journal: each side of a link keeps a
per-(user, peer) :class:`~repro.core.journal.JournalCursor`, and a
round only looks at journal records past the cursor that touch the
linked user.  Content still moves through agents holding exactly the
user's authority, batched as envelopes (:mod:`repro.net.envelopes`),
so the round costs O(dirty), not O(corpus) — the M15 benchmark's
~flat line.

**The journal is an index, never a data source.**  Tail records tell
the engine *which* paths and rows changed; the engine re-reads current
state through the reference monitor before shipping.  A forged or
stale record can therefore cause wasted work, never a policy bypass.

**Cursor safety.**  A cursor is only honored by the exact journal
instance it was minted from, in its own epoch or the one after
(``Journal.tail_from`` returns ``None`` otherwise).  Compaction and
operator checkpoints reset the journal, which keeps the ending epoch
for the cursors reading it, so a round after one reset tails the kept
records and then the new epoch's — still O(dirty).  Two resets between
rounds, or crash recovery (a new journal instance), leave the cursor
stale; the next sync round detects that and falls back to one full
content-based reconciliation — the naive algorithm, byte-identical in
outcome — then re-attaches a fresh cursor.  Safety never depends on
the cursor being right: compaction only snapshots, it rewrites no
live object, and tail records are re-resolved against live state.

**The plane decides.**  An oracle-plane provider keeps no journal, so
a link with an oracle-plane side has nothing to tail: every round is
the naive reconciliation (counted as ``fallback_rounds``) and the link
holds no cursors.

**Equivalence with the naive round.**  Every divergence-prone corner of
the naive reconciler is reproduced deliberately:

* files: per touched path, A's copy wins a conflict; a file deleted on
  one side is resurrected from the other (the naive pump never
  deletes);
* rows: the mirror is append-only; candidate rows are checked against
  a snapshot of the destination's visible content keys taken *before*
  the round's inserts (naive computes ``existing`` once per pump), so
  duplicate source rows ship as duplicates;
* rows deleted or updated away on one side are re-filled from the
  other side's live rows, exactly as the naive content comparison
  would.

**A round pays for its dirty set.**  Each touched path is walked once
per side (:meth:`~repro.fs.LabeledFileSystem.lookup`: what the naive
pump learns from ``exists``, ``stat`` and ``read``), and the agents
spawn with their account's label state
(:meth:`~repro.platform.UserAccount.agent_state`), so nothing on the
round's path rebuilds a label or capability set per file.

``tests/federation/test_delta_differential.py`` drives an oracle-plane
world (naive rounds only) and fast-plane worlds through identical
random schedules and asserts identical transfer counts and final file
and row state (labels included) on every provider.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..core.journal import Journal, JournalCursor, JournalRecord
from ..fs import FsView
from ..net.envelopes import Envelope, EnvelopeChannel

from .peering import _row_key

if TYPE_CHECKING:  # pragma: no cover
    from ..platform import Provider
    from .peering import ProviderLink, SyncState


class _SideBooks:
    """Per-(user, side) row bookkeeping: which content keys are live.

    Mirrors what the naive pump's ``existing`` select would see on
    this side — every row whose secrecy label is within the user's
    clearance (exactly her tag, or public) — maintained incrementally
    from the side's journal tail instead of re-selected per round.
    """

    def __init__(self) -> None:
        #: table -> row_id -> content key
        self.key_by_id: dict[str, dict[int, frozenset]] = {}
        #: table -> content key -> live row ids
        self.ids_by_key: dict[str, dict[frozenset, set[int]]] = {}

    def known(self, table: str) -> set[frozenset]:
        """The content keys currently live on this side (the naive
        ``existing`` set)."""
        return set(self.ids_by_key.get(table, ()))

    def ids_for(self, table: str, key: frozenset) -> set[int]:
        return self.ids_by_key.get(table, {}).get(key, set())

    def track(self, table: str, row_id: int, key: frozenset) -> None:
        self.key_by_id.setdefault(table, {})[row_id] = key
        self.ids_by_key.setdefault(table, {}).setdefault(
            key, set()).add(row_id)

    def untrack(self, table: str, row_id: int) -> Optional[frozenset]:
        """Forget a row; returns its key iff no live row covers that
        key any more (i.e. the key truly vanished from this side)."""
        key = self.key_by_id.get(table, {}).pop(row_id, None)
        if key is None:
            return None
        ids = self.ids_by_key.get(table, {})
        holders = ids.get(key)
        if holders is not None:
            holders.discard(row_id)
            if not holders:
                del ids[key]
                return key
        return None

    def drop_table(self, table: str) -> set[frozenset]:
        """The side dropped a whole table; every key vanished."""
        self.key_by_id.pop(table, None)
        return set(self.ids_by_key.pop(table, ()))


class _UserDelta:
    """All per-(user, link) incremental state."""

    def __init__(self) -> None:
        self.cursors: dict[str, Optional[JournalCursor]] = {
            "a": None, "b": None}
        self.books = {"a": _SideBooks(), "b": _SideBooks()}
        #: side -> table -> content keys that vanished from that side
        #: since the last round (deletes, updates-away, table drops);
        #: the pump *into* that side re-fills them from the peer.
        self.vanished: dict[str, dict[str, set[frozenset]]] = {
            "a": {}, "b": {}}

    def mark_vanished(self, side: str, table: str, key: frozenset) -> None:
        self.vanished[side].setdefault(table, set()).add(key)


class DeltaSync:
    """Every :class:`~repro.federation.peering.ProviderLink`'s engine.

    It tails journals when both providers keep one (the fast plane)
    and runs the link's naive round otherwise."""

    def __init__(self, link: "ProviderLink") -> None:
        self.link = link
        self._users: dict[str, _UserDelta] = {}
        #: One envelope channel per direction; the name encodes the
        #: destination.
        self.channels = {
            "ab": EnvelopeChannel(f"{link.a.name}->{link.b.name}"),
            "ba": EnvelopeChannel(f"{link.b.name}->{link.a.name}"),
        }
        self._stats = {"delta_rounds": 0, "full_recons": 0,
                       "fallback_rounds": 0, "files_reconciled": 0,
                       "rows_shipped": 0}

    # -- public API --------------------------------------------------------

    def sync(self, state: "SyncState") -> int:
        link = self.link
        journal_a = self._journal(link.a)
        journal_b = self._journal(link.b)
        if journal_a is None or journal_b is None:
            # A side without incremental persistence has nothing to
            # tail; every round is the honest full reconciliation.
            self._stats["fallback_rounds"] += 1
            return link._naive_round(state)
        user = self._users.setdefault(state.username, _UserDelta())
        tail_a = journal_a.tail_from(user.cursors["a"])
        tail_b = journal_b.tail_from(user.cursors["b"])
        if tail_a is None or tail_b is None:
            # First sync, two resets since the last round, or crash
            # recovery: the cursor is stale, so run one full
            # content-based reconciliation and mint fresh cursors
            # against the *post-reconciliation* positions (our own
            # writes are already reflected, so they are never echoed
            # back).
            moved = self._full_recon(state, user)
            user.cursors["a"] = journal_a.position()
            user.cursors["b"] = journal_b.position()
            self._stats["full_recons"] += 1
            return moved
        self._stats["delta_rounds"] += 1
        touched: set[str] = set()
        candidates: dict[str, dict[str, set[int]]] = {"a": {}, "b": {}}
        self._ingest(state, user, "a", tail_a, touched, candidates["a"])
        self._ingest(state, user, "b", tail_b, touched, candidates["b"])
        moved = self._reconcile_files(state, sorted(touched))
        moved += self._pump_rows(state, user, "a", "b", candidates["a"])
        moved += self._pump_rows(state, user, "b", "a", candidates["b"])
        user.vanished["a"].clear()
        user.vanished["b"].clear()
        user.cursors["a"] = journal_a.position()
        user.cursors["b"] = journal_b.position()
        return moved

    def invalidate(self) -> None:
        """Drop every cursor and book (a provider was
        replaced under the link): the next round per user is a full
        reconciliation against the new instance.  Known users are kept
        with nulled cursors rather than forgotten, so the link's
        :func:`~repro.obs.fabric_health` staleness gauge shows the
        pending full reconciliation until the next sync round."""
        for user in self._users.values():
            user.cursors["a"] = user.cursors["b"] = None
            user.books = {"a": _SideBooks(), "b": _SideBooks()}
            user.vanished = {"a": {}, "b": {}}

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = dict(self._stats)
        for name, channel in self.channels.items():
            for k, v in channel.stats.items():
                out[k] = out.get(k, 0) + v
            out[f"{name}_envelopes_sent"] = channel.stats["envelopes_sent"]
        out["cursor_lag"] = self.cursor_lag()
        return out

    def cursor_lag(self) -> dict[str, dict[str, Optional[int]]]:
        """Per-user records each side has journaled past the link's
        cursor (``None`` = no valid cursor: a full reconciliation is
        pending)."""
        lag: dict[str, dict[str, Optional[int]]] = {}
        for username, user in self._users.items():
            entry: dict[str, Optional[int]] = {}
            for side, provider in (("a", self.link.a), ("b", self.link.b)):
                journal = self._journal(provider)
                entry[side] = None if journal is None \
                    else journal.lag(user.cursors[side])
            lag[username] = entry
        return lag

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _journal(provider: "Provider") -> Optional[Journal]:
        manager = provider._durability
        return None if manager is None else manager.journal

    def _provider(self, side: str) -> "Provider":
        return self.link.a if side == "a" else self.link.b

    def _channel_into(self, side: str) -> EnvelopeChannel:
        """The channel whose *destination* is ``side``."""
        return self.channels["ab" if side == "b" else "ba"]

    def _transfer(self, channel: EnvelopeChannel,
                  envelopes: list[Envelope],
                  apply: Callable[[Envelope], None],
                  dst_side: str) -> int:
        """Run ``channel.transfer_batch`` with the right tracer wiring.

        The ``fed.sync`` root span lives on side A's tracer (peering
        opens it there).  When the destination *is* side A the
        ``fed.envelope`` span nests inline; when it's side B — a
        different provider with its own tracer — the root's
        :class:`~repro.obs.TraceContext` crosses the link so the
        destination-side span is captured as a skeleton and grafted
        back under ``fed.sync`` (M16 trace propagation)."""
        root_tracer = self.link.a.tracer
        dst_tracer = self._provider(dst_side).tracer
        if dst_side == "a" or not dst_tracer.enabled:
            return channel.transfer_batch(envelopes, apply,
                                          tracer=root_tracer)
        ctx = root_tracer.export_context() if root_tracer.enabled else None
        return channel.transfer_batch(
            envelopes, apply, tracer=dst_tracer, ctx=ctx,
            graft=root_tracer.graft if ctx is not None else None)

    def _full_recon(self, state: "SyncState", user: _UserDelta) -> int:
        """The naive round, plus bookkeeping rebuild: after it, the
        books describe the converged rows exactly."""
        moved = self.link._naive_round(state)
        username = state.username
        for side in ("a", "b"):
            provider = self._provider(side)
            books = user.books[side] = _SideBooks()
            tag_id = provider.account(username).data_tag.tag_id
            for table_name in provider.db.tables():
                table = provider.db.table(table_name)
                for row in table.rows.values():
                    if {t.tag_id for t in row.slabel} <= {tag_id}:
                        books.track(table_name, row.row_id,
                                    _row_key(row.values))
        user.vanished["a"].clear()
        user.vanished["b"].clear()
        return moved

    def _ingest(self, state: "SyncState", user: _UserDelta, side: str,
                tail: list[JournalRecord], touched: set[str],
                candidates: dict[str, set[int]]) -> None:
        """Fold one side's journal tail into dirty sets + bookkeeping.

        Tail payloads are treated strictly as pointers: rows are
        re-resolved against the side's *live* table so a row created
        and deleted inside the window never ships, and an updated row
        ships its current content exactly once.
        """
        username = state.username
        provider = self._provider(side)
        books = user.books[side]
        account = provider.account(username)
        user_slabel = account.agent_state()[0]
        tag_id = account.data_tag.tag_id
        user_label = [tag_id]
        home = f"/users/{username}/"
        for record in tail:
            op = record.op
            data = record.data
            if op in ("fs.create", "fs.write", "fs.delete"):
                path = data["path"]
                if path.startswith(home) and "/" not in path[len(home):]:
                    touched.add(path)
            elif op == "db.insert":
                if not set(data["slabel"]) <= {tag_id}:
                    continue  # invisible to the user's agent
                table_name = data["table"]
                row = self._live_row(provider, table_name, data["row_id"])
                if row is None:
                    continue  # born and deleted inside the window
                books.track(table_name, row.row_id, _row_key(row.values))
                if data["slabel"] == user_label:
                    candidates.setdefault(table_name, set()).add(row.row_id)
            elif op == "db.update":
                table_name = data["table"]
                tracked = books.key_by_id.get(table_name, {})
                for row_id in data["rows"]:
                    old_key = tracked.get(row_id)
                    if old_key is None:
                        continue  # a row the user's agent cannot see
                    row = self._live_row(provider, table_name, row_id)
                    if row is None:
                        continue  # its delete record follows
                    new_key = _row_key(row.values)
                    if new_key != old_key:
                        gone = books.untrack(table_name, row_id)
                        if gone is not None:
                            user.mark_vanished(side, table_name, gone)
                        books.track(table_name, row_id, new_key)
                    if row.slabel == user_slabel:
                        candidates.setdefault(table_name, set()).add(row_id)
            elif op in ("db.delete", "db.purge"):
                table_name = data["table"]
                for row_id in data["rows"]:
                    gone = books.untrack(table_name, row_id)
                    if gone is not None:
                        user.mark_vanished(side, table_name, gone)
            elif op == "db.drop_table":
                for key in books.drop_table(data["name"]):
                    user.mark_vanished(side, data["name"], key)

    @staticmethod
    def _live_row(provider: "Provider", table_name: str, row_id: int):
        if table_name not in provider.db.tables():
            return None
        return provider.db.table(table_name).rows.get(row_id)

    # -- file reconciliation ----------------------------------------------

    def _reconcile_files(self, state: "SyncState",
                         paths: Iterable[str]) -> int:
        """Content-reconcile exactly the touched paths, A first.

        Semantics per path match the naive pump pair: both present and
        different → A wins; present on one side only → copied to the
        other (deletions resurrect); directories are never synced.
        One :meth:`~repro.fs.LabeledFileSystem.lookup` per path per
        side decides what each side holds, and a shipped file is then
        written where that side holds the path (a directory there
        raises :class:`~repro.fs.IsADirectory`, as the naive pump's
        read does) and created where it does not.
        """
        paths = list(paths)
        if not paths:
            return 0
        link = self.link
        username = state.username
        agent_a = link._agent(link.a, username)
        agent_b = link._agent(link.b, username)
        moved = 0
        try:
            fs_a = FsView(link.a.fs, agent_a)
            fs_b = FsView(link.b.fs, agent_b)
            held_a: set[str] = set()
            held_b: set[str] = set()
            ship_ab: list[Envelope] = []
            ship_ba: list[Envelope] = []
            for path in paths:
                node_a, data_a = fs_a.lookup(path)
                node_b, data_b = fs_b.lookup(path)
                if node_a is not None:
                    held_a.add(path)
                if node_b is not None:
                    held_b.add(path)
                b_has = node_b is not None and not node_b.is_dir()
                if node_a is not None and not node_a.is_dir():
                    if not b_has or data_b != data_a:
                        ship_ab.append(Envelope("file", path, data_a))
                elif b_has:
                    ship_ba.append(Envelope("file", path, data_b))
            moved += self._transfer(
                self.channels["ab"], ship_ab,
                lambda e: self._apply_file(fs_b, e, state, held_b), "b")
            moved += self._transfer(
                self.channels["ba"], ship_ba,
                lambda e: self._apply_file(fs_a, e, state, held_a), "a")
        finally:
            link.a.kernel.exit(agent_a)
            link.b.kernel.exit(agent_b)
        self._stats["files_reconciled"] += len(paths)
        return moved

    @staticmethod
    def _apply_file(fs: FsView, envelope: Envelope, state: "SyncState",
                    held: set[str]) -> None:
        if envelope.key in held:
            fs.write(envelope.key, envelope.payload)
        else:
            fs.create(envelope.key, envelope.payload)
        state.transfers += 1

    # -- row mirroring -----------------------------------------------------

    def _pump_rows(self, state: "SyncState", user: _UserDelta,
                   src_side: str, dst_side: str,
                   candidates: dict[str, set[int]]) -> int:
        """Mirror dirty rows src → dst (append-only, like the naive
        round): candidates from the source tail plus re-fills for keys
        that vanished from the destination, all checked against the
        destination's pre-round visible-key snapshot."""
        link = self.link
        username = state.username
        src = self._provider(src_side)
        dst = self._provider(dst_side)
        src_books = user.books[src_side]
        dst_books = user.books[dst_side]
        vanished_dst = user.vanished[dst_side]
        tables = sorted(set(candidates)
                        | {t for t, keys in vanished_dst.items() if keys})
        if not tables:
            return 0
        user_slabel = src.account(username).agent_state()[0]
        channel = self._channel_into(dst_side)
        moved = 0
        src_agent = link._agent(src, username)
        dst_agent = link._agent(dst, username)
        try:
            for table_name in tables:
                if table_name not in src.db.tables():
                    continue  # nothing to re-fill from
                table = src.db.table(table_name)
                known_dst = dst_books.known(table_name)
                row_ids = set(candidates.get(table_name, ()))
                for key in vanished_dst.get(table_name, ()):
                    row_ids |= src_books.ids_for(table_name, key)
                envelopes: list[Envelope] = []
                for row_id in sorted(row_ids):
                    row = table.rows.get(row_id)
                    if row is None or row.slabel != user_slabel:
                        continue
                    if _row_key(row.values) in known_dst:
                        continue
                    envelopes.append(Envelope("row", table_name,
                                              dict(row.values)))
                if not envelopes:
                    continue
                if table_name not in dst.db.tables():
                    dst.db.create_table(dst_agent, table_name,
                                        indexes=table.indexed_columns)

                def apply(envelope: Envelope, _table=table_name) -> None:
                    row_id = dst.db.insert(dst_agent, _table,
                                           envelope.payload)
                    dst_books.track(_table, row_id,
                                    _row_key(envelope.payload))
                    state.transfers += 1

                moved += self._transfer(channel, envelopes, apply,
                                        dst_side)
        finally:
            src.kernel.exit(src_agent)
            dst.kernel.exit(dst_agent)
        self._stats["rows_shipped"] += moved
        return moved
