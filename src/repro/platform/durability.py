"""Incremental durability: the journal manager, its installers, and
the one rebuild behind restore and crash recovery.

The naive operator path re-serializes *every* account, grant, file and
row on every snapshot (EXPERIMENTS.md §M7) — O(total state) per deploy.
This module makes the incremental artifact the journal itself:

* :class:`DurabilityManager` wires one ``on_mutate`` hook into every
  durable subsystem (tag registry, filesystem, store, declassification
  service, endorsement ledger) and exposes :meth:`record` for the
  platform-level mutations the provider performs itself (account
  lifecycle, enablements, group rosters, ledgers).  Each mutation
  becomes one checksummed :class:`~repro.core.journal.Journal` record.
* The operator holds the base, not the provider.  A checkpoint only
  resets the journal onto a new checkpoint id, which the journal's
  header names.  :meth:`emit_snapshot` returns the journal since the
  last checkpoint as a **delta** (its cost is one copy of the journal
  image), or a fresh full snapshot carrying a new checkpoint id when
  the operator holds no base yet or the journal outgrew its threshold
  (compaction); the provider keeps no copy of it.  Deltas are
  *cumulative* since the checkpoint, so an operator retains exactly
  two artifacts: the base and the latest delta.
* Every durable object — tag, file node, table, row, account, grant,
  group, endorsement, the declassifier clock — is re-created by one
  installer: the applier of its journal record, or the subsystem
  installer that applier calls.  :func:`recover_provider` refuses a
  journal whose header names another checkpoint than the base's
  (:class:`~repro.platform.errors.BaseMismatch`; a snapshot without
  a checkpoint id is named by a digest of its content,
  :func:`checkpoint_id`), installs a full
  snapshot through those installers (the reader,
  :func:`repro.platform.persist.install_snapshot`, sits beside the
  writer), replays the journal's verified prefix through the same
  ones (a torn tail is truncated, never guessed at), aligns the
  caches once and resets the journal; it takes no full snapshot.
  ``restore_provider`` is the same body without a journal.  The
  differential tests interleave random mutations with crashes at
  every journal byte offset and compare against a full restore.

Installation runs at cold-storage trust: records describe mutations
the reference monitor *already approved*, so installers write state
directly and never re-run label checks.  Journaling is suspended
throughout — installing state is not a new mutation.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from ..core.journal import Journal, JournalRecord, decode_payload
from ..declassify import BUILTINS
from ..declassify import Group as GroupPolicy
from ..labels import Label
from .accounts import UserAccount
from .errors import BaseMismatch
from .groups import GroupSpace

if TYPE_CHECKING:  # pragma: no cover
    from .provider import Provider
    from .registry import AppModule


class DurabilityManager:
    """Owns the journal; the operator holds the base it extends."""

    def __init__(self, provider: "Provider",
                 compact_threshold: int = 1 << 20) -> None:
        self.provider = provider
        self.journal = Journal(compact_threshold=compact_threshold)
        self._suspend_depth = 0
        #: Whether the operator holds a full snapshot of the checkpoint
        #: the journal extends (a delta only extends a base the
        #: operator holds).
        self.base_held = False
        self._stats = {"compactions": 0, "full_snapshots": 0,
                       "incremental_snapshots": 0, "replay_records": 0,
                       "torn_truncations": 0}
        self.wire()
        # The first checkpoint covers the provider's bootstrap state
        # (its write tag, /users, /groups), so the journal covers every
        # mutation of the provider's lifetime.  The operator holds no
        # snapshot of it, so the first emit_snapshot is a full one.
        self.checkpoint(held=False)

    # -- hook wiring ---------------------------------------------------

    def wire(self) -> None:
        """(Re)attach the mutation hooks.  Called again after a restore
        replaces the registry/fs/db objects underneath the provider."""
        p = self.provider
        p.kernel.tags.on_mutate = self.record
        p.fs.on_mutate = self.record
        p.db.on_mutate = self.record
        p.declass.on_mutate = self.record
        p.endorsements.on_mutate = self.record

    def record(self, op: str, data: dict[str, Any]) -> None:
        if self._suspend_depth:
            return
        self.journal.append(op, data)

    @contextmanager
    def suspended(self):
        """Journaling off (restore/replay: state installation is not a
        new mutation)."""
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    # -- snapshots -----------------------------------------------------

    def checkpoint(self, held: bool = True,
                   base_id: Optional[str] = None) -> str:
        """Reset the journal onto checkpoint ``base_id`` and return the
        id, which the journal's header names: random bytes in hex
        when ``None``, or a restored snapshot's :func:`checkpoint_id`.
        ``held`` says whether the operator holds a full snapshot of the
        current state (later deltas extend it).  Builds no snapshot."""
        if base_id is None:
            base_id = os.urandom(16).hex()
        self.base_held = held
        self.journal.reset(base_id)
        return base_id

    def emit_snapshot(self) -> dict[str, Any]:
        """The operator's snapshot call: the journal since the last
        checkpoint as a **delta**, or a fresh full snapshot.

        A delta is ``{"kind": "delta", "name", "journal_seq",
        "journal"}``, where ``journal`` is the current epoch's journal
        image as ASCII text, so the artifact stays JSON-compatible.
        Its header names the checkpoint it extends.  Deltas are
        cumulative since the checkpoint: the operator keeps the base
        and the latest delta, and
        ``recover_provider(base, delta["journal"].encode("ascii"))``
        folds them.

        A full snapshot comes back when the journal crossed its
        compaction threshold, when the operator holds no base (the
        first call on a provider built by ``Provider(...)`` or by
        :func:`recover_provider`), and when the epoch holds a
        ``journal.opaque`` record: replay cannot reproduce the state
        such a record covers, so only a full snapshot carries it.  Its
        ``"checkpoint"`` key is the new checkpoint's id.  The provider
        keeps no reference to it; within it the label dicts are shared
        between nodes and rows, so ``copy.deepcopy`` it (or JSON
        round-trip it) before editing."""
        if self.journal.needs_compaction():
            self._stats["compactions"] += 1
        elif self.base_held and not self.journal.epoch_opaque:
            self._stats["incremental_snapshots"] += 1
            return {"kind": "delta", "name": self.provider.name,
                    "journal_seq": self.journal.seq,
                    "journal": self.journal.text()}
        from .persist import snapshot_provider
        with self.suspended():
            full = snapshot_provider(self.provider)
        full["checkpoint"] = self.checkpoint()
        self._stats["full_snapshots"] += 1
        return full

    def stats(self) -> dict[str, Any]:
        return {**self.journal.stats(), **self._stats}


# ----------------------------------------------------------------------
# restore and crash recovery: install the base, replay the journal
# ----------------------------------------------------------------------

def checkpoint_id(state: dict[str, Any]) -> str:
    """The checkpoint id a base snapshot names: its ``"checkpoint"``
    key, or for a snapshot that carries none (``snapshot_provider``'s
    own output) a sha256 of its canonical JSON, so two id-less
    snapshots of different states never pass for one another."""
    checkpoint = state.get("checkpoint")
    if checkpoint is not None:
        return checkpoint
    # imported on first use: at module level, hashlib (which loads
    # OpenSSL) raised delta_sync's peak RSS by about 0.6 MiB
    import hashlib
    text = json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=lambda o: {"__bytes__": o.hex()}
                      if isinstance(o, (bytes, bytearray)) else repr(o))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def recover_provider(base_state: dict[str, Any],
                     journal_raw: Optional[bytes],
                     app_catalog: Iterable["AppModule"] = (),
                     resources=None, config=None, tracing: bool = False
                     ) -> tuple["Provider", dict[str, Any]]:
    """Rebuild a provider from its last full snapshot plus the journal.

    The one fold of a base and a delta: an operator's delta folds as
    ``recover_provider(base, delta["journal"].encode("ascii"))``.  A
    journal whose header names another checkpoint than
    ``base_state["checkpoint"]`` raises :class:`BaseMismatch` before
    anything is installed.  A fresh provider installs ``base_state``
    (:func:`install_snapshot`), replays the journal's verified prefix
    through the same installers, aligns its caches once and resets
    its journal; no full snapshot is taken.  A torn journal tail
    (crash mid-append) is dropped; the report says how much and why.
    The recovered provider is byte-identical (snapshot-wise) to
    ``restore_provider`` of a snapshot taken right after the last
    complete journal record (``tests/platform/test_journal_replay.py``
    holds this at every crash offset), and the report's
    ``unrestored_grants`` lists the grants that snapshot would.  The
    operator holds no snapshot of the recovered state, so its first
    ``snapshot_incremental()`` is a full one.

    ``journal_raw=None`` is ``restore_provider``: no replay, no replay
    counts in the report, and the operator holds ``base_state``: the
    journal extends its :func:`checkpoint_id`, which both compute
    before installing anything.
    """
    from .persist import install_snapshot, skipped_key
    from .provider import Provider
    base_id = checkpoint_id(base_state)
    if journal_raw is not None:
        records, jreport = Journal.recover(journal_raw)
        if jreport.base is not None and jreport.base != base_id:
            raise BaseMismatch(
                f"the journal extends checkpoint {jreport.base!r}, the "
                f"base snapshot is checkpoint {base_id!r}")
    provider = Provider(name=base_state["name"], resources=resources,
                        config=config, tracing=tracing)
    manager = provider._durability
    unrestored = list(base_state.get("skipped_grants", []))
    report: dict[str, Any] = {"unrestored_grants": unrestored}
    with manager.suspended() if manager is not None else nullcontext():
        install_snapshot(provider, base_state, app_catalog)
        if journal_raw is not None:
            report.update({
                "records_replayed": jreport.records,
                "truncated_bytes": jreport.truncated_bytes,
                "truncation_reason": jreport.truncation_reason,
                "opaque_records": jreport.opaque_records,
                "unknown_ops": _replay(provider, records, unrestored),
            })
            unrestored.sort(key=skipped_key)
    report["missing_apps"] = [
        {"username": account.username, "app": app}
        for account in provider._accounts.values()
        for app in sorted(account.enabled_apps) if app not in provider.apps]
    # Installation wrote state behind every cache's back and rewired
    # tag identity underneath the kernel: align the world once.  The
    # row-id allocator restarts at max live row id + 1, as a snapshot
    # records it, so restore and recover give later inserts one id.
    top = max((max(t.rows, default=0)
               for t in provider.db._tables.values()), default=0)
    provider.db._row_ids = itertools.count(top + 1)
    provider.kernel.flow_cache.invalidate_all(reason="restore")
    provider.capindex.invalidate_all("restore")
    provider.declass.invalidate_authority("restore")
    if manager is not None:
        # the install replaced the registry/fs/db objects: point the
        # hooks at the new ones, then make the state the journal's base
        manager.wire()
        if journal_raw is None:
            manager.checkpoint(base_id=base_id)
        else:
            manager.checkpoint(held=False)
            manager._stats["replay_records"] += jreport.records
            manager._stats["torn_truncations"] += bool(
                jreport.truncated_bytes)
    return provider, report


# -- the op dispatch table ---------------------------------------------

def _label(provider: "Provider", tag_ids: Iterable[int]) -> Label:
    lookup = provider.kernel.tags.lookup
    return Label([lookup(i) for i in tag_ids])


def _r_tag_create(p: "Provider", d: dict) -> None:
    p.kernel.tags.install(d["tag_id"], d["purpose"], d["kind"], d["owner"])


def _r_tag_foreign(p: "Provider", d: dict) -> None:
    p.kernel.tags.install_foreign(d["namespace"], d["foreign_id"],
                                  d["local_id"])


def _r_fs_mkdir(p: "Provider", d: dict) -> None:
    p.fs.install(*p.fs.parent_of(d["path"]), "dir", _label(p, d["slabel"]),
                 _label(p, d["ilabel"]), d["created_by"])


def _r_fs_create(p: "Provider", d: dict) -> None:
    p.fs.install(*p.fs.parent_of(d["path"]), "file", _label(p, d["slabel"]),
                 _label(p, d["ilabel"]), d["created_by"],
                 decode_payload(d["data"]))


def _r_fs_write(p: "Provider", d: dict) -> None:
    parent, leaf = p.fs.parent_of(d["path"])
    node = parent.entries[leaf]
    node.data = decode_payload(d["data"])
    node.version += 1


def _r_fs_delete(p: "Provider", d: dict) -> None:
    parent, leaf = p.fs.parent_of(d["path"])
    parent.entries.pop(leaf, None)


def _r_db_create_table(p: "Provider", d: dict) -> None:
    p.db.install_table(d["name"], indexes=d["indexes"],
                       pad_scan_to=d["pad_scan_to"])


def _r_db_drop_table(p: "Provider", d: dict) -> None:
    p.db.drop_table_raw(d["name"])


def _r_db_insert(p: "Provider", d: dict) -> None:
    p.db.install_row(d["table"], d["row_id"],
                     decode_payload(d["values"]),
                     _label(p, d["slabel"]), _label(p, d["ilabel"]))


def _r_db_update(p: "Provider", d: dict) -> None:
    p.db.apply_changes(d["table"], d["rows"], decode_payload(d["changes"]))


def _r_db_remove(p: "Provider", d: dict) -> None:
    p.db.remove_rows(d["table"], d["rows"])


#: The durable account fields a snapshot's account record carries
#: beyond a signup record's, each with the type it is copied into.
_ACCOUNT_EXTRAS = {"enabled_apps": set, "writable_apps": set,
                   "module_preferences": dict, "profile": dict,
                   "require_endorsed": bool, "js_policy": str,
                   "audited_versions": dict}


def _r_account_signup(p: "Provider", d: dict) -> None:
    """Install one account: a signup record, or a snapshot's account
    record with its profile, enablements, pins and policies."""
    lookup = p.kernel.tags.lookup
    account = UserAccount(
        username=d["username"], data_tag=lookup(d["data_tag_id"]),
        write_tag=lookup(d["write_tag_id"]),
        email_address=d["email"] if "email" in d else d["email_address"],
        **{key: make(d[key]) for key, make in _ACCOUNT_EXTRAS.items()
           if key in d})
    p._accounts[account.username] = account
    p.email.register_address(account.email_address,
                             owner=account.username)


def _r_account_delete(p: "Provider", d: dict) -> None:
    account = p._accounts.pop(d["username"], None)
    if account is not None:
        # a full restore of the post-crash snapshot has no mailbox for
        # the departed user; match it
        p.email._boxes.pop(account.email_address, None)


def _r_account_profile(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.profile.update(decode_payload(d["fields"]))


def _r_account_enable(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.enabled_apps.add(d["app"])
        if d["write"]:
            account.writable_apps.add(d["app"])
        p.adoptions.append((d["username"], d["app"]))


def _r_account_disable(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.enabled_apps.discard(d["app"])
        account.writable_apps.discard(d["app"])


def _r_account_prefer(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.module_preferences[d["slot"]] = d["ref"]


def _r_account_integrity(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.require_endorsed = d["require_endorsed"]


def _r_account_pin(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.audited_versions[d["app"]] = d["version"]


def _r_account_unpin(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.audited_versions.pop(d["app"], None)


def _r_account_js(p: "Provider", d: dict) -> None:
    account = p._accounts.get(d["username"])
    if account is not None:
        account.js_policy = d["policy"]


def _r_grant_add(p: "Provider", d: dict) -> None:
    cls = BUILTINS[d["declassifier"]]
    tag = p.kernel.tags.lookup(d["tag_id"])
    p.declass.grant(d["owner"], tag, cls(d["config"]))


def _r_grant_revoke(p: "Provider", d: dict) -> None:
    tag = p.kernel.tags.lookup(d["tag_id"])
    p.declass.revoke(d["owner"], tag, declassifier_name=d["name"])


def _r_grant_config(p: "Provider", d: dict) -> None:
    changes = decode_payload(d["changes"])
    for g in p.declass.grants_for(d["owner"]):
        if g.tag.tag_id == d["tag_id"] \
                and g.declassifier.name == d["name"]:
            g.declassifier.update_config(**changes)


def _r_group_create(p: "Provider", d: dict) -> None:
    """Install one group space: a creation record (its owner alone on
    the roster), or a snapshot's group record with its roster."""
    group = GroupSpace(
        name=d["name"], owner=d["owner"],
        data_tag=p.kernel.tags.lookup(d["data_tag_id"]),
        write_tag=p.kernel.tags.lookup(d["write_tag_id"]),
        members=set(d.get("members", [d["owner"]])),
        writers=set(d.get("writers", [d["owner"]])))
    # bind to the roster-following grant installed before the group,
    # so later roster edits keep steering the live declassifier
    for grant in p.declass.grants_for(group.owner):
        if grant.tag == group.data_tag \
                and grant.declassifier.name == "group":
            group.policy = grant.declassifier
            break
    else:
        group.policy = GroupPolicy({"members": sorted(group.members)})
        p.declass.grant(group.owner, group.data_tag, group.policy)
    p.groups._groups[group.name] = group


def _r_group_member_add(p: "Provider", d: dict) -> None:
    group = p.groups._groups.get(d["name"])
    if group is not None:
        group.members.add(d["username"])
        if d["writer"]:
            group.writers.add(d["username"])
        # the roster-following config lands via the grant.config record
        # journaled right after this one


def _r_group_member_remove(p: "Provider", d: dict) -> None:
    group = p.groups._groups.get(d["name"])
    if group is not None:
        group.members.discard(d["username"])
        group.writers.discard(d["username"])


def _r_endorse_add(p: "Provider", d: dict) -> None:
    # endorsements only bind to reinstalled code
    if d["module"] in p.apps:
        p.endorsements.endorse(d["module"], endorser=d["endorser"])


def _r_endorse_retract(p: "Provider", d: dict) -> None:
    p.endorsements.retract(d["module"])


def _r_ledger_usage(p: "Provider", d: dict) -> None:
    p.usage_edges.append((d["app"], d["module"]))


def _r_clock_set(p: "Provider", d: dict) -> None:
    p.declass._now = d["now"]


def _r_opaque(p: "Provider", d: dict) -> None:
    # the mutation's payload could not be journaled; its effect lives
    # only in full snapshots (Journal.recover already counted it)
    pass


_REPLAY: dict[str, Callable[["Provider", dict], None]] = {
    "tag.create": _r_tag_create,
    "tag.foreign": _r_tag_foreign,
    "fs.mkdir": _r_fs_mkdir,
    "fs.create": _r_fs_create,
    "fs.write": _r_fs_write,
    "fs.delete": _r_fs_delete,
    "db.create_table": _r_db_create_table,
    "db.drop_table": _r_db_drop_table,
    "db.insert": _r_db_insert,
    "db.update": _r_db_update,
    "db.delete": _r_db_remove,
    "db.purge": _r_db_remove,
    "account.signup": _r_account_signup,
    "account.delete": _r_account_delete,
    "account.profile": _r_account_profile,
    "account.enable": _r_account_enable,
    "account.disable": _r_account_disable,
    "account.prefer": _r_account_prefer,
    "account.integrity": _r_account_integrity,
    "account.pin": _r_account_pin,
    "account.unpin": _r_account_unpin,
    "account.js": _r_account_js,
    "grant.add": _r_grant_add,
    "grant.revoke": _r_grant_revoke,
    "grant.config": _r_grant_config,
    "group.create": _r_group_create,
    "group.member.add": _r_group_member_add,
    "group.member.remove": _r_group_member_remove,
    "endorse.add": _r_endorse_add,
    "endorse.retract": _r_endorse_retract,
    "ledger.usage": _r_ledger_usage,
    "clock.set": _r_clock_set,
    "journal.opaque": _r_opaque,
}


def _replay(provider: "Provider", records: Iterable[JournalRecord],
            unrestored: list[dict[str, Any]]) -> int:
    """Apply verified journal records in order; returns how many had
    an op this build does not know (skipped, counted — never fatal:
    an old journal must not brick a newer provider).

    A non-durable grant (non-builtin declassifier or non-JSON config)
    journals a ``grant.skip`` marker: like a full snapshot, replay
    cannot bring it back, so it only keeps ``unrestored`` (the base's
    skipped grants) equal to what a snapshot would list."""
    unknown = 0
    for record in records:
        op, d = record.op, record.data
        if op == "grant.skip":
            unrestored.append({"owner": d["owner"], "tag_id": d["tag_id"],
                               "declassifier": d["declassifier"]})
            continue
        if op == "grant.revoke":
            unrestored[:] = [
                g for g in unrestored
                if (g["owner"], g.get("tag_id")) != (d["owner"], d["tag_id"])
                or d["name"] not in (None, g["declassifier"])]
        applier = _REPLAY.get(op)
        if applier is None:
            unknown += 1
            continue
        applier(provider, d)
    return unknown
