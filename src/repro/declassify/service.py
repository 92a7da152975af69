"""The declassification service: grants and per-viewer export authority.

A user expresses policy by *granting* a declassifier instance authority
over one of her tags ("use friends-only for my photo tag").  At export
time, the gateway needs one question answered: *which tags may ride out
in a response destined for viewer v?*  This service computes that — the
``authority_for`` oracle the platform plugs into the gateway — by
consulting every grant whose declassifier approves ``v``.

The service keeps no per-viewer answers.  A compiled request plan
(:mod:`repro.platform.plans`) holds its viewer's cacheable authority,
and :meth:`DeclassificationService.refresh_authority` brings a stale
one up to date: each epoch bump records the owners it concerns, and a
refresh re-runs only those owners' cacheable grants.

Every positive decision is an audited declassification event; every
negative one is an audited refusal, so experiments can count both.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..kernel import Kernel
from ..kernel import audit as A
from ..labels import CapabilitySet, Tag, minus
from .base import Declassifier, ReleaseContext

#: Authority epochs the dirty log remembers.  Authority held from more
#: edits ago than this is recomputed in full instead of refreshed.
DIRTY_LOG_EPOCHS = 256


@dataclass(frozen=True)
class Grant:
    """One user decision: ``declassifier`` may export ``tag``."""

    owner: str
    tag: Tag
    declassifier: Declassifier

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Grant({self.owner}: tag {self.tag.tag_id} via "
                f"{self.declassifier.name})")


def _tree(declassifier: Declassifier) -> Iterator[Declassifier]:
    """``declassifier`` and every policy nested in it (combinators)."""
    yield declassifier
    for child in getattr(declassifier, "children", ()):
        yield from _tree(child)
    child = getattr(declassifier, "child", None)
    if child is not None:
        yield from _tree(child)


class DeclassificationService:
    """Registry of grants + the export-authority oracle."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._grants: list[Grant] = []
        #: Grant indexes — same contents as ``_grants``, keyed for the
        #: two hot lookups (per-owner policy edits, per-tag release
        #: checks).  Within a key, insertion order is preserved, so the
        #: indexed paths visit grants in exactly the order the legacy
        #: full scan would.
        self._by_owner: dict[str, list[Grant]] = {}
        self._by_tag: dict[Tag, list[Grant]] = {}
        #: Grants whose declassifier opted out of caching — always
        #: re-evaluated; kept separate so the hot path never scans the
        #: full grant list.
        self._uncacheable: list[Grant] = []
        #: ``id`` of every declassifier in some grant's tree -> the
        #: owners of those grants: whom an edit to that object concerns.
        self._owners_of: dict[int, tuple[str, ...]] = {}
        #: Simulated platform clock, advanced by tests/benches.  No
        #: authority invalidation needed on advance: time-dependent
        #: declassifiers are ``cacheable = False`` and re-evaluated on
        #: every call.  (Exposed as the :attr:`now` property so clock
        #: advances are journaled — the embargo state is durable.)
        self._now: float = 0.0
        #: Durability hook: ``(op, data)`` per policy mutation (journal).
        self.on_mutate: Optional[Callable[[str, dict], None]] = None
        #: Bumped by every authority-changing event; readable by tests.
        self.authority_epoch = 0
        #: What each of the last epoch bumps changed: the owners whose
        #: grants it touched, or ``None`` for everything.  The newest
        #: record is the one that produced ``authority_epoch``.  (Owner
        #: tuples, not sets, here and in ``_owners_of``: the collector
        #: stops tracking tuples of strings, so they add no GC work.)
        self._dirty_log: deque[Optional[tuple[str, ...]]] = deque(
            maxlen=DIRTY_LOG_EPOCHS)
        #: Scoped refreshes: held authority brought up to date by
        #: re-running only the dirtied owners' grants.
        self._refreshes = 0

    # -- durability plumbing --------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        self._now = value
        if self.on_mutate is not None:
            self.on_mutate("clock.set", {"now": value})

    @staticmethod
    def grant_record(grant: "Grant") -> Optional[dict[str, Any]]:
        """The durable form of ``grant`` — exactly what
        ``snapshot_provider`` persists — or ``None`` when the grant is
        not durable (non-builtin declassifier or non-JSON config)."""
        from .builtin import BUILTINS
        config = {k: (sorted(v) if isinstance(v, frozenset) else v)
                  for k, v in grant.declassifier.config.items()}
        record = {"owner": grant.owner, "tag_id": grant.tag.tag_id,
                  "declassifier": grant.declassifier.name, "config": config}
        try:
            json.dumps(record)
        except TypeError:
            return None
        if grant.declassifier.name not in BUILTINS:
            return None
        return record

    def note_config_update(self, owner: str, tag: Tag, name: str,
                           changes: dict[str, Any]) -> None:
        """Journal a policy-config edit (the callers —
        ``Provider.update_declassifier_config`` and the group roster
        refresh — have already applied it via ``update_config``)."""
        if self.on_mutate is not None:
            serial = {k: (sorted(v) if isinstance(v, (frozenset, set))
                          else v)
                      for k, v in changes.items()}
            self.on_mutate("grant.config", {
                "owner": owner, "tag_id": tag.tag_id, "name": name,
                "changes": serial})

    # -- held-authority plumbing ----------------------------------------

    def invalidate_authority(
            self, reason: str = "", *,
            owners: Optional[Iterable[str]] = None,
            declassifiers: Optional[Iterable[Declassifier]] = None) -> None:
        """Mark held export authority stale.

        Called on every event that can change what some viewer may see.
        ``grant``/``revoke`` name their owner; a config edit (friendship
        edits, group roster changes) passes the declassifier objects it
        mutated, which concern the owner of every grant whose policy
        tree contains one of them.  With neither, everything changed
        (restore, journal replay).  Authority held from before the bump
        re-runs only the changed owners' grants on its next refresh.
        """
        changed: Optional[tuple[str, ...]] = None
        if declassifiers is not None:
            scope = set(owners or ())
            for declassifier in declassifiers:
                scope.update(self._owners_of.get(id(declassifier), ()))
            changed = tuple(scope)
        elif owners is not None:
            changed = tuple(owners)
        self.authority_epoch += 1
        self._dirty_log.append(changed)

    def _dirtied_since(self, epoch: int) -> Optional[set[str]]:
        """Owners changed after ``epoch``; ``None`` when some bump
        changed everything or the log no longer reaches back."""
        behind = self.authority_epoch - epoch
        if behind > len(self._dirty_log):
            return None
        owners: set[str] = set()
        for changed in itertools.islice(reversed(self._dirty_log), behind):
            if changed is None:
                return None
            owners.update(changed)
        return owners

    def authority_stats(self) -> dict[str, int]:
        return {"epoch": self.authority_epoch, "refreshes": self._refreshes}

    # -- policy management (driven by the provider's web forms) ---------

    def grant(self, owner: str, tag: Tag,
              declassifier: Declassifier) -> Grant:
        """Record that ``owner`` entrusts ``declassifier`` with ``tag``.

        The platform must verify separately that ``owner`` actually
        owns ``tag`` (it does, in
        :meth:`repro.platform.provider.Provider.grant_declassifier`).
        """
        g = Grant(owner=owner, tag=tag, declassifier=declassifier)
        self._grants.append(g)
        self._index(g)
        if self.on_mutate is not None:
            record = self.grant_record(g)
            if record is not None:
                self.on_mutate("grant.add", record)
            else:
                self.on_mutate("grant.skip", {
                    "owner": owner, "tag_id": tag.tag_id,
                    "declassifier": declassifier.name})
        self.invalidate_authority("grant", owners=(owner,))
        self.kernel.audit.record(
            A.DECLASSIFY, True, owner,
            f"granted {declassifier.name} authority over tag {tag.tag_id}")
        return g

    def revoke(self, owner: str, tag: Tag,
               declassifier_name: Optional[str] = None) -> int:
        """Remove grants for (owner, tag); returns how many were removed."""
        before = len(self._grants)
        self._grants = [
            g for g in self._grants
            if not (g.owner == owner and g.tag == tag
                    and (declassifier_name is None
                         or g.declassifier.name == declassifier_name))]
        removed = before - len(self._grants)
        if removed:
            self._reindex()
            if self.on_mutate is not None:
                self.on_mutate("grant.revoke", {
                    "owner": owner, "tag_id": tag.tag_id,
                    "name": declassifier_name})
            self.invalidate_authority("revoke", owners=(owner,))
            self.kernel.audit.record(
                A.DECLASSIFY, True, owner,
                f"revoked {removed} grant(s) on tag {tag.tag_id}")
        return removed

    def _index(self, g: Grant) -> None:
        self._by_owner.setdefault(g.owner, []).append(g)
        self._by_tag.setdefault(g.tag, []).append(g)
        if not g.declassifier.cacheable:
            self._uncacheable.append(g)
        for node in _tree(g.declassifier):
            owners = self._owners_of.get(id(node), ())
            if g.owner not in owners:
                self._owners_of[id(node)] = owners + (g.owner,)

    def _reindex(self) -> None:
        self._by_owner = {}
        self._by_tag = {}
        self._uncacheable = []
        self._owners_of = {}
        for g in self._grants:
            self._index(g)

    def grants_for(self, owner: str) -> list[Grant]:
        return list(self._by_owner.get(owner, ()))

    def grant_for(self, owner: str,
                  declassifier_name: str) -> Optional[Grant]:
        """The owner's first grant using the named declassifier, if any.

        O(owner's grants) instead of O(all grants) — the lookup the
        provider's policy-edit forms (befriend/unfriend) hit per click.
        """
        for g in self._by_owner.get(owner, ()):
            if g.declassifier.name == declassifier_name:
                return g
        return None

    # -- the oracle ------------------------------------------------------

    def may_release(self, tag: Tag, viewer: Optional[str],
                    kind: str = "", **attributes: Any) -> bool:
        """True iff some grant on ``tag`` approves ``viewer``.

        Served from the per-tag index; the legacy full scan silently
        skipped non-matching tags, so the audit trail is identical.
        """
        for g in self._by_tag.get(tag, ()):
            ctx = ReleaseContext(owner=g.owner, viewer=viewer, kind=kind,
                                 now=self.now, attributes=dict(attributes))
            if g.declassifier.decide(ctx):
                self.kernel.audit.record(
                    A.DECLASSIFY, True, g.declassifier.name,
                    f"release tag {tag.tag_id} ({g.owner}) to "
                    f"{viewer or 'anonymous'}")
                return True
        self.kernel.audit.record(
            A.DECLASSIFY, False, "declassify-service",
            f"no grant releases tag {tag.tag_id} to {viewer or 'anonymous'}")
        return False

    def authority_for(self, viewer: Optional[str],
                      own_tags: Iterable[Tag] = (),
                      kind: str = "", **attributes: Any) -> CapabilitySet:
        """The export authority the gateway should use for ``viewer``,
        evaluated live: the reference every other answer must equal.

        ``own_tags`` are the viewer's own data tags (always
        exportable to herself — the boilerplate policy); on top of
        those, every granted tag whose declassifier approves ``viewer``
        contributes its ``t-``.  Unplanned egress, email, the
        universal feed and the oracle plane ask here; a planned
        request exports under its plan's held authority plus
        :meth:`with_live_grants`.
        """
        approved = self._evaluate(self._grants, len(self._by_owner),
                                  viewer, kind, attributes)
        return CapabilitySet([minus(t) for t in own_tags]
                             + [minus(g.tag) for g in approved])

    def refresh_authority(
            self, viewer: Optional[str], own_tags: Sequence[Tag],
            held: Optional[tuple[tuple[Grant, ...], CapabilitySet]] = None,
            epoch: int = 0) -> tuple[tuple[Grant, ...], CapabilitySet]:
        """``viewer``'s authority under the cacheable grants, current at
        ``authority_epoch``: the approving grants and their caps.

        ``held`` is that answer for the same ``own_tags`` at ``epoch``:
        only the cacheable grants of the owners dirtied since then are
        re-run, and an unchanged answer comes back as it was.  With
        nothing held, or a log that no longer reaches back to
        ``epoch``, every cacheable grant is evaluated.
        """
        owners = None if held is None else self._dirtied_since(epoch)
        if owners is None:
            grants = [g for g in self._grants if g.declassifier.cacheable]
            approved = self._evaluate(grants, len(self._by_owner),
                                      viewer, "", {})
        elif not owners:  # no edit since concerns any grant owner
            return held
        else:
            self._refreshes += 1
            stale = held[0]
            grants = [g for o in owners for g in self._by_owner.get(o, ())
                      if g.declassifier.cacheable]
            approved = self._evaluate(grants, len(owners), viewer, "", {})
            replaced = {id(g) for g in stale if g.owner in owners}
            if replaced == {id(g) for g in approved}:
                # the usual edit: nothing changed for this viewer
                return held
            approved += [g for g in stale if g.owner not in owners]
        caps = CapabilitySet([minus(t) for t in own_tags]
                             + [minus(g.tag) for g in approved])
        return tuple(approved), caps

    def with_live_grants(self, caps: CapabilitySet,
                         viewer: Optional[str]) -> CapabilitySet:
        """``caps`` plus the ``t-`` of every non-cacheable grant that
        approves ``viewer`` now: what completes a plan's held authority
        at egress (``ReleaseContext.now`` is read per call)."""
        extra = [minus(g.tag) for g in self._uncacheable
                 if g.declassifier.decide(ReleaseContext(
                     owner=g.owner, viewer=viewer, now=self.now))]
        return caps | extra if extra else caps

    def _evaluate(self, grants: Sequence[Grant], owners: int,
                  viewer: Optional[str], kind: str,
                  attributes: dict[str, Any]) -> list[Grant]:
        """The grants among ``grants`` that approve ``viewer``."""
        # the declassifier evaluation loop is the expensive part of the
        # oracle, so the span lives here: a current plan (the
        # steady-state request path) costs no span at all, while every
        # real evaluation — live call, plan compile, scoped refresh —
        # shows up in the trace as declass.authority
        with self.kernel.tracer.span("declass.authority",
                                     viewer=viewer or "anonymous",
                                     grants=len(grants), owners=owners):
            return [g for g in grants if g.declassifier.decide(
                ReleaseContext(owner=g.owner, viewer=viewer, kind=kind,
                               now=self.now, attributes=dict(attributes)))]
