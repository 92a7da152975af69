"""The fast-path label engine: memoized flow decisions.

Every request in the reproduction funnels through the reference
monitor, so the label checks in :mod:`repro.labels.flow` are *the* hot
path.  Flume (Krohn et al., SOSP 2007) kept per-message checks cheap by
exploiting label immutability; this module is that optimization for W5:
since :class:`~repro.labels.label.Label` and
:class:`~repro.labels.capabilities.CapabilitySet` are immutable and
interned, every pure decision — ``can_flow``, label-change legality,
endpoint reach, export residue — is a function of its (identity-
comparable) arguments and can be memoized forever.

Two layers
----------

* **Pure memos** key on the interned argument tuples.  These entries
  can never go stale: the inputs are immutable values, so a recorded
  verdict is a theorem, not a snapshot.  They are bounded (clear-on-
  overflow) purely to cap memory.

* **Subject verdicts** cache storage read/write decisions per subject
  *label state* ``(slabel, ilabel, caps)``, so a database scan or
  directory walk re-checks each distinct (secrecy, integrity) object
  label pair once.  ``can_read`` and ``can_write`` are pure functions
  of the object labels and that state, and every part of the key is
  an interned value, so these entries are theorems too: a process
  whose labels change simply looks up a different state, and a fresh
  process in an already-seen state (every request spawns one) reuses
  the verdicts its predecessors computed.  The table keeps at most
  :data:`MAX_STATES` states and evicts the oldest on overflow.

Only :meth:`FlowCache.invalidate_all` ever drops entries for
correctness: a registry restore or journal replay rewires tag
*identity* underneath the interned values.

Semantics are preserved exactly: a cached *allow* replays a decision
computed by the very functions in :mod:`repro.labels.flow`, and every
*deny* on a raising path is re-derived uncached so diagnostics (which
name the offending tags) are byte-identical.  The differential property
test in ``tests/kernel/test_cache_differential.py`` drives cached and
uncached kernels through identical histories and asserts every
allow/deny matches.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from . import flow
from .capabilities import CapabilitySet
from .label import Label

#: Bound on the subject-verdict table: distinct label states kept
#: before the oldest is evicted.  It must hold one batch's working set:
#: a ``policy_churn`` batch of 64 viewers touches 65 states, so at 64
#: the partition scans of every batch miss.  Each fork shard keeps
#: about 1 MiB more at 128 than at 64 (``shard_batch`` ``peak_rss_mb``).
MAX_STATES = 128


class Subject(Protocol):
    """What the subject-verdict layer needs from a kernel process."""

    slabel: Label
    ilabel: Label
    caps: CapabilitySet


class _SubjectEntry:
    """Cached storage verdicts for one subject label state."""

    __slots__ = ("read", "write")

    def __init__(self) -> None:
        self.read: dict[tuple[Label, Label], bool] = {}
        self.write: dict[tuple[Label, Label], bool] = {}


class FlowCache:
    """Memoization layer over the trusted decision procedure.

    One instance per :class:`~repro.kernel.Kernel`.  ``enabled=False``
    turns every method into a pass-through recomputation — the
    differential tests and the before/after benchmarks use this to
    compare cached and uncached behaviour on the same code path.

    ``max_entries`` bounds each pure memo table; on overflow the table
    is cleared (O(1) amortized, no LRU bookkeeping on the hot path).
    """

    def __init__(self, enabled: bool = True,
                 max_entries: int = 65536) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        # pure memos
        self._secrecy: dict[tuple, bool] = {}
        self._integrity: dict[tuple, bool] = {}
        self._message: dict[tuple, bool] = {}
        self._change: dict[tuple, bool] = {}
        self._endpoint: dict[tuple, bool] = {}
        self._residue: dict[tuple, Label] = {}
        # subject verdicts
        self._subjects: dict[tuple, _SubjectEntry] = {}
        # observability
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._invalidations: dict[str, int] = {}
        #: Pure-memo and per-state verdict tables cleared on overflow,
        #: plus label states evicted from the subject table.
        self._evictions = 0
        #: Bumped by every :meth:`invalidate_all`.  Derived caches that
        #: sit on top of this one (the kernel's compiled
        #: TransitionCache, M14) compare generations instead of
        #: registering callbacks.
        self.generation = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _hit(self, category: str) -> None:
        self._hits[category] = self._hits.get(category, 0) + 1

    def _miss(self, category: str) -> None:
        self._misses[category] = self._misses.get(category, 0) + 1

    def _bound(self, table: dict) -> None:
        if len(table) >= self.max_entries:
            table.clear()
            self._evictions += 1

    def _memo(self, table: dict, key: tuple, category: str,
              compute: Callable[[], Any]) -> Any:
        cached = table.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = compute()
        self._bound(table)
        table[key] = value
        return value

    # ------------------------------------------------------------------
    # pure memos (immutable inputs: entries never go stale)
    # ------------------------------------------------------------------

    def can_flow_secrecy(self, s_from: Label, s_to: Label,
                         d_from: CapabilitySet = CapabilitySet.EMPTY,
                         d_to: CapabilitySet = CapabilitySet.EMPTY,
                         category: str = "flow") -> bool:
        if not self.enabled:
            return flow.can_flow_secrecy(s_from, s_to, d_from, d_to)
        key = (s_from, s_to, d_from, d_to)
        cached = self._secrecy.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow_secrecy(s_from, s_to, d_from, d_to)
        self._bound(self._secrecy)
        self._secrecy[key] = value
        return value

    def can_flow_integrity(self, i_from: Label, i_to: Label,
                           d_from: CapabilitySet = CapabilitySet.EMPTY,
                           d_to: CapabilitySet = CapabilitySet.EMPTY,
                           category: str = "flow") -> bool:
        if not self.enabled:
            return flow.can_flow_integrity(i_from, i_to, d_from, d_to)
        key = (i_from, i_to, d_from, d_to)
        cached = self._integrity.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow_integrity(i_from, i_to, d_from, d_to)
        self._bound(self._integrity)
        self._integrity[key] = value
        return value

    def can_flow(self, s_from: Label, i_from: Label, s_to: Label,
                 i_to: Label, d_from: CapabilitySet = CapabilitySet.EMPTY,
                 d_to: CapabilitySet = CapabilitySet.EMPTY,
                 category: str = "ipc") -> bool:
        """Memoized combined safe-message check (the IPC hot path)."""
        if not self.enabled:
            return flow.can_flow(s_from, i_from, s_to, i_to, d_from, d_to)
        key = (s_from, i_from, s_to, i_to, d_from, d_to)
        cached = self._message.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow(s_from, i_from, s_to, i_to, d_from, d_to)
        self._bound(self._message)
        self._message[key] = value
        return value

    def check_flow(self, s_from: Label, i_from: Label, s_to: Label,
                   i_to: Label, d_from: CapabilitySet = CapabilitySet.EMPTY,
                   d_to: CapabilitySet = CapabilitySet.EMPTY,
                   what: str = "message", category: str = "ipc") -> None:
        """Raising variant: allows ride the memo; denials re-derive the
        precise :class:`SecrecyViolation`/:class:`IntegrityViolation`
        (with the offending tag ids) through the uncached path, so the
        diagnostics are identical to a cache-free kernel's."""
        if self.can_flow(s_from, i_from, s_to, i_to, d_from, d_to,
                         category=category):
            return
        flow.check_flow(s_from, i_from, s_to, i_to, d_from, d_to, what=what)
        raise AssertionError(
            f"flow cache and decision procedure disagree on {what}")

    def label_change_allowed(self, old: Label, new: Label,
                             caps: CapabilitySet,
                             category: str = "label_change") -> bool:
        if not self.enabled:
            return flow.label_change_allowed(old, new, caps)
        return self._memo(self._change, (old, new, caps), category,
                          lambda: flow.label_change_allowed(old, new, caps))

    def check_label_change(self, old: Label, new: Label, caps: CapabilitySet,
                           what: str = "label",
                           category: str = "label_change") -> None:
        """Raising variant of :meth:`label_change_allowed` (same
        deny-recompute discipline as :meth:`check_flow`)."""
        if self.label_change_allowed(old, new, caps, category=category):
            return
        flow.check_label_change(old, new, caps, what=what)
        raise AssertionError(
            f"flow cache and decision procedure disagree on {what}")

    def endpoint_legal(self, declared_s: Label, declared_i: Label,
                       subj_s: Label, subj_i: Label, caps: CapabilitySet,
                       category: str = "endpoint") -> bool:
        """Memoized endpoint-declaration legality (both axes)."""
        if not self.enabled:
            return (flow.endpoint_label_legal(declared_s, subj_s, caps)
                    and flow.endpoint_label_legal(declared_i, subj_i, caps))
        return self._memo(
            self._endpoint, (declared_s, declared_i, subj_s, subj_i, caps),
            category,
            lambda: (flow.endpoint_label_legal(declared_s, subj_s, caps)
                     and flow.endpoint_label_legal(declared_i, subj_i, caps)))

    def exportable_residue(self, s: Label, caps: CapabilitySet,
                           category: str = "export") -> Label:
        """Memoized :func:`repro.labels.flow.exportable_tags` — the
        gateway/email perimeter check."""
        if not self.enabled:
            return flow.exportable_tags(s, caps)
        return self._memo(self._residue, (s, caps), category,
                          lambda: flow.exportable_tags(s, caps))

    # ------------------------------------------------------------------
    # subject verdicts (keyed on the subject's label state)
    # ------------------------------------------------------------------

    def _subject_entry(self, subject: Subject) -> _SubjectEntry:
        state = (subject.slabel, subject.ilabel, subject.caps)
        subjects = self._subjects
        entry = subjects.get(state)
        if entry is None:
            if len(subjects) >= MAX_STATES:
                del subjects[next(iter(subjects))]
                self._evictions += 1
            entry = subjects[state] = _SubjectEntry()
        return entry

    def read_table(self, subject: Subject
                   ) -> dict[tuple[Label, Label], bool]:
        """The read verdicts of ``subject``'s current label state, for a
        caller that probes many objects in a row (a path walk).

        A disabled cache returns a fresh empty dict, so every probe
        misses and takes the per-check path.  The table is only valid
        while the subject's labels stay put, so a caller must not keep
        it past one walk or scan.  Hits taken from it are reported
        through :meth:`count_hits`.
        """
        if not self.enabled:
            return {}
        return self._subject_entry(subject).read

    def count_hits(self, category: str, n: int) -> None:
        """Record ``n`` verdicts served straight from a :meth:`read_table`."""
        self._hits[category] = self._hits.get(category, 0) + n

    def readable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "read") -> bool:
        """Cached storage read verdict (files and rows share the rule,
        :func:`repro.labels.flow.can_read`)."""
        if not self.enabled:
            return flow.can_read(slabel, ilabel, subject.slabel,
                                 subject.ilabel, subject.caps)
        entry = self._subject_entry(subject)
        key = (slabel, ilabel)
        cached = entry.read.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_read(slabel, ilabel, subject.slabel,
                              subject.ilabel, subject.caps)
        if len(entry.read) >= self.max_entries:
            entry.read.clear()
            self._evictions += 1
        entry.read[key] = value
        return value

    def writable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "write") -> bool:
        """Cached storage write verdict
        (:func:`repro.labels.flow.can_write`)."""
        if not self.enabled:
            return flow.can_write(slabel, ilabel, subject.slabel,
                                  subject.ilabel, subject.caps)
        entry = self._subject_entry(subject)
        key = (slabel, ilabel)
        cached = entry.write.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_write(slabel, ilabel, subject.slabel,
                               subject.ilabel, subject.caps)
        if len(entry.write) >= self.max_entries:
            entry.write.clear()
            self._evictions += 1
        entry.write[key] = value
        return value

    # ------------------------------------------------------------------
    # batched subject verdicts (the grouped directory walk)
    # ------------------------------------------------------------------

    def readable_many(self, subject: Subject,
                      pairs: "list[tuple[Label, Label]]",
                      category: str = "read"
                      ) -> dict[tuple[Label, Label], bool]:
        """Resolve read verdicts for many (slabel, ilabel) pairs at once.

        Semantically identical to calling :meth:`readable` per pair,
        but the subject entry is fetched once for the whole batch —
        the grouped directory walk calls it with one pair per distinct
        child label, so a directory's label cost is O(distinct labels),
        not O(children).
        """
        if not self.enabled:
            return {key: flow.can_read(key[0], key[1], subject.slabel,
                                       subject.ilabel, subject.caps)
                    for key in pairs}
        table = self._subject_entry(subject).read
        out: dict[tuple[Label, Label], bool] = {}
        for key in pairs:
            cached = table.get(key)
            if cached is None:
                self._miss(category)
                cached = flow.can_read(key[0], key[1], subject.slabel,
                                       subject.ilabel, subject.caps)
                if len(table) >= self.max_entries:
                    table.clear()
                    self._evictions += 1
                table[key] = cached
            else:
                self._hit(category)
            out[key] = cached
        return out

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate_all(self, reason: str = "explicit") -> None:
        """Drop everything — pure memos included.  Only needed when tag
        *identity* is rewired underneath the kernel (registry restore,
        journal replay); label changes never require it, since a new
        label state is a new key."""
        self._secrecy.clear()
        self._integrity.clear()
        self._message.clear()
        self._change.clear()
        self._endpoint.clear()
        self._residue.clear()
        self._subjects.clear()
        self.generation += 1
        self._invalidations[reason] = self._invalidations.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for operators and benchmarks (the ``flow`` branch of
        :meth:`repro.platform.Provider.stats`)."""
        return {
            "hits": dict(self._hits),
            "misses": dict(self._misses),
            "invalidations": dict(self._invalidations),
            "hit_total": sum(self._hits.values()),
            "miss_total": sum(self._misses.values()),
            "invalidation_total": sum(self._invalidations.values()),
            "evictions": self._evictions,
            "entries": (len(self._secrecy) + len(self._integrity)
                        + len(self._message) + len(self._change)
                        + len(self._endpoint) + len(self._residue)
                        + sum(len(e.read) + len(e.write)
                              for e in self._subjects.values())),
            "enabled": self.enabled,
        }

    def hit_rate(self) -> float:
        hits = sum(self._hits.values())
        total = hits + sum(self._misses.values())
        return hits / total if total else 0.0
