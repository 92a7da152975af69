"""The fast-path label engine: memoized flow decisions.

Every request in the reproduction funnels through the reference
monitor, so the label checks in :mod:`repro.labels.flow` are *the* hot
path.  Flume (Krohn et al., SOSP 2007) kept per-message checks cheap by
exploiting label immutability; this module is that optimization for W5:
since :class:`~repro.labels.label.Label` and
:class:`~repro.labels.capabilities.CapabilitySet` are immutable and
interned, every pure decision — ``can_flow``, label transitions,
endpoint reach, export residue, the label arithmetic of a taint
raise — is a function of its (identity-comparable) arguments and can
be memoized forever.  This is the kernel's one memo of label
decisions: nothing above it keeps its own copy.

Two layers
----------

* **Pure memos** key on the interned argument tuples.  These entries
  can never go stale: the inputs are immutable values, so a recorded
  verdict is a theorem, not a snapshot.  They are bounded (clear-on-
  overflow at :data:`MAX_ENTRIES`) purely to cap memory.

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

from typing import Any, Callable, Optional, Protocol

from . import flow
from .capabilities import CapabilitySet
from .label import Label
from .tags import Tag

#: Bound on each pure memo table and on each label state's read and
#: write verdict tables: a table that reaches it is cleared (O(1)
#: amortized, no LRU bookkeeping on the hot path).
MAX_ENTRIES = 65536

#: Bound on the subject-verdict table: distinct label states kept
#: before the oldest is evicted.  It must hold one batch's working set:
#: a ``policy_churn`` batch of 64 viewers touches 65 states, so at 64
#: the partition scans of every batch miss.  Each fork shard keeps
#: about 1 MiB more at 128 than at 64 (``shard_batch`` ``peak_rss_mb``).
MAX_STATES = 128

#: The storage rules, indexed like a label state's verdict tables.
_READ, _WRITE = 0, 1
_RULES = (flow.can_read, flow.can_write)


class Subject(Protocol):
    """What the subject-verdict layer needs from a kernel process."""

    slabel: Label
    ilabel: Label
    caps: CapabilitySet


def _endpoint_legal(declared_s: Label, declared_i: Label, subj_s: Label,
                    subj_i: Label, caps: CapabilitySet) -> bool:
    return (flow.endpoint_label_legal(declared_s, subj_s, caps)
            and flow.endpoint_label_legal(declared_i, subj_i, caps))


def _change_allowed(s_old: Label, s_new: Optional[Label], i_old: Label,
                    i_new: Optional[Label], caps: CapabilitySet) -> bool:
    return ((s_new is None or flow.label_change_allowed(s_old, s_new, caps))
            and (i_new is None
                 or flow.label_change_allowed(i_old, i_new, caps)))


def _add(label: Label, tags: tuple[Tag, ...]) -> Label:
    return label.add(*tags)


class FlowCache:
    """Memoization layer over the trusted decision procedure.

    One instance per :class:`~repro.kernel.Kernel`.  ``enabled=False``
    turns every method into a pass-through recomputation — the
    differential tests and the before/after benchmarks use this to
    compare cached and uncached behaviour on the same code path.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # pure memos
        self._secrecy: dict[tuple, bool] = {}
        self._integrity: dict[tuple, bool] = {}
        self._message: dict[tuple, bool] = {}
        self._change: dict[tuple, bool] = {}
        self._endpoint: dict[tuple, bool] = {}
        self._residue: dict[tuple, Label] = {}
        self._adds: dict[tuple, Label] = {}
        # subject verdicts: label state -> (read table, write table)
        self._subjects: dict[tuple, tuple[dict, dict]] = {}
        # observability
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._invalidations: dict[str, int] = {}
        #: Pure-memo and per-state verdict tables cleared on overflow,
        #: plus label states evicted from the subject table.
        self._evictions = 0

    # ------------------------------------------------------------------
    # the one memo body
    # ------------------------------------------------------------------

    def _memo(self, table: dict, category: str,
              compute: Callable[..., Any], *args: Any) -> Any:
        """``compute(*args)``, served from ``table`` keyed on ``args``.

        Every memo here keys on interned immutable values, so an entry
        is valid for as long as it is kept.  A disabled cache computes
        afresh and records nothing.
        """
        if not self.enabled:
            return compute(*args)
        value = table.get(args)
        if value is None:
            self._misses[category] = self._misses.get(category, 0) + 1
            value = compute(*args)
            if len(table) >= MAX_ENTRIES:
                table.clear()
                self._evictions += 1
            table[args] = value
        else:
            self._hits[category] = self._hits.get(category, 0) + 1
        return value

    # ------------------------------------------------------------------
    # pure memos (immutable inputs: entries never go stale)
    # ------------------------------------------------------------------

    def can_flow_secrecy(self, s_from: Label, s_to: Label,
                         d_from: CapabilitySet = CapabilitySet.EMPTY,
                         d_to: CapabilitySet = CapabilitySet.EMPTY,
                         category: str = "flow") -> bool:
        return self._memo(self._secrecy, category, flow.can_flow_secrecy,
                          s_from, s_to, d_from, d_to)

    def can_flow_integrity(self, i_from: Label, i_to: Label,
                           d_from: CapabilitySet = CapabilitySet.EMPTY,
                           d_to: CapabilitySet = CapabilitySet.EMPTY,
                           category: str = "flow") -> bool:
        return self._memo(self._integrity, category, flow.can_flow_integrity,
                          i_from, i_to, d_from, d_to)

    def can_flow(self, s_from: Label, i_from: Label, s_to: Label,
                 i_to: Label, d_from: CapabilitySet = CapabilitySet.EMPTY,
                 d_to: CapabilitySet = CapabilitySet.EMPTY,
                 category: str = "ipc") -> bool:
        """Memoized combined safe-message check (the IPC hot path)."""
        return self._memo(self._message, category, flow.can_flow,
                          s_from, i_from, s_to, i_to, d_from, d_to)

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

    def label_change_allowed(self, s_old: Label, s_new: Optional[Label],
                             i_old: Label, i_new: Optional[Label],
                             caps: CapabilitySet,
                             category: str = "label_change") -> bool:
        """Memoized legality of one label transition, both axes at
        once: ``s_old -> s_new`` and ``i_old -> i_new`` under ``caps``,
        with ``None`` for an axis left alone."""
        return self._memo(self._change, category, _change_allowed,
                          s_old, s_new, i_old, i_new, caps)

    def check_label_change(self, s_old: Label, s_new: Optional[Label],
                           i_old: Label, i_new: Optional[Label],
                           caps: CapabilitySet, subject: str = "label",
                           category: str = "label_change") -> None:
        """Raising variant of :meth:`label_change_allowed` (same
        deny-recompute discipline as :meth:`check_flow`): a denial
        raises :func:`repro.labels.flow.check_label_change`'s error for
        the secrecy axis first, then the integrity axis, naming them
        ``"<subject> secrecy"`` and ``"<subject> integrity"``."""
        # the memo probe itself, not label_change_allowed: one frame
        # less on the path every label change takes
        if self._memo(self._change, category, _change_allowed,
                      s_old, s_new, i_old, i_new, caps):
            return
        if s_new is not None:
            flow.check_label_change(s_old, s_new, caps,
                                    what=f"{subject} secrecy")
        if i_new is not None:
            flow.check_label_change(i_old, i_new, caps,
                                    what=f"{subject} integrity")
        raise AssertionError(
            f"flow cache and decision procedure disagree on {subject}")

    def label_add(self, label: Label, tags: tuple[Tag, ...],
                  category: str = "label_add") -> Label:
        """Memoized ``label.add(*tags)``: the per-request taint raise
        repeats the same few (label, tags) pairs."""
        return self._memo(self._adds, category, _add, label, tags)

    def endpoint_legal(self, declared_s: Label, declared_i: Label,
                       subj_s: Label, subj_i: Label, caps: CapabilitySet,
                       category: str = "endpoint") -> bool:
        """Memoized endpoint-declaration legality (both axes)."""
        return self._memo(self._endpoint, category, _endpoint_legal,
                          declared_s, declared_i, subj_s, subj_i, caps)

    def exportable_residue(self, s: Label, caps: CapabilitySet,
                           category: str = "export") -> Label:
        """Memoized :func:`repro.labels.flow.exportable_tags` — the
        gateway/email perimeter check."""
        return self._memo(self._residue, category, flow.exportable_tags,
                          s, caps)

    # ------------------------------------------------------------------
    # subject verdicts (keyed on the subject's label state)
    # ------------------------------------------------------------------

    def _subject_entry(self, subject: Subject) -> tuple[dict, dict]:
        state = (subject.slabel, subject.ilabel, subject.caps)
        subjects = self._subjects
        entry = subjects.get(state)
        if entry is None:
            if len(subjects) >= MAX_STATES:
                del subjects[next(iter(subjects))]
                self._evictions += 1
            entry = subjects[state] = ({}, {})
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
        return self._subject_entry(subject)[_READ]

    def count_hits(self, category: str, n: int) -> None:
        """Record ``n`` verdicts served straight from a :meth:`read_table`."""
        self._hits[category] = self._hits.get(category, 0) + n

    def _verdict(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str, axis: int) -> bool:
        """The one body of :meth:`readable` and :meth:`writable`."""
        rule = _RULES[axis]
        if not self.enabled:
            return rule(slabel, ilabel, subject.slabel, subject.ilabel,
                        subject.caps)
        table = self._subject_entry(subject)[axis]
        key = (slabel, ilabel)
        value = table.get(key)
        if value is None:
            self._misses[category] = self._misses.get(category, 0) + 1
            value = rule(slabel, ilabel, subject.slabel, subject.ilabel,
                         subject.caps)
            if len(table) >= MAX_ENTRIES:
                table.clear()
                self._evictions += 1
            table[key] = value
        else:
            self._hits[category] = self._hits.get(category, 0) + 1
        return value

    def readable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "read") -> bool:
        """Cached storage read verdict (files and rows share the rule,
        :func:`repro.labels.flow.can_read`)."""
        return self._verdict(subject, slabel, ilabel, category, _READ)

    def writable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "write") -> bool:
        """Cached storage write verdict
        (:func:`repro.labels.flow.can_write`)."""
        return self._verdict(subject, slabel, ilabel, category, _WRITE)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _tables(self) -> tuple[dict, ...]:
        return (self._secrecy, self._integrity, self._message, self._change,
                self._endpoint, self._residue, self._adds)

    def invalidate_all(self, reason: str = "explicit") -> None:
        """Drop everything — pure memos included.  Only needed when tag
        *identity* is rewired underneath the kernel (registry restore,
        journal replay); label changes never require it, since a new
        label state is a new key."""
        for table in self._tables():
            table.clear()
        self._subjects.clear()
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
            "entries": (sum(len(table) for table in self._tables())
                        + sum(len(read) + len(write)
                              for read, write in self._subjects.values())),
            "enabled": self.enabled,
        }

    def hit_rate(self) -> float:
        hits = sum(self._hits.values())
        total = hits + sum(self._misses.values())
        return hits / total if total else 0.0
