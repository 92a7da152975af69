"""The DIFC flow and label-change rules (Flume semantics).

These free functions are the *entire* trusted decision procedure: the
kernel, filesystem, database, and gateway all delegate here, so the
security argument of the whole reproduction reduces to the correctness
of this module plus the call sites — mirroring W5's claim (§1) that
"only a very small number of components must be correct".

Rules implemented (Krohn et al., SOSP 2007):

* **Secrecy flow** ``p → q`` is safe iff ``S_p − D⁻_p ⊆ S_q ∪ D⁺_q``:
  whatever taint p cannot shed must be accepted (or acceptable) by q.
* **Integrity flow** ``p → q`` is safe iff ``I_q − D⁻_q ⊆ I_p ∪ D⁺_p``:
  whatever endorsements q insists on keeping must be held (or
  claimable) by p.
* **Label change** is an explicit operation: add ``t`` needs ``t+``,
  drop ``t`` needs ``t-``.  There is no implicit taint propagation
  (that is Asbestos's model, which the Flume paper shows opens a
  label-change covert channel).

Endpoint-based checks (the discipline our kernel actually enforces on
every message) are *exact* comparisons between declared endpoint
labels; capabilities only matter when a process declares or adjusts an
endpoint.  ``can_flow`` is the capability-closed check used for
endpoint legality and for one-shot decisions such as file access.
"""

from __future__ import annotations

from .capabilities import CapabilitySet
from .errors import CapabilityError, IntegrityViolation, SecrecyViolation
from .label import Label
from .tags import Tag


def can_flow_secrecy(s_from: Label, s_to: Label,
                     d_from: CapabilitySet = CapabilitySet.EMPTY,
                     d_to: CapabilitySet = CapabilitySet.EMPTY) -> bool:
    """True iff data at secrecy ``s_from`` may reach secrecy ``s_to``.

    With both capability sets empty this is plain ``s_from ⊆ s_to``.
    """
    residue = s_from - d_from.minus_tags        # taint the sender cannot shed
    return residue <= (s_to | d_to.plus_tags)   # must fit in receiver's reach


def can_flow_integrity(i_from: Label, i_to: Label,
                       d_from: CapabilitySet = CapabilitySet.EMPTY,
                       d_to: CapabilitySet = CapabilitySet.EMPTY) -> bool:
    """True iff a sender with integrity ``i_from`` may write to a
    receiver requiring integrity ``i_to``.

    With both capability sets empty this is plain ``i_to ⊆ i_from``.
    """
    required = i_to - d_to.minus_tags            # endorsements receiver keeps
    return required <= (i_from | d_from.plus_tags)


def can_flow(s_from: Label, i_from: Label, s_to: Label, i_to: Label,
             d_from: CapabilitySet = CapabilitySet.EMPTY,
             d_to: CapabilitySet = CapabilitySet.EMPTY) -> bool:
    """Combined secrecy + integrity safe-message check."""
    return (can_flow_secrecy(s_from, s_to, d_from, d_to)
            and can_flow_integrity(i_from, i_to, d_from, d_to))


def check_flow(s_from: Label, i_from: Label, s_to: Label, i_to: Label,
               d_from: CapabilitySet = CapabilitySet.EMPTY,
               d_to: CapabilitySet = CapabilitySet.EMPTY,
               what: str = "message") -> None:
    """Raise :class:`SecrecyViolation` / :class:`IntegrityViolation`
    (with a diagnostic naming the offending tags) if the flow is unsafe.
    """
    if not can_flow_secrecy(s_from, s_to, d_from, d_to):
        leaked = (s_from - d_from.minus_tags) - (s_to | d_to.plus_tags)
        raise SecrecyViolation(
            f"{what}: secrecy tags {sorted(t.tag_id for t in leaked)} "
            f"would leak to an uncleared receiver")
    if not can_flow_integrity(i_from, i_to, d_from, d_to):
        missing = (i_to - d_to.minus_tags) - (i_from | d_from.plus_tags)
        raise IntegrityViolation(
            f"{what}: receiver requires integrity tags "
            f"{sorted(t.tag_id for t in missing)} the sender cannot vouch for")


def can_read(obj_s: Label, obj_i: Label, subj_s: Label, subj_i: Label,
             caps: CapabilitySet) -> bool:
    """True iff a subject at (``subj_s``, ``subj_i``) with ``caps`` may
    *read* an object labeled (``obj_s``, ``obj_i``).

    The storage read rule shared by files and rows (DESIGN.md §5):

    * secrecy: ``S_obj ⊆ S_subj`` extended only by fully-owned tags;
    * integrity: ``I_subj − D⁻ ⊆ I_obj`` (read-down waivable with w-).

    This is the single normative definition; the memoized
    :meth:`repro.labels.cache.FlowCache.readable` and
    :func:`repro.core.access.check_read` both delegate here.
    """
    readable_as = subj_s | caps.owned_tags()
    return (can_flow_secrecy(obj_s, readable_as)
            and can_flow_integrity(obj_i, subj_i, d_to=caps))


def can_write(obj_s: Label, obj_i: Label, subj_s: Label, subj_i: Label,
              caps: CapabilitySet) -> bool:
    """True iff a subject at (``subj_s``, ``subj_i``) with ``caps`` may
    *write* an object labeled (``obj_s``, ``obj_i``).

    * secrecy: ``S_subj − D⁻ ⊆ S_obj`` (write-down waivable with t-);
    * integrity: ``I_obj ⊆ I_subj ∪ D⁺`` (write privilege via w+).
    """
    return (can_flow_secrecy(subj_s, obj_s, d_from=caps)
            and can_flow_integrity(subj_i, obj_i, d_from=caps))


def label_change_allowed(old: Label, new: Label, caps: CapabilitySet) -> bool:
    """True iff ``caps`` authorizes changing a label from ``old`` to ``new``.

    Every added tag needs its ``+`` capability, every dropped tag its
    ``-`` capability.  This single rule serves both secrecy and
    integrity labels.
    """
    added = new - old
    dropped = old - new
    return added <= caps.plus_tags and dropped <= caps.minus_tags


def check_label_change(old: Label, new: Label, caps: CapabilitySet,
                       what: str = "label") -> None:
    """Raise :class:`CapabilityError` if the change is not authorized."""
    added = new - old
    dropped = old - new
    bad_add = added - caps.plus_tags
    if bad_add.tags():
        raise CapabilityError(
            f"{what}: missing '+' capability for tags "
            f"{sorted(t.tag_id for t in bad_add)}")
    bad_drop = dropped - caps.minus_tags
    if bad_drop.tags():
        raise CapabilityError(
            f"{what}: missing '-' capability for tags "
            f"{sorted(t.tag_id for t in bad_drop)}")


def reachable_secrecy_range(s: Label, caps: CapabilitySet) -> tuple[Label, Label]:
    """The (low, high) interval of secrecy labels reachable from ``s``.

    Used to validate endpoint declarations: an endpoint label is legal
    iff it lies within the owner's reachable interval.
    """
    low = s - caps.minus_tags
    high = s | caps.plus_tags
    return low, high


def endpoint_label_legal(declared: Label, process_label: Label,
                         caps: CapabilitySet) -> bool:
    """True iff ``declared`` is within capability reach of ``process_label``."""
    low, high = reachable_secrecy_range(process_label, caps)
    return low <= declared <= high


def exportable_tags(s: Label, caps: CapabilitySet) -> Label:
    """The subset of ``s`` the holder could *not* legally shed.

    Empty result means the holder could fully declassify the data and
    export it past an empty-label perimeter.
    """
    return s - caps.minus_tags


def owns_all(tags: Label, caps: CapabilitySet) -> bool:
    """True iff ``caps`` fully owns every tag in ``tags``."""
    return tags <= caps.owned_tags()


def tag_in_reach(tag: Tag, s: Label, caps: CapabilitySet) -> bool:
    """True iff the holder either carries ``tag`` or may add it."""
    return tag in s or caps.can_add(tag)
