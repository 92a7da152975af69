"""Shared access guards for labeled persistent objects.

Files (:mod:`repro.fs`) and database rows (:mod:`repro.db`) enforce
identical read/write rules; both delegate here so storage backends can
never disagree about policy.  The rules themselves live in
:func:`repro.labels.flow.can_read` / :func:`~repro.labels.flow.can_write`
(the single normative definition; see DESIGN.md §5) — this module adds
the subject-object calling convention, the raising variants with
precise diagnostics, and the optional fast path through the kernel's
:class:`~repro.labels.FlowCache`.

Every ``check_*`` takes an optional ``cache``: when given, a cached
*allow* returns immediately, and a *deny* falls through to the uncached
derivation so the exception (which names the offending labels) is
byte-identical to a cache-free run.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import Process
from ..labels import (FlowCache, Label, WriteIntegrityViolation,
                      WriteSecrecyViolation, can_flow_integrity,
                      can_flow_secrecy, can_read, can_write)
from ..labels.errors import IntegrityViolation, SecrecyViolation


def readable(process: Process, slabel: Label, ilabel: Label,
             cache: Optional[FlowCache] = None,
             category: str = "read") -> bool:
    """True iff ``process`` may read an object labeled (slabel, ilabel).

    * secrecy: ``S_obj ⊆ S_p`` extended only by fully-owned tags;
    * integrity: ``I_p − D⁻_p ⊆ I_obj`` (read-down waivable with w-).
    """
    if cache is not None:
        return cache.readable(process, slabel, ilabel, category=category)
    return can_read(slabel, ilabel, process.slabel, process.ilabel,
                    process.caps)


def writable(process: Process, slabel: Label, ilabel: Label,
             cache: Optional[FlowCache] = None,
             category: str = "write") -> bool:
    """True iff ``process`` may write an object labeled (slabel, ilabel).

    * secrecy: ``S_p − D⁻_p ⊆ S_obj`` (write-down waivable with t-);
    * integrity: ``I_obj ⊆ I_p ∪ D⁺_p`` (write privilege claimed with w+).
    """
    if cache is not None:
        return cache.writable(process, slabel, ilabel, category=category)
    return can_write(slabel, ilabel, process.slabel, process.ilabel,
                     process.caps)


def readable_pairs(process: Process,
                   pairs: "list[tuple[Label, Label]]",
                   cache: Optional[FlowCache] = None,
                   category: str = "read"
                   ) -> dict[tuple[Label, Label], bool]:
    """Batch form of :func:`readable`: one verdict per distinct
    ``(slabel, ilabel)`` pair.

    The grouped directory walk resolves visibility once per distinct
    child label through this helper, so a listing's label cost scales
    with distinct label pairs rather than entries.  With a cache the
    whole batch rides the verdict entry of the process's label state
    (:meth:`~repro.labels.FlowCache.readable_many`).
    """
    if cache is not None:
        return cache.readable_many(process, pairs, category=category)
    return {key: can_read(key[0], key[1], process.slabel, process.ilabel,
                          process.caps)
            for key in pairs}


def check_read(process: Process, slabel: Label, ilabel: Label,
               what: str, cache: Optional[FlowCache] = None,
               category: str = "read") -> None:
    """Raise the precise violation if ``process`` may not read."""
    if cache is not None and cache.readable(process, slabel, ilabel,
                                            category=category):
        return
    readable_as = process.slabel | process.caps.owned_tags()
    if not can_flow_secrecy(slabel, readable_as):
        raise SecrecyViolation(
            f"{process.name} cannot read {what}: object secrecy "
            f"{slabel!r} exceeds process secrecy {process.slabel!r}")
    if not can_flow_integrity(ilabel, process.ilabel, d_to=process.caps):
        raise IntegrityViolation(
            f"{process.name} requires integrity {process.ilabel!r} "
            f"but {what} only has {ilabel!r}")


def check_write(process: Process, slabel: Label, ilabel: Label,
                what: str, cache: Optional[FlowCache] = None,
                category: str = "write") -> None:
    """Raise the precise violation if ``process`` may not write.

    Write denials raise the :class:`~repro.errors.WriteDenied` family
    (still subclasses of the historical secrecy/integrity violations).
    """
    if cache is not None and cache.writable(process, slabel, ilabel,
                                            category=category):
        return
    if not can_flow_secrecy(process.slabel, slabel, d_from=process.caps):
        raise WriteSecrecyViolation(
            f"{process.name} (secrecy {process.slabel!r}) cannot write "
            f"down into {what} (secrecy {slabel!r})")
    if not can_flow_integrity(process.ilabel, ilabel, d_from=process.caps):
        raise WriteIntegrityViolation(
            f"{process.name} lacks the write privilege for {what}: "
            f"object requires integrity {ilabel!r}")
