"""Shared access guards for labeled persistent objects.

Files (:mod:`repro.fs`) and database rows (:mod:`repro.db`) enforce
identical read/write rules; both delegate here so storage backends can
never disagree about policy.  The rules themselves live in
:func:`repro.labels.flow.can_read` / :func:`~repro.labels.flow.can_write`
(the single normative definition; see DESIGN.md §5), and the
non-raising verdicts are the kernel's
:meth:`FlowCache.readable <repro.labels.FlowCache.readable>` and
:meth:`~repro.labels.FlowCache.writable`.  This module adds the
raising variants with precise diagnostics.

Every ``check_*`` takes the kernel's ``cache``: a cached *allow*
returns immediately, and a *deny* falls through to the uncached
derivation so the exception (which names the offending labels) is
byte-identical to a cache-free run.
"""

from __future__ import annotations

from ..kernel import Process
from ..labels import (FlowCache, Label, WriteIntegrityViolation,
                      WriteSecrecyViolation, can_flow_integrity,
                      can_flow_secrecy)
from ..labels.errors import IntegrityViolation, SecrecyViolation


def check_read(process: Process, slabel: Label, ilabel: Label,
               what: str, cache: FlowCache,
               category: str = "read") -> None:
    """Raise the precise violation if ``process`` may not read."""
    if cache.readable(process, slabel, ilabel, category=category):
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
                what: str, cache: FlowCache,
                category: str = "write") -> None:
    """Raise the precise violation if ``process`` may not write.

    Write denials raise the :class:`~repro.errors.WriteDenied` family
    (still subclasses of the historical secrecy/integrity violations).
    """
    if cache.writable(process, slabel, ilabel, category=category):
        return
    if not can_flow_secrecy(process.slabel, slabel, d_from=process.caps):
        raise WriteSecrecyViolation(
            f"{process.name} (secrecy {process.slabel!r}) cannot write "
            f"down into {what} (secrecy {slabel!r})")
    if not can_flow_integrity(process.ilabel, ilabel, d_from=process.caps):
        raise WriteIntegrityViolation(
            f"{process.name} lacks the write privilege for {what}: "
            f"object requires integrity {ilabel!r}")
