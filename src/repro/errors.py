"""The unified W5 exception hierarchy.

Historically each layer grew its own exception tree — labels, kernel,
filesystem, database, platform — which forced callers that only care
about "the platform said no" or "that thing does not exist" to name
five unrelated base classes.  This module defines the common roots;
every layer's existing exception classes now derive from them (the old
names remain, as the very same classes, so existing ``except`` sites
keep working unchanged).

The families:

* :class:`W5Error` — root of everything the reproduction raises on
  purpose.  ``except W5Error`` is "the platform refused or failed",
  as distinct from a bug.
* :class:`FlowDenied` — the reference monitor (or a policy layer atop
  it) said no: secrecy/integrity violations, missing capabilities,
  authorization failures.  Catching this is catching "denied", without
  caring which rule fired.
* :class:`WriteDenied` — the write-path subfamily of
  :class:`FlowDenied`: a mutation was refused (no-write-down, missing
  write privilege).  Raised via the ``Write*`` subclasses below, which
  also remain ``SecrecyViolation``/``IntegrityViolation`` instances so
  historical handlers see no difference.
* :class:`NotFound` — a named entity (process, endpoint, path, table,
  row, user, app) does not exist *from the caller's point of view*.
  Label-filtered layers deliberately raise the same class for
  "missing" and "invisible", so ``except NotFound`` is covert-channel
  safe by construction.

Layer bases (``LabelError``, ``KernelError``, ``FsError``, ``DbError``,
``PlatformError``) still exist for callers that want to scope a handler
to one subsystem.
"""

from __future__ import annotations


class W5Error(Exception):
    """Root of all deliberate W5 refusals and failures."""


class FlowDenied(W5Error):
    """An information-flow or authorization decision came back *deny*."""


class WriteDenied(FlowDenied):
    """A mutation was refused (write-down, missing write privilege)."""


class NotFound(W5Error):
    """A named entity does not exist (or is invisible to the caller)."""


class ShardDown(W5Error):
    """A shard's worker is gone (a forked child died or closed its
    pipe), so a request or control call routed to it cannot complete.
    ``shard`` names the dead shard."""

    def __init__(self, shard: int, reason: str = "") -> None:
        self.shard = shard
        super().__init__(f"shard {shard} is down"
                         + (f": {reason}" if reason else ""))


__all__ = ["W5Error", "FlowDenied", "WriteDenied", "NotFound",
           "ShardDown"]
