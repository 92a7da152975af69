"""Processes and endpoints: the kernel's subjects.

A :class:`Process` is the unit of confinement — one running instance of
a developer-contributed module, a declassifier, or a provider service.
Its mutable security state (secrecy label, integrity label, capability
set) may only be changed through kernel syscalls, which enforce the
label-change rules.

Following Flume, all communication happens through :class:`Endpoint`\\ s
with *declared* labels.  An endpoint must at all times be within the
capability-reach of its process's labels; messages are then checked
endpoint-to-endpoint with *exact* subset comparisons.  This discipline
is what lets a process hold a powerful capability (say, Bob's ``t-``)
while still being unable to leak accidentally through channels it did
not explicitly mark for declassification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from ..labels import CapabilitySet, Label, endpoint_label_legal

if TYPE_CHECKING:  # pragma: no cover
    from .ipc import Message

#: Endpoint directions.
SEND = "send"
RECV = "recv"
BOTH = "both"

_endpoint_ids = itertools.count(1)


@dataclass
class Endpoint:
    """A communication port with declared secrecy/integrity labels.

    ``slabel``/``ilabel`` are what the *kernel* uses for every flow
    check through this endpoint.  They default to the owner's labels at
    creation time but may be declared anywhere within capability reach,
    which is how a declassifier pokes a controlled hole: it declares a
    send endpoint *below* its own secrecy label, spending its ``t-``.
    """

    owner_pid: int
    slabel: Label
    ilabel: Label
    direction: str = BOTH
    name: str = ""
    endpoint_id: int = field(default_factory=lambda: next(_endpoint_ids))
    closed: bool = False

    def can_send(self) -> bool:
        return not self.closed and self.direction in (SEND, BOTH)

    def can_recv(self) -> bool:
        return not self.closed and self.direction in (RECV, BOTH)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Endpoint(#{self.endpoint_id} {self.name or 'anon'} "
                f"pid={self.owner_pid} dir={self.direction})")


class Process:
    """A confined subject: labels, capabilities, endpoints, mailbox.

    Application code never holds a ``Process`` directly — it gets a
    :class:`~repro.kernel.syscalls.W5Syscalls` facade bound to one, and
    the kernel mediates every state change.  The attributes here are
    "hardware registers": reading them is harmless, writing them from
    outside the kernel is out of scope of the threat model (it would
    correspond to breaking out of the OS in a real deployment).
    """

    # one allocation and, once reaped, one free per tainted request
    __slots__ = ("pid", "name", "slabel", "ilabel", "caps", "owner_user",
                 "alive", "exit_value", "endpoints", "mailbox", "locals")

    def __init__(self, pid: int, name: str, slabel: Label, ilabel: Label,
                 caps: CapabilitySet, owner_user: Optional[str] = None) -> None:
        self.pid = pid
        self.name = name
        #: The label state.  The flow cache keys its storage verdicts
        #: on the values ``(slabel, ilabel, caps)``, not on the pid, so
        #: a verdict can never outlive the state it was computed under,
        #: even if trusted code assigns these directly instead of going
        #: through a kernel syscall.
        self.slabel = slabel
        self.ilabel = ilabel
        self.caps = caps
        #: The end-user on whose behalf this process runs (audit only).
        self.owner_user = owner_user
        self.alive = True
        self.exit_value: Any = None
        self.endpoints: dict[int, Endpoint] = {}
        #: A list, not a deque: mailboxes hold a message or two, and an
        #: empty deque costs 760 bytes on every spawn.
        self.mailbox: list["Message"] = []
        #: Scratch space for application state; invisible to the kernel.
        self.locals: dict[str, Any] = {}

    # -- endpoint bookkeeping (kernel-internal) ---------------------------

    def endpoint_legal(self, ep: Endpoint, cache=None) -> bool:
        """Check ``ep``'s declared labels against this process's reach.

        Secrecy endpoints must lie in ``[S − D⁻, S ∪ D⁺]``; integrity
        endpoints dually must lie in ``[I − D⁻, I ∪ D⁺]`` (an endpoint
        may not claim integrity the process could not claim).

        ``cache`` is the kernel's :class:`~repro.labels.FlowCache`;
        when given, the (pure, immutable-input) reach check is memoized.
        """
        if cache is not None:
            return cache.endpoint_legal(ep.slabel, ep.ilabel,
                                        self.slabel, self.ilabel, self.caps)
        return (endpoint_label_legal(ep.slabel, self.slabel, self.caps)
                and endpoint_label_legal(ep.ilabel, self.ilabel, self.caps))

    def revalidate_endpoints(self, cache=None) -> list[Endpoint]:
        """After a label change, close any endpoint that fell out of
        reach.  Returns the endpoints that were closed.

        Flume refuses label changes that would orphan an endpoint; we
        adopt the gentler-but-equally-safe variant of force-closing
        them, which keeps application code simpler while preserving the
        invariant that every *usable* endpoint is within reach.
        """
        closed = []
        for ep in self.endpoints.values():
            if not ep.closed and not self.endpoint_legal(ep, cache=cache):
                ep.closed = True
                closed.append(ep)
        return closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "alive" if self.alive else "dead"
        return f"Process(pid={self.pid} {self.name!r} {status})"
