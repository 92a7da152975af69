"""The syscall facade handed to developer-contributed code.

The paper says developers "must code to the API exposed by the W5
platform" and suggests the Unix syscall API "fits the bill" (§2).
``W5Syscalls`` is that API for this reproduction: a thin, *unprivileged*
binding of (kernel, process).  Application code receives only this
object — never the kernel or its own ``Process`` — so every effect it
can have on the world is a checked syscall.

File and database access are grafted on by the platform layer (see
:mod:`repro.fs` and :mod:`repro.db`), which bind label-checked views of
the stores to the same process.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..labels import Capability, CapabilitySet, Label, Tag
from .ipc import Message
from .process import BOTH, Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process


class W5Syscalls:
    """Per-process syscall interface (the only handle apps get)."""

    def __init__(self, kernel: "Kernel", process: "Process") -> None:
        self._kernel = kernel
        self._process = process

    # -- introspection (safe: a process may always inspect itself) -------

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def name(self) -> str:
        return self._process.name

    def my_secrecy(self) -> Label:
        return self._process.slabel

    def my_integrity(self) -> Label:
        return self._process.ilabel

    def my_caps(self) -> CapabilitySet:
        return self._process.caps

    def locals(self) -> dict[str, Any]:
        """Process-private scratch storage."""
        return self._process.locals

    # -- tags and labels ---------------------------------------------------

    def create_tag(self, purpose: str = "", kind: str = "secrecy") -> Tag:
        return self._kernel.create_tag(self._process, purpose=purpose, kind=kind)

    def change_label(self, *, secrecy: Optional[Label] = None,
                     integrity: Optional[Label] = None) -> None:
        self._kernel.change_label(self._process, secrecy=secrecy,
                                  integrity=integrity)

    def raise_secrecy(self, *tags: Tag) -> None:
        """Convenience: add tags to the secrecy label (needs ``t+``)."""
        kernel, process = self._kernel, self._process
        kernel.change_label(process, secrecy=kernel.flow_cache.label_add(
            process.slabel, tags))

    def lower_secrecy(self, *tags: Tag) -> None:
        """Convenience: drop tags from the secrecy label (needs ``t-``)."""
        self.change_label(secrecy=self._process.slabel.remove(*tags))

    def drop_caps(self, *caps: Capability) -> None:
        self._kernel.drop_caps(self._process, caps)

    # -- endpoints and IPC ------------------------------------------------

    def create_endpoint(self, *, slabel: Optional[Label] = None,
                        ilabel: Optional[Label] = None,
                        direction: str = BOTH, name: str = "") -> Endpoint:
        return self._kernel.create_endpoint(
            self._process, slabel=slabel, ilabel=ilabel,
            direction=direction, name=name)

    def close_endpoint(self, ep: Endpoint) -> None:
        self._kernel.close_endpoint(self._process, ep)

    def send(self, from_ep: Endpoint, to_ep: Endpoint, payload: Any,
             grant: CapabilitySet = CapabilitySet.EMPTY,
             topic: str = "") -> Message:
        return self._kernel.send(self._process, from_ep, to_ep, payload,
                                 grant=grant, topic=topic)

    def receive(self, endpoint: Optional[Endpoint] = None,
                topic: Optional[str] = None) -> Message:
        return self._kernel.receive(self._process, endpoint=endpoint,
                                    topic=topic)

    def pending(self, topic: Optional[str] = None) -> int:
        return self._kernel.pending(self._process, topic=topic)

    # -- process management -------------------------------------------------

    def spawn(self, name: str, slabel: Optional[Label] = None,
              ilabel: Optional[Label] = None,
              grant: CapabilitySet = CapabilitySet.EMPTY) -> "W5Syscalls":
        """Spawn a child and return *its* syscall handle."""
        child = self._kernel.spawn(self._process, name, slabel=slabel,
                                   ilabel=ilabel, grant=grant)
        return W5Syscalls(self._kernel, child)

    def exit(self, value: Any = None) -> None:
        self._kernel.exit(self._process, value)
