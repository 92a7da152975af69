"""The W5 reference monitor.

``Kernel`` plays the role that Asbestos/HiStar/Flume play in the paper
(§3.1): the small trusted component that tracks labels "as data moves
inside of a machine, between machines, or to and from persistent
storage" (§2).  Every process state change and every message passes
through it; it consults :mod:`repro.labels.flow` for each decision and
records the decision in the audit log.

Design notes
------------

* **Endpoint discipline.**  Messages are checked between *declared
  endpoint labels* with exact subset tests.  Capabilities never apply
  silently at send time; they are spent explicitly, either by changing
  a label or by declaring an endpoint above/below the process label.
  (DESIGN.md §6 ablates this against raw process-label checks.)

* **Tag creation grants ownership.**  ``create_tag`` returns a fresh
  tag and endows the *creating process* with both capabilities — the
  Flume rule that bootstraps all delegation: the provider's login
  service creates Bob's tag, then hands the pieces to Bob's sessions
  and declassifiers as Bob directs.

* **Spawn is a flow.**  A child's initial labels and capabilities come
  from its parent, so spawning is checked like a message from parent to
  child; the capabilities granted must be a subset of the parent's.
  Provider services use ``spawn_trusted`` to bypass this (the provider
  is trusted by definition, §2).

* **Resource accounting.**  Every syscall charges the acting process
  through an optional :class:`ResourceManager` hook (see
  :mod:`repro.resources`), which is how §3.5's policing attaches.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Iterable, Optional

from ..labels import (Capability, CapabilitySet, FlowCache, Label,
                      SecrecyViolation, Tag, TagRegistry)
from ..obs import NULL_TRACER
from . import audit as A
from .audit import AuditLog
from .errors import (DeadProcess, EndpointMisuse, MailboxEmpty, NoSuchEndpoint,
                     NoSuchProcess)
from .ipc import Message
from .process import BOTH, RECV, SEND, Endpoint, Process

#: How many exited processes :meth:`Kernel.process` still resolves.
#: The table holds live processes only; a bounded ring of recent exits
#: keeps post-mortem lookups (exit value, final labels) working without
#: retaining one process per request served.  Kept small so most dead
#: processes are freed before the garbage collector's next young
#: collection: one that is promoted first and then freed from an older
#: generation offsets a new allocation, so the young generation grows
#: without triggering a collection and the later pause is longer.
EXITED_RING = 16

#: The engine planes (see :mod:`repro.platform.config`).
PLANES = ("fast", "oracle")


def check_plane(plane: str) -> str:
    """``plane``, if it is one of :data:`PLANES`; else ValueError."""
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r} "
                         f"(have {', '.join(PLANES)})")
    return plane


class ResourceHook:
    """Interface the kernel charges resources through.

    The default implementation is unlimited; :mod:`repro.resources`
    provides metered containers.  ``charge`` raises
    :class:`~repro.kernel.errors.ResourceExhausted` to refuse.
    """

    def charge(self, process: Process, kind: str, amount: float) -> None:
        """Charge ``amount`` units of ``kind`` to ``process``."""

    def charge_many(self, process: Process,
                    items: Iterable[tuple[str, float]]) -> None:
        """Charge several kinds at once, sequential-equivalent.

        An item ``(kind, n)`` stands for ``n`` unit charges, and the
        batch must behave exactly like that loop of unit charges: the
        first refused unit raises with every earlier unit applied.
        Metered hooks override this to do one usage lookup for the
        batch (M14); the unlimited default just loops.
        """
        for kind, amount in items:
            self.charge(process, kind, amount)

    def on_exit(self, process: Process) -> None:
        """Release accounting state for an exited process."""

    def on_recycle(self, process: Process) -> None:
        """Reset per-activation budgets for a process returning to the
        pool (see :mod:`repro.kernel.pool`).  Defaults to the exit
        path, which is correct for unlimited hooks."""
        self.on_exit(process)


class Kernel:
    """Process table + reference monitor + audit log.

    ``floating_labels`` selects the Asbestos-style alternative the
    Flume paper argues against: instead of refusing a send whose taint
    exceeds the receiver's endpoint, the receiver's secrecy label
    *floats up* to absorb it.  Every individual flow is still safe, but
    taint creeps monotonically through the system — the A1 ablation
    (``benchmarks/test_bench_a1_floating.py``) measures the creep.
    Production W5 uses the default, explicit-label mode.

    ``plane`` is the one engine switch, ``"fast"`` or ``"oracle"``:
    every component built on the kernel reads it for its engine.
    """

    def __init__(self, namespace: str = "w5",
                 resources: Optional[ResourceHook] = None,
                 floating_labels: bool = False,
                 flow_cache: Optional[FlowCache] = None,
                 audit_max_events: Optional[int] = None,
                 plane: str = "fast") -> None:
        self.plane = check_plane(plane)
        self.tags = TagRegistry(namespace=namespace)
        self.audit = AuditLog(max_events=audit_max_events,
                              lazy=plane == "fast")
        self.resources = resources or ResourceHook()
        self.floating_labels = floating_labels
        #: Memoized flow decisions, label transitions included (see
        #: repro.labels.cache).  Pass ``FlowCache(enabled=False)`` for a
        #: pass-through kernel; the differential tests compare the two
        #: on identical histories.
        self.flow_cache = flow_cache if flow_cache is not None else FlowCache()
        #: App-process recycling (see repro.kernel.pool).
        from .pool import ProcessPool
        self.pool = ProcessPool(self)
        #: Request tracer (see repro.obs).  The shared NULL_TRACER by
        #: default: `tracer.enabled` is the one-attribute-load guard
        #: hot paths use, and `tracer.span(...)` returns a no-op span,
        #: so instrumentation sites never need None checks.  The
        #: provider installs a live Tracer when tracing is on.
        self.tracer = NULL_TRACER
        self._pids = itertools.count(1)
        self._procs: dict[int, Process] = {}
        self._exited: deque[Process] = deque(maxlen=EXITED_RING)
        #: endpoint_id -> (pid, Endpoint), a global routing table
        self._endpoints: dict[int, tuple[int, Endpoint]] = {}

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def spawn_trusted(self, name: str, slabel: Label = Label.EMPTY,
                      ilabel: Label = Label.EMPTY,
                      caps: CapabilitySet = CapabilitySet.EMPTY,
                      owner_user: Optional[str] = None) -> Process:
        """Create a process with arbitrary initial state.

        Only provider code calls this (login service, gateway,
        launcher); developer code must go through :meth:`spawn`.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("kernel.spawn", process=name, trusted=True):
                return self._spawn_trusted(name, slabel, ilabel, caps,
                                           owner_user)
        return self._spawn_trusted(name, slabel, ilabel, caps, owner_user)

    def _spawn_trusted(self, name: str, slabel: Label, ilabel: Label,
                       caps: CapabilitySet,
                       owner_user: Optional[str]) -> Process:
        proc = Process(next(self._pids), name, slabel, ilabel, caps,
                       owner_user=owner_user)
        self._procs[proc.pid] = proc
        self.audit.record_lazy(A.SPAWN, True, "provider",
                               "trusted spawn %r pid=%d", (name, proc.pid),
                               {"pid": proc.pid})
        return proc

    def spawn(self, parent: Process, name: str,
              slabel: Optional[Label] = None,
              ilabel: Optional[Label] = None,
              grant: CapabilitySet = CapabilitySet.EMPTY,
              owner_user: Optional[str] = None) -> Process:
        """Spawn a child on behalf of ``parent``.

        The child's initial labels default to the parent's.  The grant
        must be a subset of the parent's capabilities, and handing the
        child its initial state must be a legal flow from the parent.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("kernel.spawn", process=name,
                             parent=parent.name):
                return self._spawn(parent, name, slabel, ilabel, grant,
                                   owner_user)
        return self._spawn(parent, name, slabel, ilabel, grant, owner_user)

    def _spawn(self, parent: Process, name: str,
               slabel: Optional[Label], ilabel: Optional[Label],
               grant: CapabilitySet,
               owner_user: Optional[str]) -> Process:
        self._require_alive(parent)
        self.resources.charge(parent, "processes", 1)
        child_s = parent.slabel if slabel is None else slabel
        child_i = parent.ilabel if ilabel is None else ilabel
        if not grant <= parent.caps:
            self.audit.record(A.SPAWN, False, parent.name,
                              f"spawn {name!r}: grant exceeds parent capabilities")
            from ..labels import CapabilityError
            raise CapabilityError(
                f"spawn {name!r}: cannot grant capabilities the parent lacks")
        try:
            self.flow_cache.check_flow(parent.slabel, parent.ilabel,
                                       child_s, child_i,
                                       d_from=parent.caps, d_to=grant,
                                       what=f"spawn {name!r}",
                                       category="spawn")
        except Exception:
            self.audit.record(A.SPAWN, False, parent.name,
                              f"spawn {name!r}: initial labels unreachable")
            raise
        child = Process(next(self._pids), name, child_s, child_i, grant,
                        owner_user=owner_user or parent.owner_user)
        self._procs[child.pid] = child
        self.audit.record(A.SPAWN, True, parent.name,
                          f"spawn {name!r} pid={child.pid}", pid=child.pid)
        return child

    def exit(self, process: Process, value: Any = None) -> None:
        """Terminate ``process``, closing its endpoints.

        The process leaves the table for the ring of recent exits, and
        the resource hook folds its usage into per-name history, so
        kernel state grows with live processes, not requests served.
        """
        if not process.alive:
            return
        process.alive = False
        process.exit_value = value
        self._procs.pop(process.pid, None)
        self._exited.append(process)
        for ep in process.endpoints.values():
            ep.closed = True
            self._endpoints.pop(ep.endpoint_id, None)
        self.resources.on_exit(process)
        self.audit.record_lazy(A.EXIT, True, process.name,
                               "exit pid=%d", (process.pid,),
                               {"pid": process.pid})

    def process(self, pid: int) -> Process:
        """Look up a process by pid: live, or among the last
        :data:`EXITED_RING` exited."""
        proc = self._procs.get(pid)
        if proc is not None:
            return proc
        for proc in reversed(self._exited):
            if proc.pid == pid:
                return proc
        raise NoSuchProcess(f"pid {pid}")

    def processes(self) -> list[Process]:
        """The live processes (pooled idle ones included)."""
        return list(self._procs.values())

    # ------------------------------------------------------------------
    # tags and labels
    # ------------------------------------------------------------------

    def create_tag(self, process: Process, purpose: str = "",
                   kind: str = "secrecy",
                   tag_owner: Optional[str] = None) -> Tag:
        """Mint a tag; the creator receives full ownership of it."""
        self._require_alive(process)
        self.resources.charge(process, "tags", 1)
        tag = self.tags.create(purpose=purpose, kind=kind,
                               owner=tag_owner or process.owner_user)
        process.caps = CapabilitySet.owning(tag) | process.caps
        self.audit.record(A.TAG_CREATE, True, process.name,
                          f"create tag {tag.tag_id} ({purpose})",
                          tag_id=tag.tag_id)
        return tag

    def change_label(self, process: Process, *, secrecy: Optional[Label] = None,
                     integrity: Optional[Label] = None) -> list[Endpoint]:
        """Explicitly change the process's labels.

        Raises :class:`~repro.labels.CapabilityError` unless every
        added tag has its ``+`` and every dropped tag its ``-`` in the
        process's capability set.  Endpoints that fall out of reach are
        force-closed; the closed list is returned so callers can react.
        """
        self._require_alive(process)
        self.resources.charge(process, "syscalls", 1)
        try:
            self.flow_cache.check_label_change(
                process.slabel, secrecy, process.ilabel, integrity,
                process.caps, subject=process.name)
        except Exception:
            self.audit.record(A.LABEL_CHANGE, False, process.name,
                              "label change refused")
            raise
        if secrecy is not None:
            process.slabel = secrecy
        if integrity is not None:
            process.ilabel = integrity
        if process.endpoints:
            closed = process.revalidate_endpoints(cache=self.flow_cache)
            for ep in closed:
                self._endpoints.pop(ep.endpoint_id, None)
        else:
            closed = []
        self.audit.record_lazy(A.LABEL_CHANGE, True, process.name,
                               "S=%r I=%r",
                               (process.slabel, process.ilabel))
        return closed

    def drop_caps(self, process: Process, caps: Iterable[Capability]) -> None:
        """Irrevocably discard capabilities (attenuation is always legal)."""
        self._require_alive(process)
        process.caps = process.caps.revoke(*caps)
        self.audit.record(A.GRANT, True, process.name, "dropped capabilities")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def create_endpoint(self, process: Process, *,
                        slabel: Optional[Label] = None,
                        ilabel: Optional[Label] = None,
                        direction: str = BOTH, name: str = "") -> Endpoint:
        """Declare an endpoint; labels default to the process's own.

        Declaring a label different from the process label is the
        *only* way capabilities affect communication, and it is loud:
        an audit event names the declared labels.
        """
        self._require_alive(process)
        self.resources.charge(process, "endpoints", 1)
        if direction not in (SEND, RECV, BOTH):
            raise EndpointMisuse(f"bad endpoint direction {direction!r}")
        ep = Endpoint(owner_pid=process.pid,
                      slabel=process.slabel if slabel is None else slabel,
                      ilabel=process.ilabel if ilabel is None else ilabel,
                      direction=direction, name=name)
        if not process.endpoint_legal(ep, cache=self.flow_cache):
            self.audit.record(A.ENDPOINT, False, process.name,
                              f"endpoint {name!r} outside capability reach")
            raise SecrecyViolation(
                f"endpoint {name!r}: declared labels outside the "
                f"capability reach of {process.name}")
        process.endpoints[ep.endpoint_id] = ep
        self._endpoints[ep.endpoint_id] = (process.pid, ep)
        self.audit.record(A.ENDPOINT, True, process.name,
                          f"endpoint {name!r} #{ep.endpoint_id} dir={direction}",
                          endpoint_id=ep.endpoint_id)
        return ep

    def close_endpoint(self, process: Process, ep: Endpoint) -> None:
        if ep.owner_pid != process.pid:
            raise EndpointMisuse("cannot close another process's endpoint")
        ep.closed = True
        process.endpoints.pop(ep.endpoint_id, None)
        self._endpoints.pop(ep.endpoint_id, None)

    def endpoint(self, endpoint_id: int) -> Endpoint:
        try:
            return self._endpoints[endpoint_id][1]
        except KeyError:
            raise NoSuchEndpoint(f"endpoint {endpoint_id}") from None

    # ------------------------------------------------------------------
    # IPC
    # ------------------------------------------------------------------

    def send(self, sender: Process, from_ep: Endpoint, to_ep: Endpoint,
             payload: Any, grant: CapabilitySet = CapabilitySet.EMPTY,
             topic: str = "") -> Message:
        """Send ``payload`` from one endpoint to another.

        The flow check is *exact* between the declared endpoint labels:
        ``S_from ⊆ S_to`` and ``I_to ⊆ I_from``.  Delegated
        capabilities must be a subset of the sender's.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("kernel.send", sender=sender.name,
                             topic=topic):
                return self._send(sender, from_ep, to_ep, payload, grant,
                                  topic)
        return self._send(sender, from_ep, to_ep, payload, grant, topic)

    def _send(self, sender: Process, from_ep: Endpoint, to_ep: Endpoint,
              payload: Any, grant: CapabilitySet, topic: str) -> Message:
        self._require_alive(sender)
        self.resources.charge(sender, "messages", 1)
        if from_ep.owner_pid != sender.pid:
            raise EndpointMisuse("sending from an endpoint the sender does not own")
        if not from_ep.can_send():
            raise EndpointMisuse(f"endpoint #{from_ep.endpoint_id} cannot send")
        if to_ep.closed or to_ep.endpoint_id not in self._endpoints:
            raise NoSuchEndpoint(f"endpoint {to_ep.endpoint_id} is closed")
        if not to_ep.can_recv():
            raise EndpointMisuse(f"endpoint #{to_ep.endpoint_id} cannot receive")
        recipient = self.process(to_ep.owner_pid)
        if not recipient.alive:
            raise DeadProcess(f"recipient pid {recipient.pid} has exited")
        if not grant <= sender.caps:
            self.audit.record(A.GRANT, False, sender.name,
                              "grant exceeds sender capabilities")
            from ..labels import CapabilityError
            raise CapabilityError("cannot delegate capabilities the sender lacks")
        if self.floating_labels:
            # Asbestos-style: secrecy is tracked on *process* labels
            # (endpoints play no secrecy role in this mode), and the
            # receiver absorbs the sender's taint instead of refusing.
            # Integrity is still checked (floating integrity *down*
            # would forge endorsements).
            overflow = sender.slabel - recipient.slabel
            if overflow.tags():
                recipient.slabel = recipient.slabel | overflow
                for ep in recipient.endpoints.values():
                    ep.slabel = ep.slabel | overflow
                self.audit.record(
                    A.LABEL_CHANGE, True, recipient.name,
                    f"floated up by {len(overflow)} tags from "
                    f"{sender.name}")
            try:
                self.flow_cache.check_flow(
                    Label.EMPTY, from_ep.ilabel, Label.EMPTY, to_ep.ilabel,
                    what=f"send {sender.name}->{recipient.name}",
                    category="ipc")
            except Exception:
                self.audit.record(A.SEND, False, sender.name,
                                  f"-> {recipient.name} refused")
                raise
        else:
            try:
                self.flow_cache.check_flow(
                    from_ep.slabel, from_ep.ilabel,
                    to_ep.slabel, to_ep.ilabel,
                    what=f"send {sender.name}->{recipient.name}",
                    category="ipc")
            except Exception:
                self.audit.record(A.SEND, False, sender.name,
                                  f"-> {recipient.name} topic={topic!r} refused")
                raise
        msg = Message(sender_pid=sender.pid,
                      sender_endpoint=from_ep.endpoint_id,
                      recipient_pid=recipient.pid,
                      recipient_endpoint=to_ep.endpoint_id,
                      payload=payload, slabel=from_ep.slabel,
                      ilabel=from_ep.ilabel, granted=grant, topic=topic)
        recipient.mailbox.append(msg)
        self.audit.record(A.SEND, True, sender.name,
                          f"-> {recipient.name} topic={topic!r}",
                          message_id=msg.message_id)
        return msg

    def receive(self, process: Process, endpoint: Optional[Endpoint] = None,
                topic: Optional[str] = None) -> Message:
        """Pop the oldest deliverable message; apply delegated caps.

        ``endpoint``/``topic`` filter the mailbox.  Raises
        :class:`MailboxEmpty` if nothing matches.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("kernel.receive", process=process.name):
                return self._receive(process, endpoint, topic)
        return self._receive(process, endpoint, topic)

    def _receive(self, process: Process, endpoint: Optional[Endpoint],
                 topic: Optional[str]) -> Message:
        self._require_alive(process)
        self.resources.charge(process, "syscalls", 1)
        for i, msg in enumerate(process.mailbox):
            if endpoint is not None and msg.recipient_endpoint != endpoint.endpoint_id:
                continue
            if topic is not None and msg.topic != topic:
                continue
            del process.mailbox[i]
            if len(msg.granted):
                process.caps = process.caps | msg.granted
                self.audit.record(A.GRANT, True, process.name,
                                  f"received {len(msg.granted)} capabilities")
            self.audit.record(A.RECEIVE, True, process.name,
                              f"<- pid {msg.sender_pid} topic={msg.topic!r}",
                              message_id=msg.message_id)
            return msg
        raise MailboxEmpty(f"{process.name}: no matching message")

    def pending(self, process: Process, topic: Optional[str] = None) -> int:
        """Number of queued messages (optionally for one topic)."""
        self._require_alive(process)
        self.resources.charge(process, "syscalls", 1)
        if topic is None:
            return len(process.mailbox)
        return sum(1 for m in process.mailbox if m.topic == topic)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _require_alive(self, process: Process) -> None:
        if not process.alive:
            raise DeadProcess(f"pid {process.pid} ({process.name}) has exited")

    def syscalls_for(self, process: Process) -> "W5Syscalls":
        """The confined API handed to application code."""
        cls = _w5_syscalls_cls()
        return cls(self, process)


_W5_SYSCALLS_CLS = None


def _w5_syscalls_cls():
    # Imported lazily (circular import with .syscalls) but resolved
    # only once; syscalls_for runs on every request.
    global _W5_SYSCALLS_CLS
    if _W5_SYSCALLS_CLS is None:
        from .syscalls import W5Syscalls
        _W5_SYSCALLS_CLS = W5Syscalls
    return _W5_SYSCALLS_CLS
