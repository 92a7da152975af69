"""Batched inter-provider envelopes (M15).

Federated sync moves user data between providers.  The naive mover
ships every file as its own read/compare/write round trip; at
production corpus sizes that is O(corpus) latency per round.  This
module is the transport half of the fix:

* an :class:`Envelope` names one unit of transfer (a file or a row)
  and carries its payload;
* an :class:`EnvelopeChannel` is one direction of one provider link:
  :meth:`EnvelopeChannel.transfer_batch` applies a whole batch of
  dirty envelopes through a single destination-side applier call —
  one agent, one pass — instead of N independent round trips, and
  counts what it moved.

Which envelopes a round ships is the reconciler's decision
(``repro.federation.delta``): it compares current content on both
sides, so the transport keeps no memory of what it already sent.  The
transport is deliberately policy-free: envelopes are built and applied
by agents that hold exactly the linked user's authority on each side,
so every byte still moves through the reference monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["Envelope", "EnvelopeChannel"]


@dataclass(frozen=True, slots=True)
class Envelope:
    """One unit of inter-provider transfer.

    ``kind`` is ``"file"`` or ``"row"``; ``key`` names the destination
    slot (a path, or a table name — rows are append-only so the key is
    not unique per row).
    """

    kind: str
    key: str
    payload: Any

    def approx_bytes(self) -> int:
        payload = self.payload
        if isinstance(payload, bytes):
            return len(payload)
        if isinstance(payload, str):
            return len(payload.encode("utf-8", "surrogatepass"))
        return len(repr(payload))


class EnvelopeChannel:
    """One direction of a provider link's transport."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = {"envelopes_sent": 0, "bytes_moved": 0, "batches": 0}

    def transfer_batch(self, envelopes: Iterable[Envelope],
                       apply: Callable[[Envelope], None],
                       tracer: Optional[Any] = None,
                       ctx: Optional[tuple] = None,
                       graft: Optional[Callable[[str, dict], None]] = None,
                       ) -> int:
        """Apply a batch of envelopes on the destination in one pass.

        ``apply`` runs destination-side with the linked user's agent
        already checked out; a ``fed.envelope`` span wraps the whole
        batch when the destination provider (``tracer``) is tracing.
        When the destination is a *different* provider from the one
        holding the ``fed.sync`` root, ``ctx`` carries that root's
        :class:`~repro.obs.TraceContext` across the link: the
        destination opens ``fed.envelope`` as its own root, the
        resulting skeleton is handed to ``graft`` so the sync side can
        stitch it under ``fed.sync``, and the destination's sampling
        decision follows the origin's (one fold decision per sync).
        Returns the number of envelopes applied.
        """
        batch = list(envelopes)
        if not batch:
            return 0
        self.stats["batches"] += 1
        if tracer is None or not tracer.enabled:
            self._apply_batch(batch, apply)
        elif tracer.current is not None or ctx is None:
            # Same-provider destination (or no propagated context):
            # nest directly under whatever span is open here.
            with tracer.span("fed.envelope", channel=self.name,
                             n=len(batch)):
                self._apply_batch(batch, apply)
        else:
            from ..obs.fleet import RemoteCapture
            from ..obs.trace import TraceContext
            with RemoteCapture(tracer, TraceContext(*ctx)) as capture:
                with tracer.request("fed.envelope", channel=self.name,
                                    n=len(batch)):
                    self._apply_batch(batch, apply)
            if graft is not None:
                for skeleton in capture.skeletons:
                    graft(self.name, skeleton)
        return len(batch)

    def _apply_batch(self, batch: list[Envelope],
                     apply: Callable[[Envelope], None]) -> None:
        for envelope in batch:
            apply(envelope)
            self.stats["envelopes_sent"] += 1
            self.stats["bytes_moved"] += envelope.approx_bytes()
