"""Covert-channel measurement harness (§3.5).

"Covert channels are a way to leak data without the system's consent.
For example, the SQL interface to databases can leak information
implicitly and thus needs to be replaced under W5."

This module makes that concrete and measurable.  The adversary is a
*colluding pair*: a tainted sender (it has read the victim's secret
and cannot export it) and a clean receiver (it can talk to the outside
world).  They share a database table and try to move bits through its
*metadata* — presence, absence, errors — rather than its contents.

Two storage semantics are compared (the DESIGN.md §6 ablation):

* **fail-stop** — a query that matches an unreadable row raises.  The
  receiver learns one bit per query (did it raise?): capacity 1.0
  bit/query, demonstrated by :class:`StorageChannel`.
* **label-filtered** (what :mod:`repro.db` ships) — unreadable rows
  are silently absent; the receiver's view is independent of the
  sender's behaviour and measured capacity collapses to 0.

A residual *timing* channel is also estimated: the filtered scan still
touches invisible rows, so query cost correlates with how much
invisible data exists.  :func:`timing_probe` quantifies it (in
distinguishable states) so EXPERIMENTS.md can report it honestly
alongside the mitigation (index-restricted scans or padding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..db import LabeledStore
from ..kernel import Kernel
from ..labels import Label, LabelError

FAILSTOP = "failstop"
FILTERED = "filtered"


@dataclass
class ChannelReport:
    """Result of one transmission experiment."""

    semantics: str
    sent: list[int]
    received: list[int]

    @property
    def errors(self) -> int:
        return sum(1 for s, r in zip(self.sent, self.received) if s != r)

    @property
    def error_rate(self) -> float:
        return self.errors / len(self.sent) if self.sent else 0.0

    @property
    def capacity_bits_per_query(self) -> float:
        """Shannon capacity of the observed binary symmetric channel."""
        return binary_channel_capacity(self.error_rate)


def binary_channel_capacity(error_rate: float) -> float:
    """``1 - H(p)`` for a binary symmetric channel with error ``p``."""
    p = min(max(error_rate, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)


class StorageChannel:
    """The presence/absence channel through a shared table.

    Protocol: to send bit *i* = 1, the tainted sender inserts a row
    with key *i* (the row is labeled with the secret tag, as it must
    be).  The clean receiver queries key *i* and decodes:

    * fail-stop semantics: an exception means a hidden row exists → 1;
    * filtered semantics: the hidden row is simply invisible → the
      receiver sees the same empty result either way.
    """

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.store = LabeledStore(self.kernel)
        provider = self.kernel.spawn_trusted("provider")
        self.secret_tag = self.kernel.create_tag(provider, purpose="victim")
        self.sender = self.kernel.spawn_trusted(
            "tainted-sender", slabel=Label([self.secret_tag]))
        self.receiver = self.kernel.spawn_trusted("clean-receiver")
        self.store.create_table(provider, "shared", indexes=["k"])

    def transmit(self, bits: Sequence[int], semantics: str) -> ChannelReport:
        """Run the protocol for ``bits``; returns the decoded report."""
        if semantics not in (FAILSTOP, FILTERED):
            raise ValueError(f"unknown semantics {semantics!r}")
        for i, bit in enumerate(bits):
            if bit:
                self.store.insert(self.sender, "shared",
                                  {"k": i, "covert": True})
        received = []
        for i in range(len(bits)):
            received.append(self._decode(i, semantics))
        return ChannelReport(semantics=semantics, sent=list(bits),
                             received=received)

    def _decode(self, key: int, semantics: str) -> int:
        if semantics == FAILSTOP:
            try:
                self.store.select_failstop(self.receiver, "shared",
                                           where={"k": key})
                return 0
            except LabelError:
                return 1
        rows = self.store.select(self.receiver, "shared", where={"k": key})
        return 1 if rows else 0


def timing_probe(invisible_rows: int, visible_rows: int = 10,
                 pad_scan_to: "int | None" = None,
                 plane: str = "fast",
                 invisible_labels: int = 1) -> dict[str, float]:
    """Estimate the residual timing channel of filtered queries.

    Builds a table with ``visible_rows`` public rows and
    ``invisible_rows`` secret rows, runs an *unindexed* query as the
    clean receiver, and reports how many rows the scan touched — the
    quantity an adversary timing the query would observe.  The
    difference between configurations is the channel.  Two mitigations
    are measurable: an indexed query (candidate set excludes invisible
    rows for keys the adversary cannot collide with) and
    ``pad_scan_to`` (constant-cost full scans regardless of invisible
    data — the complete fix, paid for in wasted work).

    ``plane`` selects the storage engine (both must show the same
    costs — the C10 regression for the partitioned data plane);
    ``invisible_labels`` spreads the secret rows over that many
    distinct tags, so the probe can also show the costs are
    independent of how many invisible *partitions* exist.
    """
    from ..resources import ResourceManager
    rm = ResourceManager()
    kernel = Kernel(resources=rm, plane=plane)
    store = LabeledStore(kernel)
    provider = kernel.spawn_trusted("provider")
    tags = [kernel.create_tag(provider, purpose=f"victim{j}")
            for j in range(max(invisible_labels, 1))]
    tainted = [kernel.spawn_trusted(f"tainted{j}", slabel=Label([tag]))
               for j, tag in enumerate(tags)]
    clean = kernel.spawn_trusted("clean")
    store.create_table(provider, "t", indexes=["k"],
                       pad_scan_to=pad_scan_to)
    for i in range(visible_rows):
        store.insert(provider, "t", {"k": "public", "i": i})
    for i in range(invisible_rows):
        store.insert(tainted[i % len(tainted)], "t",
                     {"k": "hidden", "i": i})

    before = rm.usage_of(clean).get("db_rows_scanned")
    store.select(clean, "t", predicate=lambda r: True)  # full scan
    full_scan_cost = rm.usage_of(clean).get("db_rows_scanned") - before

    before = rm.usage_of(clean).get("db_rows_scanned")
    store.select(clean, "t", where={"k": "public"})     # indexed
    indexed_cost = rm.usage_of(clean).get("db_rows_scanned") - before

    return {"full_scan_rows_touched": full_scan_cost,
            "indexed_rows_touched": indexed_cost,
            "visible_rows": float(visible_rows),
            "invisible_rows": float(invisible_rows)}
