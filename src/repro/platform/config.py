"""Provider configuration: two planes and three deployment knobs.

A provider runs on one of two planes:

* ``"fast"`` (the default, :meth:`ProviderConfig.fast`) — the engine a
  production deployment runs: compiled request plans, batched
  resource charges, lazy audit rendering, the memoized
  launch-capability index and authority oracle, process recycling,
  the label-partitioned store, the grouped fs walk and the
  write-ahead journal, whose image since the last checkpoint is the
  operator's delta snapshot.
* ``"oracle"`` (:meth:`ProviderConfig.oracle`) — the paper's semantics
  executed the slow, obviously-correct way: the per-row store scan and
  per-node fs walk, eager audit, no compiled plans, no
  launch-capability or authority memos, no process pool, full
  snapshots only.  It is the single reference the fast plane is
  checked against: responses, charges, denials and audit streams must
  match (the differential helper in ``tests/_differential.py`` states
  the comparison).

  Both planes' kernels run the default, enabled flow cache
  (:mod:`repro.labels.cache`), the one memo of label decisions: flow
  checks, label transitions, taint-raise label arithmetic and the
  label-state read/write verdicts.  So the fast-vs-oracle comparison
  does not check the flow cache against an uncached reference;
  ``tests/kernel/test_cache_differential.py`` does that at the kernel
  level, with ``FlowCache(enabled=False)``.

The plane is the one engine switch: the provider hands it to its
``Kernel(plane=...)``, and every component built on the kernel reads
it.  The other fields are deployment knobs: the shard count, the shard
engine and the journal compaction threshold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..kernel.kernel import check_plane


@dataclass(frozen=True)
class ProviderConfig:
    """A provider's plane plus its deployment knobs."""

    #: ``"fast"`` or ``"oracle"`` (see the module docstring).
    plane: str = "fast"
    #: Number of provider shards (M13).  1 means the classic unsharded
    #: plane; >1 makes W5System build a
    #: :class:`~repro.platform.shards.ShardedProvider` that partitions
    #: users across that many full per-shard providers.
    shards: int = 1
    #: Shard execution engine (M13): ``"serial"`` (in-line, the
    #: deterministic baseline) or ``"fork"`` (one forked process per
    #: shard — the engine that scales with cores under the GIL; POSIX
    #: only).
    shard_engine: str = "serial"
    #: Journal size (bytes) that triggers compaction into a snapshot
    #: (fast plane only; the oracle keeps no journal).  It also bounds
    #: the size of a delta snapshot, which is the journal image.
    journal_compact_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        check_plane(self.plane)

    # -- presets --------------------------------------------------------

    @classmethod
    def fast(cls, **overrides: Any) -> "ProviderConfig":
        """The fast engine (the same as ``ProviderConfig()``)."""
        return cls(plane="fast", **overrides)

    @classmethod
    def oracle(cls, **overrides: Any) -> "ProviderConfig":
        """The deliberately simple reference plane."""
        return cls(plane="oracle", **overrides)

    @classmethod
    def sharded(cls, shards: int, **overrides: Any) -> "ProviderConfig":
        """The fast plane, partitioned across ``shards`` providers."""
        return cls(shards=shards, **overrides)

    def replace(self, **changes: Any) -> "ProviderConfig":
        """A copy with ``changes`` applied (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """Plain-dict view (used by ``Provider.explain`` and tests)."""
        return dataclasses.asdict(self)
