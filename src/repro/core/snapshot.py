"""The ``Snapshotable`` protocol: one durable-state contract.

Four subsystems know how to serialize themselves for persistence — the
tag registry, the labeled filesystem, the labeled store, and the whole
provider — and each spells it ``snapshot()`` (the provider's composite
is also :func:`repro.platform.snapshot_provider`), so generic tooling
(backup drivers, tests, the provider's own composite snapshot) can
treat "a thing with durable state" uniformly:

    for part in (provider.kernel.tags, provider.fs, provider.db):
        assert isinstance(part, Snapshotable)
        state[part_name] = part.snapshot()

The contract: ``snapshot()`` returns a JSON-serializable ``dict``
capturing everything durable, suitable for the subsystem's matching
restore entry point (``TagRegistry.import_state``,
``repro.fs.restore_fs``, ``repro.db.restore_store``,
``repro.platform.restore_provider``).  Each restore re-creates the
objects through the installers journal replay uses, so a restored
object and a replayed one are built by the same code.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Snapshotable"]


@runtime_checkable
class Snapshotable(Protocol):
    """Anything whose durable state serializes to a JSON-able dict."""

    def snapshot(self) -> dict[str, Any]:
        """Serialize everything durable (JSON-compatible)."""
        ...
