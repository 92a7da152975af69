"""Store persistence: restore a snapshot with per-row labels intact.

The database sibling of :mod:`repro.fs.persist`; same trust level
(provider cold storage), same namespace discipline.
:meth:`LabeledStore.snapshot` serializes every table with per-row
labels; :func:`restore_store` rebuilds a store through
:meth:`LabeledStore.install_table` and :meth:`LabeledStore.install_row`,
the installers journal replay uses for ``db.create_table`` and
``db.insert``.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..kernel import Kernel
from ..labels import label_from_dict
from .store import LabeledStore


def restore_store(kernel: Kernel, snapshot: dict[str, Any]
                  ) -> LabeledStore:
    """Rebuild a store inside ``kernel`` (restore the tag registry
    first; see :mod:`repro.fs.persist`)."""
    store = LabeledStore(kernel)
    store._row_ids = itertools.count(snapshot.get("next_row_id", 1))
    for td in snapshot["tables"]:
        store.install_table(td["name"], td.get("indexes", ()),
                            td.get("pad_scan_to"))
        for rd in td["rows"]:
            store.install_row(td["name"], rd["row_id"], dict(rd["values"]),
                              label_from_dict(rd["slabel"], kernel.tags),
                              label_from_dict(rd["ilabel"], kernel.tags),
                              rd.get("version", 1))
    return store
