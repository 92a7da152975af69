"""Store persistence: snapshot and restore with per-row labels intact.

The database sibling of :mod:`repro.fs.persist`; same trust level
(provider cold storage), same namespace discipline.
"""

from __future__ import annotations

from typing import Any, Callable

from ..kernel import Kernel
from ..labels import Label, label_dict_memo, label_from_dict
from .store import LabeledStore, Row, Table


def _row_dict(row: Row,
              labels: Callable[[Label], dict[str, Any]]) -> dict[str, Any]:
    return {
        "row_id": row.row_id,
        "values": dict(row.values),
        "slabel": labels(row.slabel),
        "ilabel": labels(row.ilabel),
        "version": row.version,
    }


def snapshot_store(store: LabeledStore) -> dict[str, Any]:
    """Serialize every table, row, and label.

    Read-only result: each distinct label is serialized once and every
    row carrying it shares that dict.  A caller that edits the
    snapshot must ``copy.deepcopy`` it or JSON round-trip it first.
    """
    namespace = store.kernel.tags.namespace
    labels = label_dict_memo(namespace)
    tables = []
    max_row_id = 0
    for name in store.tables():
        table = store.table(name)
        rows = []
        for row in sorted(table.rows.values(), key=lambda r: r.row_id):
            max_row_id = max(max_row_id, row.row_id)
            rows.append(_row_dict(row, labels))
        tables.append({"name": table.name,
                       "indexes": list(table.indexed_columns),
                       "pad_scan_to": table.pad_scan_to,
                       "rows": rows})
    return {"namespace": namespace, "tables": tables,
            "next_row_id": max_row_id + 1}


def restore_store(kernel: Kernel, snapshot: dict[str, Any]
                  ) -> LabeledStore:
    """Rebuild a store inside ``kernel`` (restore the tag registry
    first; see :mod:`repro.fs.persist`).  ``index_add`` rebuilds the
    label partitions alongside the hash indexes, so a restored store
    is partition-consistent regardless of the engine that wrote it."""
    import itertools
    store = LabeledStore(kernel)
    store._row_ids = itertools.count(snapshot.get("next_row_id", 1))
    for td in snapshot["tables"]:
        table = Table(name=td["name"],
                      indexed_columns=tuple(td.get("indexes", ())),
                      pad_scan_to=td.get("pad_scan_to"))
        for rd in td["rows"]:
            row = Row(row_id=rd["row_id"], values=dict(rd["values"]),
                      slabel=label_from_dict(rd["slabel"], kernel.tags),
                      ilabel=label_from_dict(rd["ilabel"], kernel.tags),
                      version=rd.get("version", 1))
            table.rows[row.row_id] = row
            table.index_add(row)
        store._tables[table.name] = table
    return store
