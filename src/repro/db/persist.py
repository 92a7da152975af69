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


# ----------------------------------------------------------------------
# O(dirty) deltas (the incremental-durability path, PR 4)
# ----------------------------------------------------------------------

def snapshot_store_delta(store: LabeledStore) -> dict[str, Any]:
    """Serialize only rows/tables touched since the last checkpoint.

    Cumulative against the base: :func:`merge_store_delta` of
    (base, latest delta) equals a full :func:`snapshot_store`.
    """
    namespace = store.kernel.tags.namespace
    labels = label_dict_memo(namespace)
    state = store.dirty_state()
    created = []
    for name in sorted(state.get("created_tables", ())):
        table = store._tables.get(name)
        if table is None:  # created, then dropped again
            continue
        created.append({"name": name,
                        "indexes": list(table.indexed_columns),
                        "pad_scan_to": table.pad_scan_to})
    tables: dict[str, dict[str, Any]] = {}
    for name, ids in state.get("dirty_rows", {}).items():
        table = store._tables.get(name)
        if table is None:
            continue
        entry = tables.setdefault(name, {"rows": [], "removed": []})
        entry["rows"] = [_row_dict(table.rows[i], labels)
                         for i in sorted(ids) if i in table.rows]
    for name, ids in state.get("removed_rows", {}).items():
        if name not in store._tables:
            continue
        entry = tables.setdefault(name, {"rows": [], "removed": []})
        entry["removed"] = sorted(ids)
    return {"namespace": namespace,
            "created_tables": created,
            "dropped_tables": sorted(state.get("dropped_tables", ())),
            "tables": {n: tables[n] for n in sorted(tables)}}


def merge_store_delta(base: dict[str, Any],
                      delta: dict[str, Any]) -> dict[str, Any]:
    """Fold a delta into a base snapshot → a full-equivalent snapshot.

    ``next_row_id`` is recomputed over the merged rows, matching the
    ``max live row id + 1`` a fresh :func:`snapshot_store` reports.
    Each input is copied once (the delta's tables in one ``deepcopy``,
    so rows that shared a label dict still share one copy); the result
    aliases neither.
    """
    import copy
    tables = {td["name"]: td for td in copy.deepcopy(base["tables"])}
    for name in delta.get("dropped_tables", ()):
        tables.pop(name, None)
    for td in delta.get("created_tables", ()):
        tables[td["name"]] = {"name": td["name"],
                              "indexes": list(td["indexes"]),
                              "pad_scan_to": td["pad_scan_to"],
                              "rows": []}
    for name, entry in copy.deepcopy(delta.get("tables", {})).items():
        table = tables.get(name)
        if table is None:
            continue
        rows = {r["row_id"]: r for r in table["rows"]}
        for rid in entry.get("removed", ()):
            rows.pop(rid, None)
        for r in entry.get("rows", ()):
            rows[r["row_id"]] = r
        table["rows"] = [rows[i] for i in sorted(rows)]
    max_row_id = max((r["row_id"] for td in tables.values()
                      for r in td["rows"]), default=0)
    return {"namespace": base["namespace"],
            "tables": [tables[n] for n in sorted(tables)],
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
