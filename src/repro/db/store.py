"""The labeled tuple store — W5's replacement for shared SQL.

The paper flags SQL as a problem twice: malicious queries can lock the
database for everyone (§3.5 "Performance"), and "the SQL interface to
databases can leak information implicitly and thus needs to be replaced
under W5" (§3.5 "Covert Channels").  This module is that replacement:

* every row carries its own secrecy/integrity labels, checked with the
  same guards as files (:mod:`repro.core.access`);
* queries are **label-filtered**: rows the caller may not read are
  silently omitted, so result *presence, absence, count and error
  behaviour* are all independent of invisible data — the read-back
  covert channel is closed by construction (demonstrated head-to-head
  in experiment C10 against a fail-stop variant that leaks one bit per
  query);
* every operation charges the caller's query budget through the kernel
  resource hook, which is how a provider keeps one developer's hostile
  query from starving the cluster (experiment C9).

The query language is deliberately tiny — equality matches plus an
optional predicate — because a full SQL engine adds nothing to the
security argument.  Equality lookups use hash indexes declared at
table-creation time.

Label partitions
----------------

A W5 table with 100k rows typically holds only tens of *distinct*
``(slabel, ilabel)`` pairs — one per user/app sharing contract, the
structure Flume's label algebra and HiStar's category model predict.
:class:`Table` therefore physically groups rows into **partitions**
keyed by that pair, and the fast plane's engine (a store on a
``Kernel(plane="fast")``, the default) resolves visibility *once
per partition* against the :class:`~repro.labels.FlowCache` verdict
for the caller's label state: invisible partitions are
skipped wholesale, the ``db_rows_scanned`` charge is batched into one
call per partition, and only rows that survive the where/predicate
filter are snapshotted.  Query label cost scales with distinct labels,
not rows (experiment M9), while every observable — results, audit
stream, resource-charge totals, ``pad_scan_to`` padding — is
byte-identical to the naive per-row engine, which a store on a
``Kernel(plane="oracle")`` runs (the benchmark baseline and the
differential-test oracle in ``tests/db/test_partition_differential.py``).
"""

from __future__ import annotations

import copy
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..core import access
from ..kernel import Kernel, Process
from ..kernel import audit as A
from ..labels import (IntegrityViolation, Label, SecrecyViolation,
                      label_dict_memo)
from .errors import NoSuchRow, NoSuchTable, SchemaError, TableExists

Predicate = Callable[[dict[str, Any]], bool]

#: A partition key: the interned (slabel, ilabel) pair of its rows.
PartitionKey = "tuple[Label, Label]"


@dataclass
class Row:
    """One labeled tuple."""

    row_id: int
    values: dict[str, Any]
    slabel: Label
    ilabel: Label
    version: int = 1
    #: Cached "all values are immutable scalars" verdict; None = not
    #: yet computed, recomputed lazily after every update.
    _flat: Optional[bool] = field(default=None, repr=False, compare=False)

    #: Strictly immutable leaf types only — a tuple/frozenset may nest
    #: a mutable object, so containers always take the deepcopy path.
    _FLAT_TYPES = (type(None), bool, int, float, complex, str, bytes)

    def partition_key(self) -> tuple[Label, Label]:
        return (self.slabel, self.ilabel)

    def snapshot(self) -> dict[str, Any]:
        """A defensive copy handed to callers: rows are store-owned,
        and a shared nested list would let a reader mutate storage past
        the write checks.  Rows of immutable scalars — the common case
        — take a shallow ``dict`` copy (the values cannot be mutated
        through it); anything nested still gets the full deepcopy."""
        if self._flat is None:
            self._flat = all(
                type(v) in self._FLAT_TYPES for v in self.values.values())
        if self._flat:
            return dict(self.values)
        return copy.deepcopy(self.values)


@dataclass
class Table:
    """A named collection of rows plus its hash indexes.

    Rows are physically grouped into label **partitions** (one per
    distinct ``(slabel, ilabel)`` pair), and the hash indexes are
    partition-aware: ``column → value → partition → row ids``.  Both
    structures are maintained by :meth:`index_add`/:meth:`index_remove`
    so every caller that kept the flat index consistent keeps the
    partitions consistent too.

    ``pad_scan_to`` closes the residual timing channel of full scans
    (experiment C10b): when set, every unindexed query is charged as
    if it touched at least that many rows, so query cost no longer
    reveals how much *invisible* data the table holds.  The provider
    pays the padding in wasted work — the classic covert-channel
    bandwidth/performance trade.
    """

    name: str
    indexed_columns: tuple[str, ...] = ()
    pad_scan_to: Optional[int] = None
    rows: dict[int, Row] = field(default_factory=dict)
    # (slabel, ilabel) -> row id -> row (the physical label grouping)
    partitions: dict[tuple[Label, Label], dict[int, Row]] = field(
        default_factory=dict)
    # column -> value -> partition key -> set of row ids
    indexes: dict[str, dict[Any, dict[tuple[Label, Label], set[int]]]] = \
        field(default_factory=dict)
    #: Memoized sorted candidate-id lists per where-signature — the
    #: partitioned scan needs ids in row-id order every query, and
    #: re-sorting an unchanged bucket per request is pure overhead.
    #: Any membership change clears it (labels are immutable, so
    #: updates that move no index bucket leave candidates intact).
    _cand_cache: dict = field(default_factory=dict, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        for col in self.indexed_columns:
            self.indexes.setdefault(col, {})

    # -- index + partition maintenance (store-internal) ----------------

    def check_indexable(self, values: dict[str, Any]) -> None:
        """Raise :class:`SchemaError` unless every indexed column in
        ``values`` holds a hashable value.  :meth:`index_add` hashes
        them, so a write checks first and fails before it changes any
        row or index."""
        for col in self.indexes:
            if col in values:
                try:
                    hash(values[col])
                except TypeError:
                    raise SchemaError(
                        f"indexed column {col!r} of {self.name!r} needs a "
                        f"hashable value, not "
                        f"{type(values[col]).__name__}") from None

    def index_add(self, row: Row) -> None:
        if self._cand_cache:
            self._cand_cache.clear()
        pkey = row.partition_key()
        self.partitions.setdefault(pkey, {})[row.row_id] = row
        for col, idx in self.indexes.items():
            if col in row.values:
                idx.setdefault(row.values[col], {}) \
                   .setdefault(pkey, set()).add(row.row_id)

    def index_remove(self, row: Row) -> None:
        if self._cand_cache:
            self._cand_cache.clear()
        pkey = row.partition_key()
        part = self.partitions.get(pkey)
        if part is not None:
            part.pop(row.row_id, None)
            if not part:
                del self.partitions[pkey]
        for col, idx in self.indexes.items():
            if col in row.values:
                bucket = idx.get(row.values[col])
                if bucket:
                    ids = bucket.get(pkey)
                    if ids:
                        ids.discard(row.row_id)
                        if not ids:
                            del bucket[pkey]
                    if not bucket:
                        del idx[row.values[col]]


class LabeledStore:
    """A multi-table store enforcing per-row labels on every operation.

    The kernel's plane selects the engine: ``"fast"`` resolves
    visibility once per label partition; ``"oracle"`` is the naive
    per-row scan with identical observable behaviour.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.partitioned = kernel.plane == "fast"
        self._tables: dict[str, Table] = {}
        self._row_ids = itertools.count(1)
        #: Partition-scan observability (read via :meth:`stats`).
        self._stats = {"partitions_visible": 0, "partitions_skipped": 0,
                       "rows_skipped": 0, "batched_charges": 0}
        #: Durability hook: ``(op, data)`` per mutation (journal).
        self.on_mutate: Optional[Callable[[str, dict], None]] = None

    def stats(self) -> dict[str, Any]:
        """Partition hit/skip counters for metrics and benchmarks."""
        return dict(self._stats)

    def snapshot(self) -> dict[str, Any]:
        """:class:`~repro.core.snapshot.Snapshotable` — serialize every
        table, row and label (restore with
        :func:`repro.db.restore_store`).

        Read-only result: each distinct label is serialized once and
        every row carrying it shares that dict.  A caller that edits
        the snapshot must ``copy.deepcopy`` it or JSON round-trip it
        first.
        """
        namespace = self.kernel.tags.namespace
        labels = label_dict_memo(namespace)
        tables = []
        max_row_id = 0
        for name in self.tables():
            table = self.table(name)
            rows = []
            for row in sorted(table.rows.values(), key=lambda r: r.row_id):
                max_row_id = max(max_row_id, row.row_id)
                rows.append({"row_id": row.row_id,
                             "values": dict(row.values),
                             "slabel": labels(row.slabel),
                             "ilabel": labels(row.ilabel),
                             "version": row.version})
            tables.append({"name": table.name,
                           "indexes": list(table.indexed_columns),
                           "pad_scan_to": table.pad_scan_to,
                           "rows": rows})
        return {"namespace": namespace, "tables": tables,
                "next_row_id": max_row_id + 1}

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def create_table(self, process: Process, name: str,
                     indexes: Iterable[str] = (),
                     pad_scan_to: Optional[int] = None) -> Table:
        """Create a table.  The catalog itself is public (table names
        must not depend on secrets, or their existence would leak)."""
        self.kernel.resources.charge(process, "db_queries", 1)
        if name in self._tables:
            raise TableExists(name)
        table = Table(name=name, indexed_columns=tuple(indexes),
                      pad_scan_to=pad_scan_to)
        self._tables[name] = table
        if self.on_mutate is not None:
            self.on_mutate("db.create_table", {
                "name": name, "indexes": list(table.indexed_columns),
                "pad_scan_to": pad_scan_to})
        self.kernel.audit.record(A.DB_QUERY, True, process.name,
                                 f"create table {name}")
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def drop_table(self, process: Process, name: str) -> None:
        """Drop a table; requires write access to every remaining row."""
        table = self.table(name)
        for row in table.rows.values():
            access.check_write(process, row.slabel, row.ilabel,
                               f"{name}#{row.row_id}",
                               cache=self.kernel.flow_cache,
                               category="db.write")
        del self._tables[name]
        if self.on_mutate is not None:
            self.on_mutate("db.drop_table", {"name": name})
        self.kernel.audit.record(A.DB_QUERY, True, process.name,
                                 f"drop table {name}")

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, process: Process, table_name: str,
               values: dict[str, Any], slabel: Optional[Label] = None,
               ilabel: Optional[Label] = None) -> int:
        """Insert a row; labels default to the writer's labels.

        Like file creation, the chosen labels are checked as a write:
        a tainted process cannot insert into a less-tainted row.
        """
        with self.kernel.tracer.detail("db.insert", table=table_name):
            return self._insert(process, table_name, values, slabel, ilabel)

    def _insert(self, process: Process, table_name: str,
                values: dict[str, Any], slabel: Optional[Label],
                ilabel: Optional[Label]) -> int:
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        if not isinstance(values, dict):
            raise SchemaError("row values must be a dict")
        table.check_indexable(values)
        row = Row(row_id=next(self._row_ids),
                  values=copy.deepcopy(values),
                  slabel=process.slabel if slabel is None else slabel,
                  ilabel=process.ilabel if ilabel is None else ilabel)
        try:
            access.check_write(process, row.slabel, row.ilabel,
                               f"{table_name}#new",
                               cache=self.kernel.flow_cache,
                               category="db.write")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.DB_QUERY, False, process.name,
                                     f"insert {table_name} refused")
            raise
        self.kernel.resources.charge(process, "db_rows", 1)
        table.rows[row.row_id] = row
        table.index_add(row)
        if self.on_mutate is not None:
            self.on_mutate("db.insert", {
                "table": table_name, "row_id": row.row_id,
                "values": row.values,
                "slabel": sorted(t.tag_id for t in row.slabel),
                "ilabel": sorted(t.tag_id for t in row.ilabel)})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "insert %s#%d",
                                      (table_name, row.row_id))
        return row.row_id

    def update(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None,
               changes: Optional[dict[str, Any]] = None) -> int:
        """Update every *visible and writable* matching row.

        Rows the caller cannot read are silently skipped (they are not
        part of the caller's world); rows it can read but not write
        raise — failing to update data you can see is an honest error,
        not a covert channel.  Returns the number of rows updated.
        """
        with self.kernel.tracer.detail("db.update", table=table_name):
            return self._update(process, table_name, where, predicate,
                                changes)

    def _update(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate],
                changes: Optional[dict[str, Any]]) -> int:
        if changes is None:
            raise SchemaError("update requires changes")
        table = self.table(table_name)
        table.check_indexable(changes)
        # All-scalar change sets share one hoisted copy; nested values
        # still get a per-row deepcopy so rows never alias each other.
        flat_changes = all(type(v) in Row._FLAT_TYPES
                           for v in changes.values())
        hoisted = dict(changes) if flat_changes else None
        # Labels never change under update, so partition membership is
        # stable; the index round-trip is only needed when an indexed
        # column's value may move buckets.
        touches_index = any(col in table.indexes for col in changes)

        touched: list[int] = []

        def apply(row: Row) -> None:
            if touches_index:
                table.index_remove(row)
            if flat_changes:
                row.values.update(hoisted)
                if row._flat is not True:
                    row._flat = None  # re-derive lazily
            else:
                row.values.update(copy.deepcopy(changes))
                row._flat = False  # a container was just written
            row.version += 1
            if touches_index:
                table.index_add(row)
            touched.append(row.row_id)

        updated = 0
        if self.partitioned:
            write_verdicts: dict[tuple[Label, Label], bool] = {}
            for row in self._visible_rows(
                    process, table, where, predicate)[0]:
                pkey = row.partition_key()
                allowed = write_verdicts.get(pkey)
                if allowed is None:
                    allowed = self.kernel.flow_cache.writable(
                        process, row.slabel, row.ilabel, category="db.write")
                    write_verdicts[pkey] = allowed
                if not allowed:
                    self._refuse_write(process, row, table_name, "update")
                apply(row)
                updated += 1
        else:
            for row in self._candidate_rows(process, table, where):
                if not self.kernel.flow_cache.readable(
                        process, row.slabel, row.ilabel, category="db.read"):
                    continue
                if not _matches(row, where, predicate):
                    continue
                try:
                    access.check_write(process, row.slabel, row.ilabel,
                                       f"{table_name}#{row.row_id}",
                                       cache=self.kernel.flow_cache,
                                       category="db.write")
                except (SecrecyViolation, IntegrityViolation):
                    self.kernel.audit.record(
                        A.DB_QUERY, False, process.name,
                        f"update {table_name}#{row.row_id} refused")
                    raise
                apply(row)
                updated += 1
        if touched and self.on_mutate is not None:
            self.on_mutate("db.update", {
                "table": table_name, "rows": sorted(touched),
                "changes": changes})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "update %s (%d rows)",
                                      (table_name, updated))
        return updated

    def delete(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None) -> int:
        """Delete every visible and writable matching row (count returned)."""
        with self.kernel.tracer.detail("db.delete", table=table_name):
            return self._delete(process, table_name, where, predicate)

    def _delete(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate]) -> int:
        table = self.table(table_name)
        doomed = []
        if self.partitioned:
            write_verdicts: dict[tuple[Label, Label], bool] = {}
            for row in self._visible_rows(
                    process, table, where, predicate)[0]:
                pkey = row.partition_key()
                allowed = write_verdicts.get(pkey)
                if allowed is None:
                    allowed = self.kernel.flow_cache.writable(
                        process, row.slabel, row.ilabel, category="db.write")
                    write_verdicts[pkey] = allowed
                if not allowed:
                    self._refuse_write(process, row, table_name, "delete")
                doomed.append(row)
        else:
            for row in self._candidate_rows(process, table, where):
                if not self.kernel.flow_cache.readable(
                        process, row.slabel, row.ilabel, category="db.read"):
                    continue
                if not _matches(row, where, predicate):
                    continue
                try:
                    access.check_write(process, row.slabel, row.ilabel,
                                       f"{table_name}#{row.row_id}",
                                       cache=self.kernel.flow_cache,
                                       category="db.write")
                except (SecrecyViolation, IntegrityViolation):
                    self.kernel.audit.record(
                        A.DB_QUERY, False, process.name,
                        f"delete {table_name}#{row.row_id} refused")
                    raise
                doomed.append(row)
        for row in doomed:
            table.index_remove(row)
            del table.rows[row.row_id]
        if doomed and self.on_mutate is not None:
            self.on_mutate("db.delete", {
                "table": table_name,
                "rows": sorted(r.row_id for r in doomed)})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "delete %s (%d rows)",
                                      (table_name, len(doomed)))
        return len(doomed)

    def purge_rows(self, table_name: str, row_ids: Iterable[int]) -> int:
        """Provider cold-path removal: drop rows by id with *no* label
        checks, charges, or audit (account deletion reaches past the
        departed user's labels by design).  Journaled so recovery
        reproduces the purge.
        """
        table = self.table(table_name)
        purged = []
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            table.index_remove(row)
            del table.rows[rid]
            purged.append(rid)
        if purged and self.on_mutate is not None:
            self.on_mutate("db.purge", {
                "table": table_name, "rows": sorted(purged)})
        return len(purged)

    # -- installers (full restore and journal replay) -------------------

    def install_table(self, name: str, indexes: Iterable[str] = (),
                      pad_scan_to: Optional[int] = None) -> Table:
        """Re-create a table (no charges, no checks, no journal)."""
        table = Table(name=name, indexed_columns=tuple(indexes),
                      pad_scan_to=pad_scan_to)
        self._tables[name] = table
        return table

    def install_row(self, table_name: str, row_id: int,
                    values: dict[str, Any], slabel: Label,
                    ilabel: Label, version: int = 1) -> Row:
        """Re-insert a row with a *known* id.  ``index_add`` files it
        in its label partition alongside the hash indexes, so an
        installed store is partition-consistent whichever plane wrote
        it.  The id counter is the caller's to set once the rows are
        in."""
        table = self.table(table_name)
        row = Row(row_id=row_id, values=values, slabel=slabel,
                  ilabel=ilabel, version=version)
        table.rows[row_id] = row
        table.index_add(row)
        return row

    def apply_changes(self, table_name: str, row_ids: Iterable[int],
                      changes: dict[str, Any]) -> None:
        """Replay one journaled update: same physical effect as
        :meth:`update` on exactly those rows."""
        table = self.table(table_name)
        touches_index = any(col in table.indexes for col in changes)
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            if touches_index:
                table.index_remove(row)
            row.values.update(copy.deepcopy(changes))
            row._flat = None
            row.version += 1
            if touches_index:
                table.index_add(row)

    def remove_rows(self, table_name: str, row_ids: Iterable[int]) -> None:
        """Replay one journaled delete/purge (no checks, no journal)."""
        table = self.table(table_name)
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            table.index_remove(row)
            del table.rows[rid]

    def drop_table_raw(self, name: str) -> None:
        """Replay one journaled drop (no checks, no journal)."""
        self._tables.pop(name, None)

    def _refuse_write(self, process: Process, row: Row, table_name: str,
                      verb: str) -> None:
        """Re-derive the precise write violation for ``row`` (the
        partition verdict said no), audit it, and raise — diagnostics
        byte-identical to the naive per-row engine's."""
        what = f"{table_name}#{row.row_id}"
        try:
            access.check_write(process, row.slabel, row.ilabel, what,
                               cache=self.kernel.flow_cache,
                               category="db.write")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.DB_QUERY, False, process.name,
                                     f"{verb} {what} refused")
            raise
        raise AssertionError(
            f"partition verdict and decision procedure disagree on {what}")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def select(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None,
               limit: Optional[int] = None) -> list[dict[str, Any]]:
        """Label-filtered query: returns copies of visible matching rows.

        The result is *identical* to what it would be if invisible rows
        did not exist — the covert-channel-free semantics.  Partition
        visibility is decided by the flow cache's verdicts for the
        process's label state (:meth:`_visible_rows`).
        """
        with self.kernel.tracer.detail("db.select", table=table_name):
            return self._select(process, table_name, where, predicate,
                                limit)

    def _select(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate],
                limit: Optional[int]) -> list[dict[str, Any]]:
        table = self.table(table_name)
        if self.partitioned:
            matches, scanned = self._scan_partitioned(
                process, table, where, predicate, limit)
        else:
            self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_naive(
                process, table, where, predicate, limit)
        out = [row.snapshot() for row in matches]
        self._pad_scan(process, table, where, scanned)
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "select %s (%d rows)",
                                      (table_name, len(out)))
        return out

    def select_failstop(self, process: Process, table_name: str,
                        where: Optional[dict[str, Any]] = None,
                        predicate: Optional[Predicate] = None) -> list[dict[str, Any]]:
        """The *rejected* design (DESIGN.md §6): raise if any matching
        row is unreadable.  Exists so experiment C10 can measure the
        covert channel this semantics opens (1 bit per query).  Not
        part of the supported API surface for applications.
        """
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        out: list[dict[str, Any]] = []
        for row in self._candidate_rows(process, table, where):
            if not _matches(row, where, predicate):
                continue
            access.check_read(process, row.slabel, row.ilabel,
                              f"{table_name}#{row.row_id}",
                              cache=self.kernel.flow_cache,
                              category="db.read")
            out.append(row.snapshot())
        return out

    def count(self, process: Process, table_name: str,
              where: Optional[dict[str, Any]] = None,
              predicate: Optional[Predicate] = None) -> int:
        """Label-filtered count (same visibility rule as select).

        Shares the scan core with :meth:`select` but never snapshots a
        row — counting costs no copies.  Charges and audit stream are
        identical to the equivalent ``select`` (it audits as one, the
        historical record shape).
        """
        with self.kernel.tracer.detail("db.count", table=table_name):
            return self._count(process, table_name, where, predicate)

    def _count(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]],
               predicate: Optional[Predicate]) -> int:
        table = self.table(table_name)
        if self.partitioned:
            matches, scanned = self._scan_partitioned(
                process, table, where, predicate, None)
        else:
            self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_naive(
                process, table, where, predicate, None)
        self._pad_scan(process, table, where, scanned)
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "select %s (%d rows)",
                                      (table_name, len(matches)))
        return len(matches)

    def get(self, process: Process, table_name: str, row_id: int) -> dict[str, Any]:
        """Fetch one visible row by id; invisible ids read as missing."""
        with self.kernel.tracer.detail("db.get", table=table_name):
            return self._get(process, table_name, row_id)

    def _get(self, process: Process, table_name: str,
             row_id: int) -> dict[str, Any]:
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        row = table.rows.get(row_id)
        if row is None or not self.kernel.flow_cache.readable(
                process, row.slabel, row.ilabel, category="db.read"):
            raise NoSuchRow(f"{table_name}#{row_id}")
        return row.snapshot()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _scan_naive(self, process: Process, table: Table,
                    where: Optional[dict[str, Any]],
                    predicate: Optional[Predicate],
                    limit: Optional[int]) -> tuple[list[Row], int]:
        """The per-row oracle: one charge, one verdict per candidate."""
        out: list[Row] = []
        scanned = 0
        for row in self._candidate_rows(process, table, where):
            scanned += 1
            self.kernel.resources.charge(process, "db_rows_scanned", 1)
            if not self.kernel.flow_cache.readable(
                    process, row.slabel, row.ilabel, category="db.read"):
                continue
            if not _matches(row, where, predicate):
                continue
            out.append(row)
            if limit is not None and len(out) >= limit:
                break
        return out, scanned

    def _scan_partitioned(self, process: Process, table: Table,
                          where: Optional[dict[str, Any]],
                          predicate: Optional[Predicate],
                          limit: Optional[int]) -> tuple[list[Row], int]:
        """One visibility verdict per partition, one batched charge.

        Returns exactly the rows (in row-id order, honoring ``limit``)
        and the scanned-row total the naive engine would produce.  The
        query charge and every partition's ``db_rows_scanned`` charge
        land in one sequential-equivalent ``charge_many`` (the query
        charge first, as the naive engine applies it), and with a
        ``limit`` each partition is charged only up to the naive
        engine's stopping point (a bisect, not a walk).
        """
        matches, idlists = self._visible_rows(process, table, where,
                                              predicate)
        items: list[tuple[str, float]] = [("db_queries", 1.0)]
        scanned = 0
        if limit is not None and matches and len(matches) >= max(limit, 1):
            # The naive loop breaks after appending its limit-th match
            # (with limit < 1 it still appends one row first), so rows
            # past that match are never charged.
            matches = matches[:max(limit, 1)]
            cutoff = matches[-1].row_id
            for ids in idlists:
                n = bisect_right(ids, cutoff)
                if n:
                    items.append(("db_rows_scanned", n))
                scanned += n
        else:
            for ids in idlists:
                n = len(ids)
                if n:
                    items.append(("db_rows_scanned", n))
                scanned += n
        self.kernel.resources.charge_many(process, items)
        self._stats["batched_charges"] += len(items)
        return matches, scanned

    def _visible_rows(self, process: Process, table: Table,
                      where: Optional[dict[str, Any]],
                      predicate: Optional[Predicate]
                      ) -> tuple[list[Row], list]:
        """Visible matching rows in row-id order plus the candidate id
        lists of every partition, with one read verdict per partition.
        Charges nothing: :meth:`_scan_partitioned` charges the scan,
        and update/delete never charged one.

        The verdicts are the flow cache's, keyed on the process's label
        state, so the fresh process a tainted request spawned reuses
        its predecessors' verdicts.  The scan fetches that state's read
        table once (:meth:`~repro.labels.FlowCache.read_table`) and
        probes it once per partition, as the file system's path walk
        does; a miss goes through
        :meth:`~repro.labels.FlowCache.readable`, which computes and
        stores the verdict.  A cached deny needs no
        re-derivation: the scan skips the partition and never raises.
        """
        pkeys, idlists, prechecked = self._partition_arrays(table, where)
        cache = self.kernel.flow_cache
        known = cache.read_table(process)
        hits = 0
        w = None if prechecked else where
        stats = self._stats
        rows = table.rows
        matches: list[Row] = []
        for pkey, ids in zip(pkeys, idlists):
            allowed = known.get(pkey)
            if allowed is None:
                allowed = cache.readable(process, pkey[0], pkey[1],
                                         category="db.read")
            else:
                hits += 1
            if not allowed:
                stats["partitions_skipped"] += 1
                stats["rows_skipped"] += len(ids)
                continue
            stats["partitions_visible"] += 1
            for rid in ids:
                row = rows.get(rid)
                if row is not None and _matches(row, w, predicate):
                    matches.append(row)
        if hits:
            cache.count_hits("db.read", hits)
        matches.sort(key=lambda r: r.row_id)
        return matches, idlists

    def _pad_scan(self, process: Process, table: Table,
                  where: Optional[dict[str, Any]], scanned: int) -> None:
        if table.pad_scan_to is not None and scanned < table.pad_scan_to \
                and not self._used_index(table, where):
            # constant-cost scans: pay for the rows not present so the
            # query's cost is independent of invisible data (C10b)
            self.kernel.resources.charge(process, "db_rows_scanned",
                                         table.pad_scan_to - scanned)

    @staticmethod
    def _best_index(table: Table, where: Optional[dict[str, Any]]
                    ) -> Optional[tuple[str, Any]]:
        """The indexed where-column with the smallest bucket (fewest
        candidate rows), or None when no where-column is indexed."""
        best: Optional[tuple[int, str, Any]] = None
        if where:
            for col, value in where.items():
                if col in table.indexes:
                    bucket = _bucket(table.indexes[col], value)
                    size = sum(len(ids) for ids in bucket.values()) \
                        if bucket else 0
                    if best is None or size < best[0]:
                        best = (size, col, value)
        if best is None:
            return None
        return best[1], best[2]

    def _candidate_rows(self, process: Process, table: Table,
                        where: Optional[dict[str, Any]]) -> list[Row]:
        """Narrow by the smallest available index bucket, else scan."""
        choice = self._best_index(table, where)
        if choice is not None:
            col, value = choice
            bucket = _bucket(table.indexes[col], value)
            ids: set[int] = set()
            if bucket:
                for part_ids in bucket.values():
                    ids |= part_ids
            return [table.rows[i] for i in sorted(ids)
                    if i in table.rows]
        return [table.rows[i] for i in sorted(table.rows)]

    def _partition_arrays(self, table: Table,
                          where: Optional[dict[str, Any]]
                          ) -> tuple[list, list, bool]:
        """Candidate row ids per partition for :meth:`_visible_rows`:
        ``(pkeys, idlists, prechecked)`` with the two lists aligned
        index-for-index and each id list sorted, narrowed by the
        smallest index bucket when one applies.  ``prechecked`` is True
        when the where clause is a single column answered by that
        column's index — every candidate id then satisfies it by
        construction, and the scan loop can skip re-verifying it row
        by row.

        Memoized on the table until any row is added or removed, keyed
        by the *where signature* (the sorted column/value pairs), not
        the index choice: :meth:`_best_index` re-walks bucket sizes to
        pick the smallest, and on a warm table that walk is the single
        most expensive step of a hot scan.  The signature determines
        the choice until any membership change, which clears the memo.
        Callers never mutate the returned lists.
        """
        cache = table._cand_cache
        try:
            wkey = tuple(sorted(where.items())) if where else None
            cached = cache.get(wkey)
        except TypeError:
            # incomparable columns or an unhashable value: no memo
            cache, wkey, cached = {}, None, None
        if cached is not None:
            return cached
        choice = self._best_index(table, where)
        groups: dict = table.partitions
        if choice is not None:
            col, value = choice
            groups = _bucket(table.indexes[col], value) or {}
        pkeys = [pkey for pkey, ids in groups.items() if ids]
        prechecked = (bool(where) and len(where) == 1
                      and next(iter(where)) in table.indexes)
        arrays = (pkeys, [sorted(groups[pkey]) for pkey in pkeys],
                  prechecked)
        cache[wkey] = arrays
        return arrays

    @staticmethod
    def _used_index(table: Table, where: Optional[dict[str, Any]]) -> bool:
        return bool(where) and any(col in table.indexes for col in where)


def _bucket(index: dict, value: Any) -> Optional[dict]:
    """``index``'s bucket for ``value``; None if it is unhashable."""
    try:
        return index.get(value)
    except TypeError:
        return None


def _matches(row: Row, where: Optional[dict[str, Any]],
             predicate: Optional[Predicate]) -> bool:
    if where:
        for col, value in where.items():
            if row.values.get(col) != value:
                return False
    if predicate is not None and not predicate(row.values):
        return False
    return True


class DbView:
    """A store handle bound to one process (mirrors :class:`FsView`)."""

    def __init__(self, store: LabeledStore, process: Process) -> None:
        self._store = store
        self._process = process

    def create_table(self, name: str, indexes: Iterable[str] = ()) -> Table:
        return self._store.create_table(self._process, name, indexes=indexes)

    def has_table(self, name: str) -> bool:
        """Catalog probe.  The catalog is public (see
        :meth:`LabeledStore.create_table`), so this neither charges nor
        audits — it lets an app's ensure-table preamble skip the
        create/``TableExists`` exception round-trip on every request."""
        return name in self._store._tables

    def insert(self, table: str, values: dict[str, Any], **kw: Any) -> int:
        return self._store.insert(self._process, table, values, **kw)

    def select(self, table: str, **kw: Any) -> list[dict[str, Any]]:
        return self._store.select(self._process, table, **kw)

    def update(self, table: str, **kw: Any) -> int:
        return self._store.update(self._process, table, **kw)

    def delete(self, table: str, **kw: Any) -> int:
        return self._store.delete(self._process, table, **kw)

    def count(self, table: str, **kw: Any) -> int:
        return self._store.count(self._process, table, **kw)

    def get(self, table: str, row_id: int) -> dict[str, Any]:
        return self._store.get(self._process, table, row_id)
