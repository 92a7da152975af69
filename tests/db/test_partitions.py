"""Unit tests for the label-partitioned engine and its satellites:
smallest-bucket index selection, snapshot-free count, the hoisted
flat-update path, and index-maintenance skipping."""

import copy

import pytest

from repro.db import LabeledStore, SchemaError, restore_store
from repro.platform import ProviderConfig
from repro.db.store import Row
from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, minus
from repro.resources import ResourceManager
from repro.resources.containers import KINDS


def world(plane="fast"):
    rm = ResourceManager()
    kernel = Kernel(resources=rm, plane=plane)
    store = LabeledStore(kernel)
    provider = kernel.spawn_trusted("provider")
    tag = kernel.create_tag(provider, purpose="secret")
    tainted = kernel.spawn_trusted("tainted", slabel=Label([tag]))
    clean = kernel.spawn_trusted("clean")
    return rm, kernel, store, provider, tainted, clean


class TestBestIndexSelection:
    def test_smallest_bucket_wins(self):
        _, _, store, provider, _, _ = world()
        store.create_table(provider, "t", indexes=("a", "b"))
        for i in range(10):
            store.insert(provider, "t", {"a": "hot", "b": i})
        store.insert(provider, "t", {"a": "hot", "b": 99})
        store.insert(provider, "t", {"a": "cold", "b": 99})
        table = store.table("t")
        # a=hot bucket holds 11 rows, b=99 holds 2 → b must be chosen
        assert LabeledStore._best_index(
            table, {"a": "hot", "b": 99}) == ("b", 99)
        # a missing value → empty bucket (size 0) beats everything
        assert LabeledStore._best_index(
            table, {"a": "nope", "b": 99}) == ("a", "nope")

    def test_scan_charge_follows_smallest_bucket(self):
        for plane in ("fast", "oracle"):
            rm, _, store, provider, _, clean = world(plane)
            store.create_table(provider, "t", indexes=("a", "b"))
            for i in range(20):
                store.insert(provider, "t", {"a": "x", "b": i % 2})
            before = rm.usage_of(clean).get("db_rows_scanned")
            store.select(clean, "t", where={"b": 0, "a": "x"})
            scanned = rm.usage_of(clean).get("db_rows_scanned") - before
            assert scanned == 10  # b-bucket, not the 20-row a-bucket

    def test_unindexed_where_still_scans_all(self):
        rm, _, store, provider, _, clean = world()
        store.create_table(provider, "t", indexes=())
        for i in range(7):
            store.insert(provider, "t", {"n": i})
        before = rm.usage_of(clean).get("db_rows_scanned")
        assert store.count(clean, "t", where={"n": 3}) == 1
        assert rm.usage_of(clean).get("db_rows_scanned") - before == 7


class _DeepcopySpy:
    """A row value that counts how often it gets deep-copied."""

    copies = 0

    def __deepcopy__(self, memo):
        type(self).copies += 1
        return _DeepcopySpy()


class TestSnapshotFreeCount:
    def test_count_never_copies_rows(self):
        for plane in ("fast", "oracle"):
            _, _, store, provider, _, clean = world(plane)
            store.create_table(provider, "t")
            store.insert(provider, "t", {"payload": _DeepcopySpy(), "k": 1})
            _DeepcopySpy.copies = 0
            assert store.count(clean, "t") == 1
            assert _DeepcopySpy.copies == 0, "count materialized a snapshot"
            store.select(clean, "t")
            assert _DeepcopySpy.copies == 1, "select must still copy"

    def test_count_matches_select_and_charges(self):
        rm, _, store, provider, tainted, clean = world()
        store.create_table(provider, "t")
        for i in range(6):
            store.insert(provider, "t", {"n": i})
        for i in range(4):
            store.insert(tainted, "t", {"n": i})
        n = store.count(clean, "t", predicate=lambda v: v["n"] % 2 == 0)
        assert n == len(store.select(clean, "t",
                                     predicate=lambda v: v["n"] % 2 == 0))
        assert n == 3  # invisible rows don't count


class TestUpdateFastPaths:
    def test_flat_changes_hoisted_once(self):
        _, _, store, provider, _, _ = world()
        store.create_table(provider, "t")
        for i in range(5):
            store.insert(provider, "t", {"n": i})
        changes = {"n": 7}
        assert store.update(provider, "t", changes=changes) == 5
        changes["n"] = 0  # caller mutates its dict afterwards
        assert [r["n"] for r in store.select(provider, "t")] == [7] * 5

    def test_nested_changes_still_isolated_per_row(self):
        _, _, store, provider, _, _ = world()
        store.create_table(provider, "t")
        r1 = store.insert(provider, "t", {"n": 0})
        r2 = store.insert(provider, "t", {"n": 1})
        store.update(provider, "t", changes={"tags": ["a"]})
        table = store.table("t")
        table.rows[r1].values["tags"].append("mutated")
        assert table.rows[r2].values["tags"] == ["a"]

    def test_index_maintenance_skipped_for_unindexed_changes(self):
        _, _, store, provider, _, _ = world()
        store.create_table(provider, "t", indexes=("k",))
        for i in range(4):
            store.insert(provider, "t", {"k": i % 2, "n": i})
        table = store.table("t")
        calls = []
        orig_remove, orig_add = table.index_remove, table.index_add
        table.index_remove = lambda row: (calls.append("rm"),
                                          orig_remove(row))[1]
        table.index_add = lambda row: (calls.append("add"),
                                       orig_add(row))[1]
        store.update(provider, "t", changes={"n": 99})
        assert calls == [], "unindexed change paid the index round-trip"
        store.update(provider, "t", where={"k": 0}, changes={"k": 1})
        assert calls.count("rm") == calls.count("add") == 2
        # the moved rows are findable under their new key
        assert store.count(provider, "t", where={"k": 1}) == 4

    def test_flat_verdict_survives_flat_update(self):
        _, _, store, provider, _, _ = world()
        store.create_table(provider, "t")
        rid = store.insert(provider, "t", {"n": 1})
        row = store.table("t").rows[rid]
        row.snapshot()
        assert row._flat is True
        store.update(provider, "t", changes={"n": 2})
        assert row._flat is True  # scalar update cannot un-flatten
        store.update(provider, "t", changes={"n": [1]})
        assert row._flat is False


class TestUnhashableWhere:
    """A where value no hash index can hold: both engines answer as the
    per-row scan does — the stored row on an unindexed column, nothing
    on an indexed one (insert refuses unhashable values there)."""

    @pytest.mark.parametrize("plane", ["fast", "oracle"])
    def test_select_and_count_on_both_column_kinds(self, plane):
        rm, _, store, provider, _, clean = world(plane)
        store.create_table(provider, "t", indexes=("a",))
        store.insert(provider, "t", {"a": 1, "b": [2]})
        store.insert(provider, "t", {"a": 2, "b": [3]})

        def scanned(query, **kw):
            before = rm.usage_of(clean).get("db_rows_scanned")
            result = query(clean, "t", **kw)
            return result, rm.usage_of(clean).get("db_rows_scanned") - before

        for __ in range(2):  # cold, then with the candidate memo warm
            assert scanned(store.select, where={"b": [2]}) \
                == ([{"a": 1, "b": [2]}], 2)
            assert scanned(store.count, where={"b": [2]}) == (1, 2)
            assert scanned(store.select, where={"a": [1]}) == ([], 0)
            assert scanned(store.count, where={"a": [1]}) == (0, 0)
            assert scanned(store.select, where={"a": 1, "b": [2]}) \
                == ([{"a": 1, "b": [2]}], 1)


class TestUnhashableIndexedWrite:
    """An unhashable value for an indexed column: insert and update
    raise SchemaError before any row or index changes, journal
    nothing, and both planes leave the same audit records and
    charges."""

    @staticmethod
    def failed_writes(plane):
        rm, kernel, store, provider, __, clean = world(plane)
        journal = []
        store.on_mutate = lambda op, data: journal.append(op)
        store.create_table(provider, "t", indexes=("a",))
        store.insert(provider, "t", {"a": 1, "b": 3})
        table = store.table("t")

        def state():
            return (store.snapshot()["tables"],
                    {v: sorted(ids for b in parts.values() for ids in b)
                     for v, parts in table.indexes["a"].items()})

        before, audited = state(), len(kernel.audit)
        charged = {kind: rm.total(kind) for kind in KINDS}
        journal.clear()
        with pytest.raises(SchemaError, match="indexed column 'a'"):
            store.insert(provider, "t", {"a": [1], "b": 3})
        with pytest.raises(SchemaError, match="indexed column 'a'"):
            store.update(provider, "t", where={"b": 3}, changes={"a": [9]})
        assert state() == before
        assert journal == []
        assert store.select(clean, "t", where={"b": 3}) == [{"a": 1, "b": 3}]
        events = [(e.category, e.allowed, e.subject, e.detail)
                  for e in list(kernel.audit)[audited:]]
        return events, {kind: rm.total(kind) - charged[kind]
                        for kind in KINDS}

    def test_nothing_changes_and_planes_agree(self):
        assert self.failed_writes("fast") == self.failed_writes("oracle")


class TestPartitionStats:
    def test_skip_counters(self):
        _, _, store, provider, tainted, clean = world()
        store.create_table(provider, "t")
        for i in range(5):
            store.insert(provider, "t", {"n": i})
        for i in range(3):
            store.insert(tainted, "t", {"n": i})
        store.select(clean, "t")
        stats = store.stats()
        assert store.partitioned
        assert stats["partitions_visible"] == 1
        assert stats["partitions_skipped"] == 1
        assert stats["rows_skipped"] == 3
        assert stats["batched_charges"] >= 2  # invisible still charged

    def test_naive_engine_reports_itself(self):
        _, _, store, _, _, _ = world(plane="oracle")
        assert store.partitioned is False


class TestPartitionPersistence:
    def test_restore_rebuilds_partitions(self):
        _, kernel, store, provider, tainted, clean = world()
        store.create_table(provider, "t", indexes=("k",))
        for i in range(6):
            store.insert((provider, tainted)[i % 2], "t", {"k": i % 3})
        snap = store.snapshot()
        # an oracle kernel sharing the tag registry restores the same
        # snapshot onto the naive engine
        oracle = Kernel(plane="oracle")
        oracle.tags = kernel.tags
        for into, partitioned in ((kernel, True), (oracle, False)):
            restored = restore_store(into, snap)
            assert restored.partitioned is partitioned
            table = restored.table("t")
            assert len(table.partitions) == 2
            assert sum(len(p) for p in table.partitions.values()) == 6
            for pkey, rows in table.partitions.items():
                for rid, row in rows.items():
                    assert table.rows[rid] is row
                    assert (row.slabel, row.ilabel) == pkey
            # the restored store answers queries on either engine
            assert restored.count(clean, "t", where={"k": 0}) == 1

    def test_external_row_removal_keeps_partitions_consistent(self):
        """provider.delete_account-style callers pop rows directly and
        call index_remove; partitions must follow."""
        _, _, store, provider, tainted, _ = world()
        store.create_table(provider, "t", indexes=("k",))
        rid = store.insert(tainted, "t", {"k": 1})
        store.insert(provider, "t", {"k": 1})
        table = store.table("t")
        row = table.rows.pop(rid)
        table.index_remove(row)
        assert len(table.partitions) == 1
        assert all(rid not in p for p in table.partitions.values())
        assert all(rid not in ids
                   for bucket in table.indexes["k"].values()
                   for ids in bucket.values())


class TestMetricsObservation:
    def test_data_plane_snapshot(self):
        from repro import W5System
        w5 = W5System(name="m9-metrics")
        snap = w5.provider.stats()
        assert snap["plane"] == "fast"
        assert {"partitions_visible", "partitions_skipped"} <= set(snap["db"])
        assert "subtrees_pruned" in snap["fs"]

    def test_engine_flags_thread_through_system(self):
        from repro import W5System
        w5 = W5System(name="m9-naive", config=ProviderConfig.oracle())
        assert w5.provider.db.partitioned is False
        assert w5.provider.fs.grouped_walk is False


class TestLimitParity:
    """The naive limit quirk (limit<1 still returns the first match,
    scan charges stop at the limit-th match) must reproduce exactly."""

    @pytest.mark.parametrize("limit", [0, 1, 2, 5])
    def test_limit_results_and_charges_match(self, limit):
        outcomes = []
        for plane in ("fast", "oracle"):
            rm, _, store, provider, tainted, clean = world(plane)
            store.create_table(provider, "t")
            for i in range(10):
                store.insert((provider, tainted)[i % 3 == 0], "t", {"n": i})
            rows = store.select(clean, "t", limit=limit)
            outcomes.append(
                (rows, rm.usage_of(clean).get("db_rows_scanned")))
        assert outcomes[0] == outcomes[1]
