"""Tests for store persistence (provider restart)."""

import json

import pytest

from repro.db import LabeledStore, restore_store
from repro.kernel import Kernel
from repro.labels import Label, TagRegistry

from ..fs.test_persist import assert_one_dict_per_label, label_dicts


def build_world():
    kernel = Kernel(namespace="prod")
    provider = kernel.spawn_trusted("provider")
    t = kernel.create_tag(provider, purpose="bob")
    store = LabeledStore(kernel)
    store.create_table(provider, "posts", indexes=["author"],
                       pad_scan_to=100)
    store.insert(provider, "posts", {"author": "pub", "body": "open"})
    writer = kernel.spawn_trusted("w", slabel=Label([t]))
    store.insert(writer, "posts", {"author": "bob", "body": "private"})
    return kernel, store, t


def restart(kernel, store):
    registry_state = json.loads(json.dumps(kernel.tags.snapshot()))
    db_state = json.loads(json.dumps(store.snapshot()))
    new_kernel = Kernel(namespace="prod")
    new_kernel.tags = TagRegistry.import_state(registry_state)
    return new_kernel, restore_store(new_kernel, db_state)


class TestStorePersistence:
    def test_rows_roundtrip(self):
        kernel, store, t = build_world()
        nk, ns = restart(kernel, store)
        provider = nk.spawn_trusted("p")
        assert ns.count(provider, "posts", where={"author": "pub"}) == 1

    def test_label_filtering_survives(self):
        kernel, store, t = build_world()
        nk, ns = restart(kernel, store)
        snoop = nk.spawn_trusted("snoop")
        rows = ns.select(snoop, "posts")
        assert [r["author"] for r in rows] == ["pub"]
        cleared = nk.spawn_trusted("c", slabel=Label(
            [nk.tags.lookup(t.tag_id)]))
        assert ns.count(cleared, "posts") == 2

    def test_indexes_rebuilt(self):
        kernel, store, t = build_world()
        nk, ns = restart(kernel, store)
        cleared = nk.spawn_trusted("c", slabel=Label(
            [nk.tags.lookup(t.tag_id)]))
        rows = ns.select(cleared, "posts", where={"author": "bob"})
        assert len(rows) == 1 and rows[0]["body"] == "private"

    def test_pad_scan_to_survives(self):
        kernel, store, t = build_world()
        nk, ns = restart(kernel, store)
        assert ns.table("posts").pad_scan_to == 100

    def test_row_ids_do_not_collide_after_restart(self):
        kernel, store, t = build_world()
        nk, ns = restart(kernel, store)
        provider = nk.spawn_trusted("p")
        new_id = ns.insert(provider, "posts", {"author": "new"})
        cleared = nk.spawn_trusted("c", slabel=Label(
            [nk.tags.lookup(t.tag_id)]))
        assert ns.count(cleared, "posts") == 3
        ids = {r["author"] for r in ns.select(cleared, "posts")}
        assert ids == {"pub", "bob", "new"}

    def test_versions_roundtrip(self):
        kernel, store, t = build_world()
        provider = kernel.spawn_trusted("p0")
        store.update(provider, "posts", where={"author": "pub"},
                     changes={"body": "edited"})
        nk, ns = restart(kernel, store)
        p = nk.spawn_trusted("p")
        row = ns.select(p, "posts", where={"author": "pub"})[0]
        assert row["body"] == "edited"

    def test_row_versions_survive_restart(self):
        kernel, store, t = build_world()
        provider = kernel.spawn_trusted("p0")
        for body in ("v2", "v3"):
            store.update(provider, "posts", where={"author": "pub"},
                         changes={"body": body})
        nk, ns = restart(kernel, store)
        assert [r["version"] for r in ns.snapshot()["tables"][0]["rows"]] \
            == [3, 1]


# ----------------------------------------------------------------------
# label dicts are serialized once per snapshot and shared
# ----------------------------------------------------------------------

def build_tables():
    """Two tables of public and bob-labeled rows."""
    kernel, store, t = build_world()
    provider = kernel.spawn_trusted("provider2")
    writer = kernel.spawn_trusted("w2", slabel=Label([t]))
    store.create_table(provider, "notes", indexes=["author"])
    for i in range(3):
        store.insert(provider, "posts", {"author": "pub", "body": f"o{i}"})
        store.insert(writer, "posts", {"author": "bob", "body": f"p{i}"})
        store.insert(writer, "notes", {"author": "bob", "n": i})
    return kernel, store, t, provider, writer


def store_decisions(kernel, store, t):
    """What each principal sees, and what an update over all of it
    does: the count it rewrote, or the violation it raised."""
    tag = kernel.tags.lookup(t.tag_id)
    grid = {}
    for name, slabel in (("anon", Label()), ("bob", Label([tag]))):
        proc = kernel.spawn_trusted(name, slabel=slabel)
        for table in ("posts", "notes"):
            grid[(name, table, "select")] = sorted(
                json.dumps(r, sort_keys=True)
                for r in store.select(proc, table))
            try:
                grid[(name, table, "update")] = store.update(
                    proc, table, changes={"seen": True})
            except Exception as exc:
                grid[(name, table, "update")] = type(exc).__name__
    return grid


class TestSharedLabelDicts:
    def test_full_snapshot_one_dict_per_label(self):
        kernel, store, *__ = build_tables()
        snap = store.snapshot()
        assert_one_dict_per_label(snap)
        assert len({id(d) for d in label_dicts(snap)}) == 2
        assert json.loads(json.dumps(snap)) == snap

    def test_restore_from_shared_snapshot_keeps_decisions(self):
        """Restoring straight from the shared-dict snapshot (no JSON
        round trip) gives the same decisions as the original."""
        kernel, store, t, *__ = build_tables()
        snap = store.snapshot()
        nk = Kernel(namespace="prod")
        nk.tags = TagRegistry.import_state(kernel.tags.snapshot())
        ns = restore_store(nk, snap)
        before = store_decisions(kernel, store, t)
        assert before[("anon", "notes", "select")] == []
        assert before[("bob", "notes", "update")] == 3
        assert store_decisions(nk, ns, t) == before
