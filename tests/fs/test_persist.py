"""Tests for filesystem + registry persistence (provider restart)."""

import json

import pytest

from repro.fs import LabeledFileSystem, restore_fs
from repro.kernel import Kernel
from repro.labels import (CapabilitySet, Label, SecrecyViolation,
                          TagRegistry, minus, plus)


def build_world():
    kernel = Kernel(namespace="prod")
    provider = kernel.spawn_trusted("provider")
    t = kernel.create_tag(provider, purpose="bob-data", tag_owner="bob")
    w = kernel.create_tag(provider, purpose="bob-write",
                          kind="integrity", tag_owner="bob")
    fs = LabeledFileSystem(kernel)
    fs.mkdir(provider, "/users")
    agent = kernel.spawn_trusted("bob-agent", slabel=Label([t]),
                                 caps=CapabilitySet.owning(t, w))
    fs.mkdir(agent, "/users/bob", slabel=Label([t]), ilabel=Label([w]))
    fs.create(agent, "/users/bob/diary.txt", "day one",
              slabel=Label([t]), ilabel=Label([w]))
    fs.create(provider, "/motd", "welcome")
    return kernel, fs, t, w


def restart(kernel, fs):
    """Snapshot, serialize through JSON, rebuild in a new kernel."""
    registry_state = json.loads(json.dumps(kernel.tags.snapshot()))
    fs_state = json.loads(json.dumps(fs.snapshot()))
    new_kernel = Kernel(namespace="prod")
    new_kernel.tags = TagRegistry.import_state(registry_state)
    return new_kernel, restore_fs(new_kernel, fs_state)


class TestRegistryPersistence:
    def test_roundtrip_preserves_tags(self):
        kernel, fs, t, w = build_world()
        state = kernel.tags.snapshot()
        restored = TagRegistry.import_state(state)
        assert restored.lookup(t.tag_id) == t
        assert restored.lookup(t.tag_id).owner == "bob"
        assert restored.lookup(w.tag_id).kind == "integrity"

    def test_counter_continues_past_old_ids(self):
        kernel, fs, t, w = build_world()
        restored = TagRegistry.import_state(kernel.tags.snapshot())
        fresh = restored.create(purpose="new")
        assert fresh.tag_id > w.tag_id

    def test_foreign_map_roundtrips(self):
        reg = TagRegistry(namespace="A")
        imported = reg.import_foreign("B", 42, purpose="remote")
        restored = TagRegistry.import_state(reg.snapshot())
        again = restored.import_foreign("B", 42)
        assert again == imported


class TestFsPersistence:
    def test_data_roundtrips(self):
        kernel, fs, t, w = build_world()
        new_kernel, new_fs = restart(kernel, fs)
        reader = new_kernel.spawn_trusted("r", slabel=Label(
            [new_kernel.tags.lookup(t.tag_id)]))
        assert new_fs.read(reader, "/users/bob/diary.txt") == "day one"
        anon = new_kernel.spawn_trusted("anon")
        assert new_fs.read(anon, "/motd") == "welcome"

    def test_labels_still_enforced_after_restart(self):
        kernel, fs, t, w = build_world()
        new_kernel, new_fs = restart(kernel, fs)
        snoop = new_kernel.spawn_trusted("snoop")
        with pytest.raises(SecrecyViolation):
            new_fs.read(snoop, "/users/bob/diary.txt")

    def test_write_protection_survives_restart(self):
        from repro.labels import IntegrityViolation
        kernel, fs, t, w = build_world()
        new_kernel, new_fs = restart(kernel, fs)
        new_t = new_kernel.tags.lookup(t.tag_id)
        vandal = new_kernel.spawn_trusted("vandal", slabel=Label([new_t]))
        with pytest.raises(IntegrityViolation):
            new_fs.write(vandal, "/users/bob/diary.txt", "DEFACED")

    def test_decisions_identical_before_and_after(self):
        """Access matrix equality: for a grid of principals, every
        (principal, path, op) decision matches across the restart."""
        kernel, fs, t, w = build_world()
        new_kernel, new_fs = restart(kernel, fs)

        def decisions(k, f):
            tag = k.tags.lookup(t.tag_id)
            wtag = k.tags.lookup(w.tag_id)
            principals = {
                "anon": k.spawn_trusted("anon"),
                "reader": k.spawn_trusted("reader", slabel=Label([tag])),
                "editor": k.spawn_trusted(
                    "editor", slabel=Label([tag]),
                    caps=CapabilitySet([plus(wtag)])),
            }
            grid = {}
            for name, proc in principals.items():
                for path in ("/motd", "/users/bob/diary.txt"):
                    for op in ("read", "write"):
                        try:
                            if op == "read":
                                f.read(proc, path)
                            else:
                                f.write(proc, path, "x")
                            grid[(name, path, op)] = True
                        except Exception:
                            grid[(name, path, op)] = False
            return grid

        assert decisions(kernel, fs) == decisions(new_kernel, new_fs)

    def test_version_and_metadata_roundtrip(self):
        kernel, fs, t, w = build_world()
        provider = kernel.spawn_trusted("p2")
        fs.write(provider, "/motd", "v2")
        new_kernel, new_fs = restart(kernel, fs)
        anon = new_kernel.spawn_trusted("anon")
        st = new_fs.stat(anon, "/motd")
        assert st["version"] == 2
        assert st["created_by"] == "provider"


# ----------------------------------------------------------------------
# label dicts are serialized once per snapshot and shared
# ----------------------------------------------------------------------

USERS = ("alice", "bob", "carol")


def build_tree():
    """Three homes with their own tag pair and a public top level."""
    kernel = Kernel(namespace="prod")
    provider = kernel.spawn_trusted("provider")
    fs = LabeledFileSystem(kernel)
    fs.mkdir(provider, "/users")
    agents = {}
    for user in USERS:
        t = kernel.create_tag(provider, purpose=f"{user}-data",
                              tag_owner=user)
        w = kernel.create_tag(provider, purpose=f"{user}-write",
                              kind="integrity", tag_owner=user)
        labels = {"slabel": Label([t]), "ilabel": Label([w])}
        agent = kernel.spawn_trusted(f"{user}-agent", slabel=Label([t]),
                                     caps=CapabilitySet.owning(t, w))
        agents[user] = (agent, labels)
        fs.mkdir(agent, f"/users/{user}", **labels)
        for i in range(4):
            fs.create(agent, f"/users/{user}/f{i}", f"{user} {i}", **labels)
    fs.create(provider, "/motd", "welcome")
    return kernel, fs, provider, agents


def label_dicts(snapshot):
    """Every ``slabel``/``ilabel`` dict in ``snapshot`` (with repeats)."""
    found = []

    def visit(value):
        if isinstance(value, dict):
            for key, child in value.items():
                if key in ("slabel", "ilabel"):
                    found.append(child)
                else:
                    visit(child)
        elif isinstance(value, list):
            for child in value:
                visit(child)

    visit(snapshot)
    return found


def assert_one_dict_per_label(snapshot):
    dicts = label_dicts(snapshot)
    distinct = {json.dumps(d, sort_keys=True) for d in dicts}
    assert len(dicts) > len(distinct)  # something is actually shared
    assert len({id(d) for d in dicts}) == len(distinct)


def fs_decisions(kernel, fs, paths, agents):
    """(principal, path, op) -> allowed, over a grid of principals
    holding each home's tags as resolved in ``kernel``."""
    principals = {"anon": kernel.spawn_trusted("anon")}
    for user, (__, labels) in agents.items():
        t, w = (kernel.tags.lookup(tag.tag_id)
                for tag in (*labels["slabel"], *labels["ilabel"]))
        principals[f"{user}-reader"] = kernel.spawn_trusted(
            "r", slabel=Label([t]))
        principals[f"{user}-editor"] = kernel.spawn_trusted(
            "e", slabel=Label([t]), caps=CapabilitySet([plus(w)]))
    grid = {}
    for name, proc in principals.items():
        for path in paths:
            for op in ("read", "write"):
                try:
                    if op == "read":
                        fs.read(proc, path)
                    else:
                        fs.write(proc, path, fs.read(proc, path))
                    grid[(name, path, op)] = True
                except Exception:
                    grid[(name, path, op)] = False
    return grid


def json_equal(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSharedLabelDicts:
    def test_full_snapshot_one_dict_per_label(self):
        kernel, fs, __, __ = build_tree()
        snap = fs.snapshot()
        assert_one_dict_per_label(snap)
        assert len({id(d) for d in label_dicts(snap)}) == 1 + 2 * len(USERS)
        assert json.loads(json.dumps(snap)) == snap

    def test_restore_from_shared_snapshot_keeps_decisions(self):
        """Restoring straight from the shared-dict snapshot (no JSON
        round trip) gives the same access matrix as the original."""
        kernel, fs, __, agents = build_tree()
        paths = ["/motd"] + [f"/users/{u}/f{i}" for u in USERS
                             for i in range(2)]
        snap = fs.snapshot()
        new_kernel = Kernel(namespace="prod")
        new_kernel.tags = TagRegistry.import_state(
            kernel.tags.snapshot())
        new_fs = restore_fs(new_kernel, snap)
        before = fs_decisions(kernel, fs, paths, agents)
        assert set(before.values()) == {True, False}
        assert fs_decisions(new_kernel, new_fs, paths, agents) == before
        assert json_equal(new_fs.snapshot(), fs.snapshot())
