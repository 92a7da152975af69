"""O(dirty) incremental snapshots: delta + merge == full (PR 4)."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.platform import (Provider, ProviderConfig, merge_delta,
                            restore_provider,
                            snapshot_provider)

from .test_journal_replay import (MUTATIONS, TIMELINE, canon,
                                  fresh_provider, run_timeline)


class TestDeltaMergeEqualsFull:
    def test_rich_timeline(self):
        p, base, __ = run_timeline(TIMELINE)
        delta = snapshot_provider(p, incremental=True)
        assert delta["kind"] == "delta"
        assert canon(merge_delta(base, delta)) == \
            canon(snapshot_provider(p))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from([
        "profile", "enable", "prefer", "store", "grant", "config",
        "revoke", "endorse", "retract", "js", "pin", "unpin", "clock",
        "disable", "member_add", "member_remove", "delete",
    ]), min_size=0, max_size=10))
    def test_random_mutations(self, steps):
        p, base, __ = run_timeline(
            ["signup", "signup2", "grant", "group"] + steps,
            tolerant=True)
        delta = snapshot_provider(p, incremental=True)
        merged = merge_delta(base, delta)
        assert canon(merged) == canon(snapshot_provider(p))

    def test_merged_snapshot_restores(self):
        """A merged snapshot is a first-class snapshot: it restores."""
        p, base, __ = run_timeline(["signup", "enable", "store",
                                    "grant"])
        merged = merge_delta(base, snapshot_provider(p, incremental=True))
        p2, report = restore_provider(copy.deepcopy(merged),
                                      app_catalog=STANDARD_CATALOG)
        assert report["missing_apps"] == []
        assert p2.read_user_data("bob", "d.txt") == "day one"
        assert canon(snapshot_provider(p2)) == canon(snapshot_provider(p))

    def test_deltas_are_cumulative_not_chained(self):
        """Only (base, latest delta) need be retained: an earlier delta
        can be discarded, the newest one still merges to full."""
        p, base, __ = run_timeline(["signup"])
        __ = snapshot_provider(p, incremental=True)  # discarded
        MUTATIONS["profile"](p)
        MUTATIONS["store"](p)
        latest = snapshot_provider(p, incremental=True)
        assert canon(merge_delta(base, latest)) == \
            canon(snapshot_provider(p))


class TestDeltaIsODirty:
    def test_clean_state_serializes_nothing(self):
        p = fresh_provider()
        for i in range(20):
            p.signup(f"user{i:03d}", "pw")
        p._durability.checkpoint()  # everyone clean
        p.set_profile("user005", mood="good")
        delta = snapshot_provider(p, incremental=True)
        assert [a["username"] for a in delta["accounts"]] == ["user005"]
        assert delta["fs"]["upserts"] == {}
        assert delta["registry"]["tags"] == []
        assert delta["grants_by_owner"] == {}

    def test_fs_delta_only_touched_paths(self):
        p = fresh_provider()
        for i in range(10):
            p.signup(f"user{i:03d}", "pw")
            p.store_user_data(f"user{i:03d}", "a.txt", f"v{i}")
        p._durability.checkpoint()
        p.store_user_data("user003", "b.txt", "new")
        delta = snapshot_provider(p, incremental=True)
        assert list(delta["fs"]["upserts"]) == ["/users/user003/b.txt"]
        assert delta["removed_accounts"] == []

    def test_db_delta_only_touched_rows(self):
        p = fresh_provider()
        p.signup("bob", "pw")
        p.enable_app("bob", "blog")
        from repro.net import ExternalClient
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        for i in range(5):
            bob.get("/app/blog/post", title=f"t{i}", body="x")
        p._durability.checkpoint()
        bob.get("/app/blog/post", title="fresh", body="y")
        delta = snapshot_provider(p, incremental=True)
        rows = [r for t in delta["db"]["tables"].values()
                for r in t["rows"]]
        assert len(rows) == 1  # only the new post's row


class TestCompaction:
    def test_threshold_triggers_full_snapshot(self):
        p = Provider(name="tiny",
                     config=ProviderConfig(journal_compact_bytes=256))
        install_standard_apps(p)
        p.signup("bob", "pw")  # blows well past 256 journal bytes
        assert p._durability.journal.needs_compaction()
        snap = snapshot_provider(p, incremental=True)
        assert snap.get("kind") != "delta"  # escalated to full
        assert p._durability.journal.size_bytes == 0  # re-based
        stats = p.persistence_stats()
        assert stats["compactions"] == 1
        # below threshold again: back to deltas
        p.set_profile("bob", mood="ok")
        assert snapshot_provider(p, incremental=True)["kind"] == "delta"
        assert canon(merge_delta(snap,
                                 snapshot_provider(p, incremental=True))) \
            == canon(snapshot_provider(p))

    def test_first_emit_without_base_is_full(self):
        p = Provider(name="w5")
        p._durability.base = None  # simulate no checkpoint yet
        snap = snapshot_provider(p, incremental=True)
        assert snap.get("kind") != "delta"


class TestNaiveBaseline:
    def test_flag_off_means_no_journal(self):
        p = Provider(name="naive", config=ProviderConfig.oracle())
        install_standard_apps(p)
        p.signup("bob", "pw")
        assert p._durability is None
        assert p.persistence_stats() == {"incremental_persistence": False}
        # incremental request degrades to a full snapshot
        snap = snapshot_provider(p, incremental=True)
        assert snap.get("kind") != "delta"
        assert canon(snap) == canon(snapshot_provider(p))

    def test_both_modes_snapshot_identically(self):
        def world(config):
            p = Provider(name="prod", config=config)
            install_standard_apps(p)
            p.signup("bob", "pw")
            p.enable_app("bob", "blog")
            p.grant_builtin_declassifier("bob", "friends-only",
                                         {"friends": ["amy"]})
            p.store_user_data("bob", "d.txt", "day one")
            return snapshot_provider(p)
        assert canon(world(ProviderConfig.fast())) \
            == canon(world(ProviderConfig.oracle()))


class TestMetricsSurface:
    def test_attach_persistence(self):
        p = fresh_provider()
        p.signup("bob", "pw")
        snap = p.stats()["persistence"]
        assert snap["incremental_persistence"] is True
        assert snap["appends"] > 0
        assert snap["bytes_written"] > 0
        for key in ("compactions", "replay_records",
                    "torn_truncations", "full_snapshots",
                    "incremental_snapshots", "opaque_appends"):
            assert key in snap

    def test_unattached_is_empty(self):
        oracle = Provider(config=ProviderConfig.oracle())
        assert oracle.stats()["persistence"] == {
            "incremental_persistence": False}


def _containers(value, found=None):
    """id -> object for every dict and list reachable from ``value``."""
    found = {} if found is None else found
    if isinstance(value, (dict, list)) and id(value) not in found:
        found[id(value)] = value
        for child in (value.values() if isinstance(value, dict) else value):
            _containers(child, found)
    return found


class TestMergeDoesNotAlias:
    def test_editing_merged_labels_leaves_inputs_alone(self):
        p, __, __ = run_timeline(["signup", "signup2", "enable", "store",
                                  "grant", "group", "member_add"])
        delta = snapshot_provider(p, incremental=True)
        assert delta["kind"] == "delta" and delta["fs"]["upserts"]
        base = p._durability.base  # the manager's live base
        before = canon(base), canon(delta)
        merged = merge_delta(base, delta)

        labels = [obj for obj in _containers(merged).values()
                  if isinstance(obj, dict) and "tags" in obj
                  and "namespace" in obj]
        assert labels
        for d in labels:
            d["namespace"] = "edited"
            d["tags"].append({"tag_id": -1, "purpose": "", "kind": "",
                              "owner": None})
        assert (canon(base), canon(delta)) == before
        shared = (_containers(merged).keys()
                  & (_containers(base).keys() | _containers(delta).keys()))
        assert not shared
