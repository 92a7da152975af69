"""Incremental snapshots: the delta is the journal since the checkpoint.

:meth:`Provider.snapshot_incremental` returns the journal image since
the last checkpoint as a ``"delta"`` (or a full snapshot at
compaction), and :func:`recover_provider` is the one fold of a base
and a delta.  Every history here checks that the fold equals the live
provider's full snapshot.
"""

import copy
import gc
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.core.journal import Journal
from repro.declassify import AnyOf, ViewerPredicate
from repro.platform import (BaseMismatch, Provider, ProviderConfig,
                            recover_provider, restore_provider,
                            snapshot_provider)
from repro.platform import persist

from .test_journal_replay import (MUTATIONS, TIMELINE, canon,
                                  fresh_provider, operator_base,
                                  run_timeline)


def fold(base, delta):
    """The provider that ``base`` plus ``delta`` recovers to."""
    assert delta["kind"] == "delta"
    provider, report = recover_provider(
        base, delta["journal"].encode("ascii"),
        app_catalog=STANDARD_CATALOG)
    assert report["truncated_bytes"] == 0
    return provider


def assert_fold_equals_live(base, delta, live):
    assert canon(snapshot_provider(fold(base, delta))) == \
        canon(snapshot_provider(live))


def delta_ops(delta):
    """The ops of the records a delta holds, in order."""
    records, __ = Journal.recover(delta["journal"].encode("ascii"))
    return [r.op for r in records]


class TestDeltaMergeEqualsFull:
    def test_rich_timeline(self):
        p, base, __ = run_timeline(TIMELINE)
        delta = p.snapshot_incremental()
        assert delta["kind"] == "delta"
        assert delta["journal_seq"] == p._durability.journal.seq
        assert_fold_equals_live(base, delta, p)

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
        assert_fold_equals_live(base, p.snapshot_incremental(), p)

    def test_merged_snapshot_restores(self):
        """The fold is a first-class recovery: the catalog is back and
        the data reads."""
        p, base, __ = run_timeline(["signup", "enable", "store",
                                    "grant"])
        delta = p.snapshot_incremental()
        p2, report = recover_provider(base, delta["journal"].encode("ascii"),
                                      app_catalog=STANDARD_CATALOG)
        assert report["missing_apps"] == []
        assert p2.read_user_data("bob", "d.txt") == "day one"
        assert canon(snapshot_provider(p2)) == canon(snapshot_provider(p))

    def test_unrestorable_grants_are_reported(self):
        """Replay cannot bring back a non-durable grant, and neither
        can a full restore: recovery reports the ones the live
        snapshot lists, from the base and the journal alike."""
        def anyone():
            return ViewerPredicate({"predicate": lambda o, v, a: True})
        p = fresh_provider()
        MUTATIONS["signup"](p)
        MUTATIONS["signup2"](p)
        p.grant_declassifier("bob", anyone())
        base = operator_base(p)
        p.grant_declassifier("amy", anyone())
        p.grant_declassifier("amy", AnyOf(anyone()))
        p.revoke_declassifier("bob", "viewer-predicate")
        delta = p.snapshot_incremental()
        __, report = recover_provider(base, delta["journal"].encode("ascii"),
                                      app_catalog=STANDARD_CATALOG)
        live = snapshot_provider(p)["skipped_grants"]
        assert [(g["owner"], g["declassifier"]) for g in live] == \
            [("amy", "any-of"), ("amy", "viewer-predicate")]
        assert report["unrestored_grants"] == live

    def test_deltas_are_cumulative_not_chained(self):
        """Only (base, latest delta) need be retained: an earlier delta
        can be discarded, the newest one still folds to full."""
        p, base, __ = run_timeline(["signup"])
        __ = p.snapshot_incremental()  # discarded
        MUTATIONS["profile"](p)
        MUTATIONS["store"](p)
        assert_fold_equals_live(base, p.snapshot_incremental(), p)


class TestDeltaIsODirty:
    """A delta holds exactly the journal records since the checkpoint."""

    def test_clean_state_serializes_nothing(self):
        p = fresh_provider()
        for i in range(20):
            p.signup(f"user{i:03d}", "pw")
        p._durability.checkpoint()  # everything is in the base
        clean = p.snapshot_incremental()
        assert delta_ops(clean) == [] and clean["journal_seq"] == 0
        p.set_profile("user005", mood="good")
        delta = p.snapshot_incremental()
        assert delta_ops(delta) == ["account.profile"]
        assert delta["journal_seq"] == 1

    def test_fs_delta_only_touched_paths(self):
        p = fresh_provider()
        for i in range(10):
            p.signup(f"user{i:03d}", "pw")
            p.store_user_data(f"user{i:03d}", "a.txt", f"v{i}")
        p._durability.checkpoint()
        p.store_user_data("user003", "b.txt", "new")
        records, __ = Journal.recover(
            p.snapshot_incremental()["journal"].encode("ascii"))
        assert [(r.op, r.data["path"]) for r in records] == \
            [("fs.create", "/users/user003/b.txt")]

    def test_db_delta_only_touched_rows(self):
        p = fresh_provider()
        p.signup("bob", "pw")
        p.enable_app("bob", "blog")
        from repro.net import ExternalClient
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        for i in range(5):
            bob.get("/app/blog/post", title=f"t{i}", body="x")
        base = operator_base(p)
        bob.get("/app/blog/post", title="fresh", body="y")
        delta = p.snapshot_incremental()
        records, __ = Journal.recover(delta["journal"].encode("ascii"))
        inserts = [r for r in records if r.op.startswith("db.")]
        assert [r.op for r in inserts] == ["db.insert"]  # the new post
        assert inserts[0].data["values"]["title"] == "fresh"
        assert_fold_equals_live(base, delta, p)


class TestCompaction:
    def test_threshold_triggers_full_snapshot(self):
        p = Provider(name="tiny",
                     config=ProviderConfig(journal_compact_bytes=256))
        install_standard_apps(p)
        p.signup("bob", "pw")  # blows well past 256 journal bytes
        assert p._durability.journal.needs_compaction()
        snap = p.snapshot_incremental()
        assert snap.get("kind") != "delta"  # escalated to full
        assert p._durability.journal.seq == 0  # re-based
        stats = p.persistence_stats()
        assert stats["compactions"] == 1
        # below threshold again: back to deltas
        p.set_profile("bob", mood="ok")
        delta = p.snapshot_incremental()
        assert delta["kind"] == "delta"
        p2, __ = recover_provider(snap, delta["journal"].encode("ascii"),
                                  app_catalog=STANDARD_CATALOG)
        assert canon(snapshot_provider(p2)) == canon(snapshot_provider(p))

    def test_first_emit_without_base_is_full(self):
        p = Provider(name="w5")
        snap = p.snapshot_incremental()
        assert snap.get("kind") != "delta"


def timeline_provider():
    """A provider that lived through the rich timeline, public API only
    (its first snapshot is the operator's base)."""
    p = Provider(name="prod")
    install_standard_apps(p)
    for step in TIMELINE:
        MUTATIONS[step](p)
    return p


class TestOperatorHoldsTheBase:
    """A delta only extends a base the operator holds: the snapshot a
    provider was restored from, or a full snapshot
    ``snapshot_incremental()`` returned."""

    def test_fresh_provider_hands_out_its_base_first(self):
        p = timeline_provider()
        base = p.snapshot_incremental()
        assert base.get("kind") != "delta"
        assert canon(base) == canon(snapshot_provider(p))
        MUTATIONS["profile"](p)
        delta = p.snapshot_incremental()
        assert delta["kind"] == "delta"
        assert_fold_equals_live(base, delta, p)

    def test_recovered_provider_hands_out_its_base_first(self):
        p = timeline_provider()
        base = p.snapshot_incremental()
        MUTATIONS["profile"](p)
        p2, __ = recover_provider(
            base, p.snapshot_incremental()["journal"].encode("ascii"),
            app_catalog=STANDARD_CATALOG)
        base2 = p2.snapshot_incremental()
        assert base2.get("kind") != "delta"
        assert canon(base2) == canon(snapshot_provider(p))
        p2.signup("carol", "pw")
        p2.store_user_data("carol", "x.txt", "hello")
        assert_fold_equals_live(base2, p2.snapshot_incremental(), p2)

    def test_restored_provider_deltas_extend_its_snapshot(self):
        """The provider_restart.py flow: no full snapshot after a
        restore, the first call is a delta over the restored state."""
        p = timeline_provider()
        state = copy.deepcopy(snapshot_provider(p))
        p2, __ = restore_provider(copy.deepcopy(state),
                                  app_catalog=STANDARD_CATALOG)
        MUTATIONS["profile"](p2)
        delta = p2.snapshot_incremental()
        assert delta["kind"] == "delta"
        assert_fold_equals_live(state, delta, p2)

    def test_no_full_snapshot_in_recovery(self):
        """A checkpoint is a journal reset: neither the bootstrap
        checkpoint every Provider() takes, nor recovery, nor a restore
        builds a full snapshot.  Only the operator's call does."""
        p = timeline_provider()
        base = p.snapshot_incremental()
        MUTATIONS["profile"](p)
        p2, __ = recover_provider(
            base, p.snapshot_incremental()["journal"].encode("ascii"),
            app_catalog=STANDARD_CATALOG)
        assert p2.persistence_stats()["full_snapshots"] == 0
        p3, __ = restore_provider(base, app_catalog=STANDARD_CATALOG)
        assert p3.persistence_stats()["full_snapshots"] == 0
        assert p2.snapshot_incremental().get("kind") != "delta"
        assert p2.persistence_stats()["full_snapshots"] == 1

    def test_provider_keeps_no_snapshot_it_hands_out(self):
        """Once returned, a full snapshot is the operator's alone:
        nothing reachable from the provider refers to it."""
        p = timeline_provider()
        snap = p.snapshot_incremental()
        assert snap.get("kind") != "delta"
        gc.collect()
        assert [r for r in gc.get_referrers(snap)
                if not isinstance(r, types.FrameType)] == []



class TestBaseIdentity:
    """Every full snapshot carries a checkpoint id, and the journal
    names the id of the base it extends: a fold over another base is
    refused."""

    def compacted(self):
        """A provider whose operator holds ``first``, then receives
        ``second`` from a compaction, then ``third``, a delta over
        ``second``."""
        p = Provider(name="w5",
                     config=ProviderConfig(journal_compact_bytes=512))
        p.signup("bob", "pw")
        first = p.snapshot_incremental()
        for i in range(6):
            p.store_user_data("bob", f"f{i}", "x" * 200)
        second = p.snapshot_incremental()
        assert second.get("kind") != "delta"
        assert p.persistence_stats()["compactions"] == 1
        p.store_user_data("bob", "f6", "y" * 200)
        third = p.snapshot_incremental()
        assert third["kind"] == "delta"
        return p, first, second, third

    def test_fold_over_a_replaced_base_is_refused(self, monkeypatch):
        p, first, second, third = self.compacted()
        assert first["checkpoint"] != second["checkpoint"]
        journal = third["journal"].encode("ascii")

        def no_install(*args):
            raise AssertionError("installed state before the check")

        with monkeypatch.context() as m:
            m.setattr(persist, "install_snapshot", no_install)
            with pytest.raises(BaseMismatch):
                recover_provider(first, journal)
        recovered, report = recover_provider(second, journal)
        assert report["records_replayed"] == 1
        for i in range(6):
            assert recovered.read_user_data("bob", f"f{i}") == "x" * 200
        assert recovered.read_user_data("bob", "f6") == "y" * 200

    def test_restore_adopts_the_snapshot_id(self):
        """A restored provider's deltas name the snapshot it installed,
        so they fold over it and over nothing else."""
        p, first, second, __ = self.compacted()
        restored, __ = restore_provider(second)
        restored.store_user_data("bob", "g", "after the restore")
        delta = restored.snapshot_incremental()
        assert delta["kind"] == "delta"
        journal = delta["journal"].encode("ascii")
        with pytest.raises(BaseMismatch):
            recover_provider(first, journal)
        recovered, __ = recover_provider(second, journal)
        assert recovered.read_user_data("bob", "g") == "after the restore"

    def test_idless_snapshots_do_not_fold_over_each_other(
            self, monkeypatch):
        """``snapshot_provider`` output carries no checkpoint id: a
        restore names it by its content, so a delta over one id-less
        snapshot is refused over another before anything is
        installed."""
        p = Provider(name="w5")
        p.signup("bob", "pw")
        p.store_user_data("bob", "f1", "one")
        s1 = copy.deepcopy(snapshot_provider(p))
        p.store_user_data("bob", "f2", "two")
        s2 = copy.deepcopy(snapshot_provider(p))
        p2, __ = restore_provider(copy.deepcopy(s2))
        p2.store_user_data("bob", "f3", "three")
        journal = p2.snapshot_incremental()["journal"].encode("ascii")

        def no_install(*args):
            raise AssertionError("installed state before the check")

        with monkeypatch.context() as m:
            m.setattr(persist, "install_snapshot", no_install)
            with pytest.raises(BaseMismatch):
                recover_provider(s1, journal)
        recovered, report = recover_provider(s2, journal)
        assert report["records_replayed"] >= 1
        assert recovered.read_user_data("bob", "f2") == "two"
        assert recovered.read_user_data("bob", "f3") == "three"

    def test_ids_are_not_a_counter(self):
        """Two providers built the same way name different
        checkpoints: an id is random bytes, not a per-process
        counter another provider (or process) repeats."""
        ids = {Provider(name="w5").snapshot_incremental()["checkpoint"]
               for __ in range(2)}
        assert len(ids) == 2 and all(len(i) == 32 for i in ids)


class TestOpaqueRecords:
    def test_opaque_record_forces_a_full_checkpoint(self):
        """A set payload cannot be journaled: the journal holds an
        opaque marker, so the next snapshot is a full checkpoint that
        carries the set, and later deltas fold onto it."""
        p, __, __ = run_timeline(["signup"])
        p.store_user_data("bob", "s.bin", {1, 2, 3})
        assert p._durability.journal.epoch_opaque == 1
        snap = p.snapshot_incremental()
        assert snap.get("kind") != "delta"
        assert canon(snap) == canon(snapshot_provider(p))
        assert p._durability.journal.epoch_opaque == 0
        MUTATIONS["profile"](p)
        delta = p.snapshot_incremental()
        assert delta["kind"] == "delta"
        recovered = fold(snap, delta)
        assert recovered.read_user_data("bob", "s.bin") == {1, 2, 3}
        assert canon(snapshot_provider(recovered)) == \
            canon(snapshot_provider(p))


class TestNaiveBaseline:
    def test_flag_off_means_no_journal(self):
        p = Provider(name="naive", config=ProviderConfig.oracle())
        install_standard_apps(p)
        p.signup("bob", "pw")
        assert p._durability is None
        assert p.persistence_stats() == {"incremental_persistence": False}
        # incremental request degrades to a full snapshot
        snap = p.snapshot_incremental()
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
