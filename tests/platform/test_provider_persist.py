"""Tests for whole-provider snapshot/restore."""

import json

import pytest

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.declassify import ViewerPredicate
from repro.net import ExternalClient
from repro.platform import (PlatformError, Provider, recover_provider,
                            restore_provider, set_password,
                            snapshot_provider)


@pytest.fixture()
def live_provider():
    p = Provider(name="prod")
    install_standard_apps(p)
    p.signup("bob", "pw")
    p.signup("amy", "pw")
    p.enable_app("bob", "blog")
    p.enable_app("amy", "blog")
    p.grant_builtin_declassifier("bob", "friends-only",
                                 {"friends": ["amy"]})
    p.grant_builtin_declassifier("amy", "friends-only",
                                 {"friends": ["bob"]})
    p.set_profile("bob", music="jazz")
    p.prefer_module("bob", "cropper", "crop-smart")
    p.endorse_module("blog")
    p.store_user_data("bob", "diary.txt", "day one")
    bob = ExternalClient("bob", p.transport())
    bob.login("pw")
    bob.get("/app/blog/post", title="t", body="hello")
    return p


def roundtrip(provider):
    state = json.loads(json.dumps(snapshot_provider(provider)))
    return restore_provider(state, app_catalog=STANDARD_CATALOG)


class TestSnapshotRestore:
    def test_snapshot_is_json_serializable(self, live_provider):
        json.dumps(snapshot_provider(live_provider))

    def test_accounts_restored(self, live_provider):
        p2, report = roundtrip(live_provider)
        bob = p2.account("bob")
        assert bob.has_enabled("blog")
        assert bob.profile["music"] == "jazz"
        assert bob.preferred_module("cropper") == "crop-smart"
        assert report["missing_apps"] == []

    def test_user_data_restored_with_labels(self, live_provider):
        p2, __ = roundtrip(live_provider)
        assert p2.read_user_data("bob", "diary.txt") == "day one"
        # and still protected: a stranger process cannot read it
        from repro.fs import FsView
        from repro.labels import SecrecyViolation
        snoop = p2.kernel.spawn_trusted("snoop")
        with pytest.raises(SecrecyViolation):
            FsView(p2.fs, snoop).read("/users/bob/diary.txt")

    def test_full_request_flow_after_restart(self, live_provider):
        """Re-set passwords, re-login, and the whole pipeline works:
        amy (friend) reads bob's restored blog post."""
        p2, __ = roundtrip(live_provider)
        set_password(p2, "amy", "newpw")
        amy = ExternalClient("amy", p2.transport())
        amy.login("newpw")
        r = amy.get("/app/blog/read", author="bob", title="t")
        assert r.ok and r.body["body"] == "hello"

    def test_policy_enforced_after_restart(self, live_provider):
        p2, __ = roundtrip(live_provider)
        set_password(p2, "bob", "x")
        p2.signup("eve", "pw")
        p2.enable_app("eve", "blog")
        eve = ExternalClient("eve", p2.transport())
        eve.login("pw")
        r = eve.get("/app/blog/read", author="bob", title="t")
        assert r.status == 403

    def test_sessions_do_not_survive(self, live_provider):
        p2, __ = roundtrip(live_provider)
        stale = ExternalClient("bob", p2.transport())
        stale.cookies["w5_session"] = "old-token"
        r = stale.post("/policy/enable", params={"app": "blog"})
        assert r.status == 403  # not logged in anymore

    def test_endorsements_and_ledgers_restored(self, live_provider):
        p2, __ = roundtrip(live_provider)
        assert p2.endorsements.is_endorsed("blog")
        assert ("bob", "blog") in p2.adoptions

    def test_nonbuiltin_grant_reported_not_restored(self, live_provider):
        live_provider.grant_declassifier(
            "bob", ViewerPredicate({"predicate": lambda o, v, a: True}))
        state = snapshot_provider(live_provider)
        assert any(g["declassifier"] == "viewer-predicate"
                   for g in state["skipped_grants"])
        p2, report = restore_provider(
            json.loads(json.dumps(state)), app_catalog=STANDARD_CATALOG)
        assert any(g["declassifier"] == "viewer-predicate"
                   for g in report["unrestored_grants"])
        names = {g.declassifier.name
                 for g in p2.declass.grants_for("bob")}
        assert names == {"friends-only"}

    def test_skipped_grant_without_tag_id_restores(self, live_provider):
        """A snapshot whose skipped grants predate their ``tag_id``
        restores, and a delta over it folds."""
        def anyone():
            return ViewerPredicate({"predicate": lambda o, v, a: True})
        live_provider.grant_declassifier("bob", anyone())
        state = json.loads(json.dumps(snapshot_provider(live_provider)))
        for g in state["skipped_grants"]:
            del g["tag_id"]
        p2, report = restore_provider(state, app_catalog=STANDARD_CATALOG)
        assert report["unrestored_grants"] == state["skipped_grants"]
        p2.grant_declassifier("amy", anyone())
        delta = p2.snapshot_incremental()
        assert delta["kind"] == "delta"
        __, report = recover_provider(state, delta["journal"].encode("ascii"),
                                      app_catalog=STANDARD_CATALOG)
        assert [(g["owner"], g["declassifier"])
                for g in report["unrestored_grants"]] == \
            [("amy", "viewer-predicate"), ("bob", "viewer-predicate")]

    def test_missing_app_reported(self, live_provider):
        state = json.loads(json.dumps(snapshot_provider(live_provider)))
        p2, report = restore_provider(state, app_catalog=[])  # no code!
        assert {"username": "bob", "app": "blog"} in report["missing_apps"]

    def test_set_password_guards(self, live_provider):
        p2, __ = roundtrip(live_provider)
        set_password(p2, "bob", "x")
        with pytest.raises(PlatformError):
            set_password(p2, "bob", "again")
        with pytest.raises(PlatformError):
            set_password(p2, "ghost", "x")

    def test_groups_survive_restart(self, live_provider):
        live_provider.groups.create("bob", "roommates")
        live_provider.groups.add_member("bob", "roommates", "amy",
                                        writer=True)
        p2, __ = roundtrip(live_provider)
        g = p2.groups.get("roommates")
        assert g.members == {"bob", "amy"}
        assert g.is_writer("amy")
        # the restored policy is live: removing amy updates exports
        p2.groups.remove_member("bob", "roommates", "amy")
        assert not p2.declass.may_release(g.data_tag, "amy")
        assert p2.declass.may_release(g.data_tag, "bob")

    def test_group_data_survives_and_is_protected(self, live_provider):
        from repro.net import ExternalClient
        live_provider.groups.create("bob", "roommates")
        live_provider.enable_app("bob", "club-board")
        bob = ExternalClient("bob", live_provider.transport())
        bob.login("pw")
        bob.get("/app/club-board/post", group="roommates",
                text="chores list")
        p2, __ = roundtrip(live_provider)
        set_password(p2, "bob", "x")
        bob2 = ExternalClient("bob", p2.transport())
        bob2.login("x")
        r = bob2.get("/app/club-board/read", group="roommates")
        assert r.ok
        assert r.body["board"][0]["text"] == "chores list"
        # non-members still blocked after the restart
        p2.signup("eve", "pw")
        p2.enable_app("eve", "club-board")
        eve = ExternalClient("eve", p2.transport())
        eve.login("pw")
        assert eve.get("/app/club-board/read",
                       group="roommates").status in (403, 500)

    def test_new_signups_after_restore_get_fresh_tags(self, live_provider):
        p2, __ = roundtrip(live_provider)
        carl = p2.signup("carl", "pw")
        existing_ids = {p2.account("bob").data_tag.tag_id,
                        p2.account("bob").write_tag.tag_id,
                        p2.account("amy").data_tag.tag_id,
                        p2.account("amy").write_tag.tag_id}
        assert carl.data_tag.tag_id not in existing_ids
