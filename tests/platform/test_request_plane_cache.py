"""Invalidation coverage for the O(1) request plane.

The launch-capability index and the authority memo are only sound if
every policy-changing event drops the affected entries.  Each test
here warms a cache, flips one policy mid-session, and asserts the next
request sees the new world — plus the one *negative* case that must
never be cached: a time-dependent declassifier.
"""

import pytest

from repro.core import W5System
from repro.platform import ProviderConfig
from repro.declassify import TimeEmbargo
from repro.labels import minus, plus


@pytest.fixture
def w5():
    sys_ = W5System(name="plane")
    sys_.add_user("alice", apps=("blog",))
    sys_.add_user("bob", apps=("blog",))
    return sys_


def alice_tag(w5):
    return w5.provider.account("alice").data_tag


class TestLaunchCapIndex:
    def test_warm_lookup_hits(self, w5):
        app = w5.provider.apps.get("blog")
        first = w5.provider.launch_caps(app, "alice")
        again = w5.provider.launch_caps(app, "alice")
        assert first is again  # interned + memoized
        stats = w5.provider.capindex.stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_fast_and_slow_paths_agree(self, w5):
        app = w5.provider.apps.get("blog")
        for viewer in ("alice", "bob", None):
            assert w5.provider.launch_caps(app, viewer) \
                == w5.provider._scan_launch_caps(app, viewer)

    def test_enable_app_mid_session_extends_caps(self, w5):
        w5.add_user("carol")  # no apps yet
        app = w5.provider.apps.get("blog")
        carol_tag = w5.provider.account("carol").data_tag
        assert plus(carol_tag) not in w5.provider.launch_caps(app, "alice")
        w5.provider.enable_app("carol", "blog")
        assert plus(carol_tag) in w5.provider.launch_caps(app, "alice")

    def test_disable_app_mid_session_shrinks_caps(self, w5):
        app = w5.provider.apps.get("blog")
        assert plus(alice_tag(w5)) in w5.provider.launch_caps(app, "bob")
        w5.provider.disable_app("alice", "blog")
        assert plus(alice_tag(w5)) not in w5.provider.launch_caps(app, "bob")
        # and alice's own relaunches lose her write privilege too
        assert w5.provider.launch_caps(app, "alice") \
            == w5.provider._scan_launch_caps(app, "alice")

    def test_disable_stops_cross_user_reads_end_to_end(self, w5):
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        assert w5.client("alice").get(
            "/app/blog/read", author="alice", title="t").ok
        w5.provider.disable_app("alice", "blog")
        r = w5.client("alice").get("/app/blog/read",
                                   author="alice", title="t")
        assert r.status == 403  # no read cap -> label violation

    def test_group_roster_change_invalidates(self, w5):
        w5.add_user("carol", apps=("blog",))
        group = w5.provider.groups.create("alice", "club")
        app = w5.provider.apps.get("blog")
        w5.provider.launch_caps(app, "alice")  # warm
        w5.provider.groups.add_member("alice", "club", "carol",
                                      writer=True)
        assert plus(group.data_tag) in w5.provider.launch_caps(app, "carol")
        w5.provider.groups.remove_member("alice", "club", "carol")
        assert w5.provider.launch_caps(app, "carol") \
            == w5.provider._scan_launch_caps(app, "carol")

    def test_delete_account_drops_caps(self, w5):
        app = w5.provider.apps.get("blog")
        tag = alice_tag(w5)
        assert plus(tag) in w5.provider.launch_caps(app, "bob")  # warm
        w5.provider.delete_account("alice")
        assert plus(tag) not in w5.provider.launch_caps(app, "bob")


class TestAuthorityCache:
    def test_warm_oracle_hits(self, w5):
        w5.provider._authority_for("bob")
        before = w5.provider.declass.authority_stats()
        w5.provider._authority_for("bob")
        after = w5.provider.declass.authority_stats()
        assert after["hits"] == before["hits"] + 1

    def test_friendship_added_mid_session(self, w5):
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")

    def test_friendship_removed_mid_session(self, w5):
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")
        w5.unfriend("alice", "bob")
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")

    def test_config_update_invalidates(self, w5):
        w5.provider._authority_for("bob")  # warm
        w5.provider.update_declassifier_config(
            "alice", "friends-only", friends={"bob"})
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")

    def test_revoke_invalidates(self, w5):
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")
        w5.provider.revoke_declassifier("alice", "friends-only")
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")

    def test_grant_invalidates(self, w5):
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")
        w5.provider.grant_builtin_declassifier("alice", "public")
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")

    def test_time_embargo_is_never_cached(self, w5):
        w5.provider.grant_declassifier(
            "alice", TimeEmbargo({"release_at": 100.0}))
        declass = w5.provider.declass
        # before the embargo lifts: warm the cache thoroughly
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")
        # the clock advances with NO invalidation event at all
        declass.now = 150.0
        assert minus(alice_tag(w5)) in w5.provider._authority_for("bob")
        # and back (e.g. a re-imposed embargo): still live
        declass.now = 0.0
        assert minus(alice_tag(w5)) not in w5.provider._authority_for("bob")

    def test_end_to_end_export_follows_friendship(self, w5):
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        r = w5.client("bob").get("/app/blog/read", author="alice",
                                 title="t")
        assert r.status == 403
        w5.befriend("alice", "bob")
        r = w5.client("bob").get("/app/blog/read", author="alice",
                                 title="t")
        assert r.ok and r.body["body"] == "b"
        w5.unfriend("alice", "bob")
        r = w5.client("bob").get("/app/blog/read", author="alice",
                                 title="t")
        assert r.status == 403

    def test_kind_and_attribute_calls_bypass_the_cache(self, w5):
        declass = w5.provider.declass
        before = declass.authority_stats()["bypasses"]
        declass.authority_for("bob", kind="photo")
        assert declass.authority_stats()["bypasses"] == before + 1

    def test_disabled_plane_computes_fresh(self):
        slow = W5System(name="slow-plane", config=ProviderConfig.oracle())
        slow.add_user("alice")
        slow.add_user("bob")
        slow.provider._authority_for("bob")
        slow.provider._authority_for("bob")
        stats = slow.provider.declass.authority_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert slow.provider.capindex.stats()["hits"] == 0


class TestMetricsObservation:
    def test_request_plane_snapshot(self, w5):
        from repro.core import Metrics
        m = Metrics(w5.audit()).attach_request_plane(w5.provider)
        w5.client("alice").get("/app/blog/list")
        snap = m.request_plane_snapshot()
        assert {"launch_caps", "authority", "pool",
                "audit_dropped"} <= set(snap)
        assert snap["pool"]["enabled"]
        assert snap["launch_caps"]["misses"] >= 1
