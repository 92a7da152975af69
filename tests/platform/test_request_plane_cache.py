"""Invalidation coverage for the O(1) request plane.

The launch-capability index and the export authority a compiled plan
holds are only sound if every policy-changing event retires the
affected entries.  Each test here warms a cache, flips one policy
mid-session, and asserts the next request sees the new world — plus
the one *negative* case that must never be held: a time-dependent
declassifier, whose verdict egress asks live.

A stale plan refreshes its held authority through the service's dirty
log, which is scoped to the owners an edit concerns, so
``TestScopedAuthority`` also pins what that scope must cover (a group
policy shared inside another owner's combinator), what it may cost
(one owner's grants), its bounded log, and that held authority is
never reused across a change of the viewer's own tags.
``TestScopedAuthorityHistory`` runs the plane state machine
(``tests/platform/test_plane_machine.py``) focused on friendships,
grants, club roster changes and reads, checking every viewer's planned
authority against the oracle plane after every step.

Partition scans take their read verdicts from the flow cache's
label-state table, so ``TestScanVerdictBound`` pins that the table holds
one batch's working set.
"""

import pytest

from repro.core import W5System
from repro.platform import ProviderConfig
from repro.declassify import AnyOf, Declassifier, TimeEmbargo
from repro.declassify.service import DIRTY_LOG_EPOCHS
from repro.labels import minus, plus
from repro.labels.cache import MAX_STATES
from repro.net import ExternalClient, HttpRequest

from .._differential import PlanePair
from .test_plane_machine import run_focused


@pytest.fixture
def w5():
    sys_ = W5System(name="plane")
    sys_.add_user("alice", apps=("blog",))
    sys_.add_user("bob", apps=("blog",))
    return sys_


def alice_tag(w5):
    return w5.provider.account("alice").data_tag


def planned(w5, viewer):
    """The authority a planned blog request for ``viewer`` exports
    under: the plan's held authority plus the live verdicts of the
    non-cacheable grants."""
    plan = w5.provider.plans.lookup("blog", viewer)
    return w5.provider.declass.with_live_grants(plan.authority, viewer)


def evaluations(monkeypatch, declass):
    """The size of every grant evaluation ``declass`` runs from now on
    (live calls, plan compiles and scoped refreshes alike)."""
    sizes = []
    evaluate = declass._evaluate

    def spy(grants, *args):
        sizes.append(len(grants))
        return evaluate(grants, *args)

    monkeypatch.setattr(declass, "_evaluate", spy)
    return sizes


def cacheable(declass, *owners):
    return [g for o in owners for g in declass.grants_for(o)
            if g.declassifier.cacheable]


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
    def test_current_plan_evaluates_no_grant(self, w5, monkeypatch):
        w5.client("bob").get("/app/blog/post", title="t", body="b")
        w5.provider.plans.lookup("blog", "bob")  # compiled: a full scan
        sizes = evaluations(monkeypatch, w5.provider.declass)
        assert minus(w5.provider.account("bob").data_tag) \
            in planned(w5, "bob")
        r = w5.client("bob").get("/app/blog/read", author="bob", title="t")
        assert r.ok and r.body["body"] == "b"
        assert sizes == []

    def test_friendship_added_mid_session(self, w5):
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in planned(w5, "bob")

    def test_friendship_removed_mid_session(self, w5):
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in planned(w5, "bob")
        w5.unfriend("alice", "bob")
        assert minus(alice_tag(w5)) not in planned(w5, "bob")

    def test_config_update_invalidates(self, w5):
        planned(w5, "bob")  # warm
        w5.provider.update_declassifier_config(
            "alice", "friends-only", friends={"bob"})
        assert minus(alice_tag(w5)) in planned(w5, "bob")

    def test_revoke_invalidates(self, w5):
        w5.befriend("alice", "bob")
        assert minus(alice_tag(w5)) in planned(w5, "bob")
        w5.provider.revoke_declassifier("alice", "friends-only")
        assert minus(alice_tag(w5)) not in planned(w5, "bob")

    def test_grant_invalidates(self, w5):
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        w5.provider.grant_builtin_declassifier("alice", "public")
        assert minus(alice_tag(w5)) in planned(w5, "bob")

    def test_time_embargo_is_never_cached(self, w5):
        w5.provider.grant_declassifier(
            "alice", TimeEmbargo({"release_at": 100.0}))
        declass = w5.provider.declass
        # before the embargo lifts: warm the cache thoroughly
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        # the clock advances with NO invalidation event at all
        declass.now = 150.0
        assert minus(alice_tag(w5)) in planned(w5, "bob")
        # and back (e.g. a re-imposed embargo): still live
        declass.now = 0.0
        assert minus(alice_tag(w5)) not in planned(w5, "bob")

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

    def test_kind_and_attribute_calls_are_live(self, w5, monkeypatch):
        declass = w5.provider.declass
        w5.provider.plans.lookup("blog", "bob")
        sizes = evaluations(monkeypatch, declass)
        declass.authority_for("bob", kind="photo")
        declass.authority_for("bob", app="blog")
        assert sizes == [len(declass._grants)] * 2

    def test_oracle_plane_evaluates_every_call(self, monkeypatch):
        slow = W5System(name="slow-plane", config=ProviderConfig.oracle())
        slow.add_user("alice")
        slow.add_user("bob", apps=("blog",))
        declass = slow.provider.declass
        sizes = evaluations(monkeypatch, declass)
        slow.provider._authority_for("bob")
        slow.provider._authority_for("bob")
        assert sizes == [len(declass._grants)] * 2
        assert slow.client("bob").get("/app/blog/post", title="t",
                                      body="b").ok
        assert sizes == [len(declass._grants)] * 3  # its egress asks live
        assert slow.provider.plans.stats()["hits"] == 0
        assert slow.provider.capindex.stats()["hits"] == 0


USERS = ("alice", "bob", "carol", "dave")
VIEWERS = USERS + (None,)


def build_club(config):
    """Four users; alice owns group ``club``; carol's grant wraps the
    club's roster policy object in a combinator of her own."""
    w5 = W5System(name="scoped", config=config)
    for user in USERS:
        w5.add_user(user, apps=("blog",))
        w5.client(user).get("/app/blog/post", title="t", body=user)
    club = w5.provider.groups.create("alice", "club")
    w5.provider.grant_declassifier("carol", AnyOf(club.policy))
    return w5


class CountingFriends(Declassifier):
    """A cacheable friends list that counts its own decisions."""

    name = "counting"

    def __init__(self, config=None):
        super().__init__(config)
        self.calls = 0

    def decide(self, ctx):
        self.calls += 1
        return ctx.viewer in self.config.get("friends", ())


class TestScopedAuthority:
    def test_shared_group_policy_invalidates_other_owner(self):
        pair = PlanePair(build_club)
        pair.assert_authority_agrees(VIEWERS)  # plan every fast viewer
        carol_tag = minus(pair.fast.provider.account("carol").data_tag)
        assert carol_tag not in planned(pair.fast, "dave")
        for w5 in (pair.fast, pair.oracle):
            w5.provider.groups.add_member("alice", "club", "dave")
        assert carol_tag in planned(pair.fast, "dave")
        pair.assert_authority_agrees(VIEWERS)
        for w5 in (pair.fast, pair.oracle):
            w5.provider.groups.remove_member("alice", "club", "dave")
        assert carol_tag not in planned(pair.fast, "dave")
        pair.assert_authority_agrees(VIEWERS)
        assert pair.fast.provider.declass.authority_stats()["refreshes"] > 0
        pair.assert_equivalent()

    def test_time_embargo_flips_on_top_of_a_refresh(self, w5, monkeypatch):
        w5.add_user("carol")
        w5.provider.grant_declassifier(
            "alice", TimeEmbargo({"release_at": 100.0}))
        declass = w5.provider.declass
        w5.client("alice").get("/app/blog/post", title="t", body="b")

        def read():
            return w5.client("bob").get("/app/blog/read", author="alice",
                                        title="t").status

        assert read() == 403
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        w5.befriend("carol", "bob")  # a scoped edit: bob's plan refreshes
        before = declass.authority_stats()
        sizes = evaluations(monkeypatch, declass)
        carol = minus(w5.provider.account("carol").data_tag)
        authority = planned(w5, "bob")
        assert carol in authority and minus(alice_tag(w5)) not in authority
        after = declass.authority_stats()
        assert after["refreshes"] == before["refreshes"] + 1
        assert sizes == [len(cacheable(declass, "carol", "bob"))]
        # the clock alone lifts the embargo, and re-imposes it, on a
        # plan that stays current
        declass.now = 150.0
        authority = planned(w5, "bob")
        assert carol in authority and minus(alice_tag(w5)) in authority
        assert read() == 200
        declass.now = 0.0
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        assert read() == 403
        assert len(sizes) == 1

    def test_edit_re_evaluates_only_the_editors_grants(self):
        w5 = W5System(name="counting")
        owners = [f"u{i}" for i in range(8)]
        for user in owners + ["bob"]:
            w5.add_user(user)
        policies = {}
        for user in owners:
            policies[user] = CountingFriends({"friends": ["bob"]})
            w5.provider.grant_declassifier(user, policies[user])
        w5.provider.plans.lookup("blog", "bob")  # compiled: a full scan
        assert all(p.calls == 1 for p in policies.values())
        for p in policies.values():
            p.calls = 0
        w5.provider.update_declassifier_config("u3", "counting", friends=[])
        authority = planned(w5, "bob")
        assert {u: p.calls for u, p in policies.items() if p.calls} \
            == {"u3": 1}
        assert minus(w5.provider.account("u3").data_tag) not in authority
        assert minus(w5.provider.account("u4").data_tag) in authority
        assert w5.provider.declass.authority_stats()["refreshes"] == 1

    def test_dirty_log_is_bounded_and_falls_back_to_a_full_scan(
            self, w5, monkeypatch):
        declass = w5.provider.declass
        assert minus(alice_tag(w5)) not in planned(w5, "bob")
        grant = declass.grant_for("alice", "friends-only")
        for i in range(10_000):
            friends = ["bob"] if i == 9_999 else [f"x{i % 7}"]
            w5.provider.update_declassifier_config(
                "alice", "friends-only", friends=friends)
            assert len(declass._dirty_log) <= DIRTY_LOG_EPOCHS
        assert grant.declassifier.config["friends"] == {"bob"}
        before = declass.authority_stats()
        sizes = evaluations(monkeypatch, declass)
        assert minus(alice_tag(w5)) in planned(w5, "bob")
        after = declass.authority_stats()
        assert sizes == [len(cacheable(declass, *declass._by_owner))]
        assert after["refreshes"] == before["refreshes"]

    def test_signup_again_gets_the_new_data_tag(self, w5):
        """A deleted viewer signed up again under the same name holds
        a new data tag.  With no grant of their own, neither the
        deletion nor the signup bumps the authority epoch, so only the
        own-tag check keeps the stale plan's authority from being
        handed on."""
        w5.provider.revoke_declassifier("alice", "friends-only")
        old = minus(alice_tag(w5))
        assert old in planned(w5, "alice")
        epoch = w5.provider.declass.authority_epoch
        w5.provider.delete_account("alice")
        alice = ExternalClient("alice", w5.provider.transport())
        alice.post("/signup", params={"username": "alice", "password": "pw"})
        alice.login("pw")
        alice.post("/policy/enable", params={"app": "blog"})
        assert w5.provider.declass.authority_epoch == epoch
        new = minus(alice_tag(w5))
        authority = planned(w5, "alice")
        assert new in authority and old not in authority
        assert alice.get("/app/blog/post", title="t", body="b").ok
        r = alice.get("/app/blog/read", author="alice", title="t")
        assert r.ok and r.body["body"] == "b"


class TestScopedAuthorityHistory:
    def test_every_step_agrees_with_the_oracle(self):
        run_focused("befriend", "unfriend", "public_grant", "club_grant",
                    "club_roster", "read", examples=50, steps=20)


class TestMetricsObservation:
    def test_request_plane_snapshot(self, w5):
        w5.client("alice").get("/app/blog/list")
        snap = w5.provider.stats()
        assert {"launch_caps", "authority", "pool", "plans",
                "audit"} <= set(snap)
        assert snap["plane"] == "fast"
        assert snap["launch_caps"]["misses"] >= 1


class TestScanVerdictBound:
    #: One ``policy_churn`` batch: 64 viewers plus the probe, one label
    #: state each.  A table of 64 states cleared on overflow lost every
    #: verdict between two such batches.
    VIEWERS = 65

    def test_second_batch_scans_from_the_table(self):
        assert self.VIEWERS >= MAX_STATES // 2 + 1
        w5 = W5System(name="bound", config=ProviderConfig.fast())
        users = [f"u{i:03d}" for i in range(self.VIEWERS)]
        for u in users:
            assert w5.add_user(u, apps=("blog",)).get(
                "/app/blog/post", title="t", body="b").ok
        provider = w5.provider
        tokens = {u: provider.sessions.login(u, "pw").token for u in users}
        batch = [HttpRequest(method="GET", path="/app/blog/list",
                             params={"author": u},
                             cookies={"w5_session": tokens[u]})
                 for u in users]
        cache = provider.kernel.flow_cache

        def misses():
            return cache.stats()["misses"].get("db.read", 0)

        assert all(r.status == 200 for r in provider.handle_batch(batch))
        cold = misses()
        assert cold >= self.VIEWERS  # one fresh state per viewer
        hits = cache.stats()["hits"].get("db.read", 0)
        assert all(r.status == 200 for r in provider.handle_batch(batch))
        assert misses() == cold
        assert cache.stats()["hits"]["db.read"] - hits >= self.VIEWERS
