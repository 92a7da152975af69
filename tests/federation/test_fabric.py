"""Tests for the consistent-hash federation fabric (M15)."""

import pytest

from repro.federation import (FederationFabric, ProviderDown, SyncError,
                              converged)
from repro.platform import BaseMismatch, NoSuchUser, ProviderConfig


@pytest.fixture()
def fabric():
    return FederationFabric(4)


def setup_mirrored_user(fabric, username="bob"):
    home = fabric.signup(username, "pw")
    mirror = (home + 1) % len(fabric.providers)
    fabric.mirror(username, mirror)
    return home, mirror


class TestDirectory:
    def test_placement_is_deterministic(self, fabric):
        assert fabric.home_of("bob") == fabric.home_of("bob")
        other = FederationFabric(4)
        assert fabric.home_of("bob") == other.home_of("bob")

    def test_placement_spreads_users(self, fabric):
        homes = {fabric.home_of(f"user{i}") for i in range(40)}
        assert len(homes) >= 2
        assert all(0 <= h < 4 for h in homes)

    def test_signup_lands_on_ring_home(self, fabric):
        home = fabric.signup("bob", "pw")
        assert home == fabric.home_of("bob")
        fabric.provider(home).account("bob")  # exists there
        for i in range(4):
            if i != home:
                with pytest.raises(NoSuchUser):
                    fabric.provider(i).account("bob")

    def test_needs_two_providers(self):
        with pytest.raises(SyncError):
            FederationFabric(1)


class TestMirroring:
    def test_mirror_syncs_data(self, fabric):
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "diary", "day one")
        moved = fabric.sync_user("bob")
        assert moved == 1
        assert fabric.provider(mirror).read_user_data(
            "bob", "diary") == "day one"

    def test_mirror_to_home_rejected(self, fabric):
        home = fabric.signup("bob", "pw")
        with pytest.raises(SyncError):
            fabric.mirror("bob", home)

    def test_mirror_unknown_user_rejected(self, fabric):
        with pytest.raises(NoSuchUser):
            fabric.mirror("ghost", 0)

    def test_routed_read_uses_home(self, fabric):
        fabric.signup("bob", "pw")
        fabric.store_user_data("bob", "f", "x")
        assert fabric.read_user_data("bob", "f") == "x"

    def test_links_are_shared_between_pairs(self, fabric):
        assert fabric.link_between(0, 1) is fabric.link_between(1, 0)
        assert fabric.link_between(0, 1) is not fabric.link_between(0, 2)


class TestTransitiveRing:
    """3+ providers: data written at one end reaches the other."""

    def test_chain_a_b_c(self):
        fabric = FederationFabric(3)
        # place bob everywhere, regardless of ring home
        home = fabric.signup("bob", "pw")
        others = [i for i in range(3) if i != home]
        for i in others:
            fabric.mirror("bob", i)
        fabric.store_user_data("bob", "f", "ripple")
        fabric.sync_user("bob")
        for i in range(3):
            assert fabric.provider(i).read_user_data("bob", "f") == "ripple"
        # every (home, mirror) link converged
        for i in others:
            link = fabric.link_between(home, i)
            assert converged(link, "bob")

    def test_chain_through_intermediate(self):
        """A → B → C via two pairwise links (no direct A-C link):
        convergence is transitive across sync rounds."""
        fabric = FederationFabric(3)
        home = fabric.signup("bob", "pw")
        first, second = [i for i in range(3) if i != home]
        fabric.mirror("bob", first)   # home <-> first
        fabric.store_user_data("bob", "f", "hop")
        fabric.link_between(home, first).sync_user("bob")
        # now extend the chain: first <-> second, account made by mirror()
        fabric.mirror("bob", second)
        chain = fabric.link_between(first, second)
        chain.link_account("bob")
        chain.grant_sync("bob")
        chain.sync_user("bob")
        assert fabric.provider(second).read_user_data("bob", "f") == "hop"


class TestFailureRecovery:
    def test_read_fails_over_to_mirror(self, fabric):
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "f", "survives")
        fabric.sync_user("bob")
        fabric.crash(home)
        assert fabric.read_user_data("bob", "f") == "survives"

    def test_read_with_no_live_copy_raises(self, fabric):
        home = fabric.signup("bob", "pw")
        fabric.store_user_data("bob", "f", "x")
        fabric.crash(home)
        with pytest.raises(ProviderDown):
            fabric.read_user_data("bob", "f")

    def test_recovery_replays_journal_and_reattaches(self, fabric):
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "f", "v1")
        fabric.sync_user("bob")
        link = fabric.link_between(home, mirror)
        before = link.federation_stats()["full_recons"]
        fabric.crash(home)
        report = fabric.recover(home)
        assert report is not None
        # the write survived the crash via journal replay
        assert fabric.read_user_data("bob", "f") == "v1"
        # cursors were invalidated: next round is one full recon...
        fabric.store_user_data("bob", "g", "v2")
        assert fabric.sync_user("bob") == 1
        stats = link.federation_stats()
        assert stats["full_recons"] == before + 1
        # ...and after it, delta rounds resume
        delta_before = stats["delta_rounds"]
        fabric.sync_user("bob")
        assert link.federation_stats()["delta_rounds"] == delta_before + 1
        assert fabric.provider(mirror).read_user_data("bob", "g") == "v2"

    def test_sync_skips_downed_side_and_resumes(self, fabric):
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "f", "v1")
        fabric.crash(mirror)
        assert fabric.sync_user("bob") == 0  # peer down: no sync
        fabric.recover(mirror)
        assert fabric.sync_user("bob") == 1

    def test_recover_without_crash_rejected(self, fabric):
        with pytest.raises(SyncError):
            fabric.recover(0)

    def test_recover_refuses_a_journal_compacted_behind_its_back(self):
        """The fabric holds each provider's base.  A direct
        snapshot_incremental() that compacts hands a new base to
        someone else: the journal then extends a checkpoint the fabric
        does not hold, and recovery refuses it instead of folding it
        over the old base and losing the compacted writes."""
        fabric = FederationFabric(
            2, provider_config=ProviderConfig(journal_compact_bytes=1))
        home = fabric.signup("bob", "pw")
        fabric.store_user_data("bob", "f", "v1")
        snap = fabric.provider(home).snapshot_incremental()
        assert snap.get("kind") != "delta"
        fabric.store_user_data("bob", "g", "v2")
        fabric.crash(home)
        with pytest.raises(BaseMismatch):
            fabric.recover(home)
        with pytest.raises(ProviderDown):
            fabric.provider(home)

    def test_recovered_provider_crashes_and_recovers_again(self, fabric):
        """Recovery hands the fabric the recovered provider's base, so
        a second crash folds over it."""
        home = fabric.signup("bob", "pw")
        fabric.store_user_data("bob", "f", "v1")
        fabric.crash(home)
        fabric.recover(home)
        fabric.store_user_data("bob", "g", "v2")
        fabric.crash(home)
        report = fabric.recover(home)
        assert report["records_replayed"] > 0
        assert fabric.read_user_data("bob", "f") == "v1"
        assert fabric.read_user_data("bob", "g") == "v2"

    def test_crashed_provider_is_unaddressable(self, fabric):
        fabric.crash(2)
        with pytest.raises(ProviderDown):
            fabric.provider(2)


class TestObservability:
    def test_fabric_federation_stats(self, fabric):
        from repro.fs import FsView
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "f", "x" * 100)
        fabric.sync_user("bob")  # full recon: moves via the naive twin
        # edit on the link's A side so the new bytes win the round
        provider = fabric.provider(min(home, mirror))
        agent = provider._user_agent(provider.account("bob"))
        FsView(provider.fs, agent).write("/users/bob/f", "y" * 120)
        provider.kernel.exit(agent)
        fabric.sync_user("bob")  # delta round: moves via envelopes
        snap = fabric.federation_stats()
        assert snap["providers"] == 4 and snap["links"] == 1
        assert snap["transfers"] == 2
        assert snap["envelopes_sent"] == 1
        assert snap["bytes_moved"] >= 120
        per_link = snap["per_link"][0]
        assert per_link["full_recons"] == 1 and per_link["delta_rounds"] == 1

    def test_link_federation_stats(self, fabric):
        home, mirror = setup_mirrored_user(fabric)
        link = fabric.link_between(home, mirror)
        assert link.federation_stats()["linked_users"] == 1

    def test_identical_rewrite_ships_nothing(self, fabric):
        """A file rewritten with identical bytes is touched in the
        journal, but the round's content comparison finds both sides
        equal and ships no envelope."""
        from repro.fs import FsView
        home, mirror = setup_mirrored_user(fabric)
        fabric.store_user_data("bob", "f", "same")
        fabric.sync_user("bob")
        sent = fabric.federation_stats()["envelopes_sent"]
        provider = fabric.provider(min(home, mirror))
        agent = provider._user_agent(provider.account("bob"))
        FsView(provider.fs, agent).write("/users/bob/f", "same")
        provider.kernel.exit(agent)
        assert fabric.sync_user("bob") == 0
        assert fabric.federation_stats()["envelopes_sent"] == sent

    def test_sync_spans_reach_trace_report(self):
        fabric = FederationFabric(2, tracing=True)
        for provider in fabric.providers:
            provider.tracer.fold_every = 1  # fold every trace's children
        home = fabric.signup("bob", "pw")
        mirror = 1 - home
        fabric.mirror("bob", mirror)
        fabric.store_user_data("bob", "f", "v1")
        fabric.sync_user("bob")  # full recon under a fed.sync request
        # dirty a file so the next round ships an envelope batch
        from repro.fs import FsView
        provider = fabric.provider(home)
        agent = provider._user_agent(provider.account("bob"))
        FsView(provider.fs, agent).write("/users/bob/f", "v2")
        provider.kernel.exit(agent)
        fabric.sync_user("bob")
        lower = fabric.provider(min(home, mirror))
        upper = fabric.provider(max(home, mirror))
        report = lower.trace_report()
        assert "fed.sync" in report["latencies"]
        # Since M16 the envelope span folds on whichever provider
        # *applied* the batch; destination-side spans are grafted back
        # under fed.sync rather than mis-attached to side A's tracer.
        names = set(report["latencies"]) \
            | set(upper.trace_report().get("latencies", {}))
        assert "fed.envelope" in names

    def test_recovered_provider_keeps_tracing(self):
        """Recovery rebuilds a traced provider on a traced fabric: the
        fed.sync rounds rooted on it keep reaching its trace_report."""
        fabric = FederationFabric(2, tracing=True)
        home = fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - home)
        fabric.crash(0)
        fabric.recover(0)
        assert [p.tracer.enabled for p in fabric.providers] == [True, True]
        fabric.store_user_data("bob", "f", "v1")
        assert fabric.sync_user("bob") == 1
        report = fabric.provider(0).trace_report()
        assert "fed.sync" in report["latencies"]

    def test_sync_trace_stitches_remote_envelope(self):
        """The fed.sync trace is one tree: a remote-side fed.envelope
        shows up grafted under the root, tagged with its origin."""
        fabric = FederationFabric(2, tracing=True)
        for provider in fabric.providers:
            provider.tracer.fold_every = 1
        home = fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - home)
        fabric.store_user_data("bob", "f", "v1")
        fabric.sync_user("bob")
        # dirty the home copy: the next round ships home -> mirror
        from repro.fs import FsView
        provider = fabric.provider(home)
        agent = provider._user_agent(provider.account("bob"))
        FsView(provider.fs, agent).write("/users/bob/f", "v2")
        provider.kernel.exit(agent)
        fabric.sync_user("bob")
        lower = fabric.provider(0)
        syncs = [t for t in lower.recorder.dump()["slowest"]
                 if t["root"] and t["root"]["name"] == "fed.sync"]
        assert syncs

        def names(span):
            yield span["name"], span["attrs"]
            for child in span["children"]:
                yield from names(child)

        seen = [pair for trace in syncs for pair in names(trace["root"])]
        envelopes = [attrs for name, attrs in seen if name == "fed.envelope"]
        assert envelopes, "no fed.envelope anywhere in the fed.sync trees"
        if home == 0:
            # batch applied on provider 1 -> must arrive as a graft
            assert any("origin" in attrs for attrs in envelopes)
            grafted = [t for t in syncs if t.get("grafts")]
            assert grafted and all(t.get("orphan_grafts", 0) == 0
                                   for t in grafted)

    def test_health_report_crash_recover_cycle(self):
        """crash() flips the fleet view to down; recover() brings the
        provider back but leaves the link degraded (stale cursors)
        until one sync round re-attaches them."""
        fabric = FederationFabric(2, provider_config=ProviderConfig())
        home = fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - home)
        fabric.store_user_data("bob", "f", "v1")
        fabric.sync_user("bob")
        report = fabric.health_report()
        assert report["state"] == "ok"
        assert report["providers"]["provider:0"]["state"] == "ok"
        assert report["links"]["link:0<->1"]["state"] == "ok"
        lag = report["links"]["link:0<->1"]["cursor_lag"]["bob"]
        assert lag == {"a": 0, "b": 0}

        fabric.crash(home)
        report = fabric.health_report()
        assert report["state"] == "down"
        assert report["providers"][f"provider:{home}"]["state"] == "down"
        link = report["links"]["link:0<->1"]
        assert link["state"] == "degraded"
        assert any("peer down" in r for r in link["reasons"])

        fabric.recover(home)
        report = fabric.health_report()
        # provider is back, but the link's cursors were invalidated:
        # degraded (full recon pending) until the next sync round
        assert report["providers"][f"provider:{home}"]["state"] == "ok"
        link = report["links"]["link:0<->1"]
        assert link["state"] == "degraded"
        assert any("stale cursor" in r for r in link["reasons"])
        assert report["state"] == "degraded"

        fabric.sync_user("bob")
        report = fabric.health_report()
        assert report["state"] == "ok"
        assert report["links"]["link:0<->1"]["reasons"] == []

    def test_health_stays_ok_across_one_compaction(self):
        """A compaction keeps the ending journal epoch for the link's
        cursors, so no full reconciliation is pending: the link stays
        ok and its lag counts the records the next round will tail."""
        fabric = FederationFabric(
            2, provider_config=ProviderConfig(journal_compact_bytes=1))
        home = fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - home)
        fabric.store_user_data("bob", "f", "v1")
        fabric.sync_user("bob")
        fabric.store_user_data("bob", "g", "v1")
        provider = fabric.provider(home)
        provider.snapshot_incremental()
        assert provider._durability.stats()["compactions"] == 1
        fabric.store_user_data("bob", "h", "v1")
        report = fabric.health_report()
        link = report["links"]["link:0<->1"]
        assert link["state"] == "ok" and link["reasons"] == []
        side = "a" if home == 0 else "b"
        lag = link["cursor_lag"]["bob"][side]
        assert isinstance(lag, int) and lag >= 2
        assert report["state"] == "ok"
