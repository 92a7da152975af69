"""Unit tests for provider peering and account mirroring."""

import pytest

from repro.federation import ProviderLink, SyncError, converged
from repro.fs import FsView
from repro.platform import (NoSuchUser, NotAuthorized, Provider,
                            ProviderConfig)


def make_providers(config=None):
    a = Provider(name="w5-alpha", config=config)
    b = Provider(name="w5-beta", config=config)
    a.signup("bob", "pw")
    b.signup("bob", "pw")
    a.signup("eve", "pw")
    b.signup("eve", "pw")
    return a, b


@pytest.fixture()
def providers():
    return make_providers()


@pytest.fixture()
def link(providers):
    a, b = providers
    return ProviderLink(a, b)


class TestLinking:
    def test_self_peering_rejected(self, providers):
        a, __ = providers
        with pytest.raises(SyncError):
            ProviderLink(a, a)

    def test_link_requires_both_accounts(self, link):
        with pytest.raises(NoSuchUser):
            link.link_account("ghost")

    def test_link_and_state(self, link):
        state = link.link_account("bob")
        assert not state.granted_on_a and not state.granted_on_b
        assert link.state_of("bob") is state
        assert link.state_of("nobody") is None

    def test_sync_without_link_fails(self, link):
        with pytest.raises(SyncError):
            link.sync_user("bob")

    def test_sync_without_grants_fails(self, link):
        link.link_account("bob")
        with pytest.raises(NotAuthorized):
            link.sync_user("bob")

    def test_one_sided_grant_insufficient(self, link):
        link.link_account("bob")
        link.grant_sync("bob", on="a")
        with pytest.raises(NotAuthorized):
            link.sync_user("bob")


class TestSync:
    def _full_link(self, link):
        link.link_account("bob")
        link.grant_sync("bob")
        return link

    def test_a_to_b_propagation(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "diary.txt", "day one")
        moved = link.sync_user("bob")
        assert moved == 1
        assert b.read_user_data("bob", "diary.txt") == "day one"
        assert converged(link, "bob")

    def test_b_to_a_propagation(self, providers, link):
        a, b = providers
        self._full_link(link)
        b.store_user_data("bob", "notes.txt", "from beta")
        link.sync_user("bob")
        assert a.read_user_data("bob", "notes.txt") == "from beta"

    def test_update_propagates(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        link.sync_user("bob")
        # user edits on A; next round carries the edit
        agent = a._user_agent(a.account("bob"))
        FsView(a.fs, agent).write("/users/bob/f", "v2")
        a.kernel.exit(agent)
        link.sync_user("bob")
        assert b.read_user_data("bob", "f") == "v2"

    def test_sync_is_idempotent(self, providers, link):
        a, __ = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        assert link.sync_user("bob") == 1
        assert link.sync_user("bob") == 0

    def test_conflict_resolves_deterministically(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "from-A")
        b.store_user_data("bob", "f", "from-B")
        link.sync_user("bob")
        # A is pumped first: A's content wins on both sides
        assert a.read_user_data("bob", "f") == "from-A"
        assert b.read_user_data("bob", "f") == "from-A"
        assert converged(link, "bob")

    def test_only_linked_users_data_moves(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("eve", "private.txt", "eves-stuff")
        link.sync_user("bob")
        # eve never linked: her file stays on A only
        from repro.fs import NoSuchPath
        with pytest.raises(Exception):
            b.read_user_data("eve", "private.txt")

    def test_mirrored_data_still_protected_on_b(self, providers, link):
        """The §3.3 requirement: the mirror is as protected on B as the
        original on A — eve on B cannot read bob's mirrored diary."""
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "diary.txt", "BOBS-MIRRORED-SECRET")
        link.sync_user("bob")
        eve_proc = b.kernel.spawn_trusted("eve-snoop")
        from repro.labels import SecrecyViolation
        with pytest.raises(SecrecyViolation):
            FsView(b.fs, eve_proc).read("/users/bob/diary.txt")

    def test_transfer_counter(self, providers, link):
        a, __ = providers
        self._full_link(link)
        a.store_user_data("bob", "f1", "x")
        a.store_user_data("bob", "f2", "y")
        link.sync_user("bob")
        assert link.state_of("bob").transfers == 2


class TestErrorPaths:
    """Satellite coverage: the ways linking and sync can fail."""

    def test_link_account_missing_on_b_only(self, providers):
        a, b = providers
        a.signup("solo", "pw")  # account exists on exactly one side
        link = ProviderLink(a, b)
        with pytest.raises(NoSuchUser):
            link.link_account("solo")
        assert link.state_of("solo") is None  # no half-linked state

    def test_link_account_missing_on_a_only(self, providers):
        a, b = providers
        b.signup("only-b", "pw")
        link = ProviderLink(a, b)
        with pytest.raises(NoSuchUser):
            link.link_account("only-b")
        assert link.state_of("only-b") is None

    def test_sync_unlinked_user_while_another_is_linked(self, link):
        link.link_account("bob")
        link.grant_sync("bob")
        with pytest.raises(SyncError):
            link.sync_user("eve")

    def test_grant_sync_before_link_fails(self, link):
        with pytest.raises(SyncError):
            link.grant_sync("bob")

    def test_one_sided_grants_compose(self, providers, link):
        a, b = providers
        link.link_account("bob")
        link.grant_sync("bob", on="b")
        with pytest.raises(NotAuthorized):
            link.sync_user("bob")
        link.grant_sync("bob", on="a")  # the other side completes it
        a.store_user_data("bob", "f", "x")
        assert link.sync_user("bob") == 1


class TestNaiveTwinConfig:
    """Oracle-plane providers keep no journal, so every round of their
    link is the naive content reconciliation."""

    @pytest.fixture()
    def providers(self):
        return make_providers(ProviderConfig.oracle())

    @pytest.fixture()
    def naive_link(self, providers):
        a, b = providers
        return ProviderLink(a, b)

    def _full_link(self, link):
        link.link_account("bob")
        link.grant_sync("bob")
        return link

    def test_propagation_and_idempotence(self, providers, naive_link):
        a, b = providers
        self._full_link(naive_link)
        a.store_user_data("bob", "f", "v1")
        assert naive_link.sync_user("bob") == 1
        assert b.read_user_data("bob", "f") == "v1"
        assert naive_link.sync_user("bob") == 0

    def test_conflict_still_resolves_for_a(self, providers, naive_link):
        a, b = providers
        self._full_link(naive_link)
        a.store_user_data("bob", "f", "from-A")
        b.store_user_data("bob", "f", "from-B")
        naive_link.sync_user("bob")
        assert b.read_user_data("bob", "f") == "from-A"

    def test_stats_report_engine_choice(self, providers, naive_link):
        a, __ = providers
        self._full_link(naive_link)
        a.store_user_data("bob", "f", "v1")
        assert naive_link.sync_user("bob") == 1
        agent = a._user_agent(a.account("bob"))
        FsView(a.fs, agent).write("/users/bob/f", "v2")
        a.kernel.exit(agent)
        assert naive_link.sync_user("bob") == 1
        assert naive_link.sync_user("bob") == 0
        stats = naive_link.federation_stats()
        assert stats["fallback_rounds"] == 3
        assert stats["delta_rounds"] == stats["full_recons"] == 0
        assert stats["cursor_lag"] == {}


class TestDeltaEngine:
    """The default engine's cursor behavior, observable via stats."""

    def _full_link(self, link):
        link.link_account("bob")
        link.grant_sync("bob")
        return link

    def test_first_round_is_full_recon_then_delta(self, providers, link):
        a, __ = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        link.sync_user("bob")
        stats = link.federation_stats()
        assert stats["full_recons"] == 1 and stats["delta_rounds"] == 0
        link.sync_user("bob")
        stats = link.federation_stats()
        assert stats["full_recons"] == 1 and stats["delta_rounds"] == 1

    def test_quiet_delta_round_moves_nothing(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        link.sync_user("bob")
        assert link.sync_user("bob") == 0
        # cursor is caught up on both sides
        lag = link.federation_stats()["cursor_lag"]["bob"]
        assert lag == {"a": 0, "b": 0}

    def test_delta_round_ships_only_the_dirty_file(self, providers, link):
        a, b = providers
        self._full_link(link)
        for i in range(5):
            a.store_user_data("bob", f"f{i}", f"v{i}")
        link.sync_user("bob")
        agent = a._user_agent(a.account("bob"))
        FsView(a.fs, agent).write("/users/bob/f3", "changed")
        a.kernel.exit(agent)
        assert link.sync_user("bob") == 1
        assert b.read_user_data("bob", "f3") == "changed"

    def test_deleted_file_resurrects_like_naive(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "keep")
        link.sync_user("bob")
        agent = a._user_agent(a.account("bob"))
        FsView(a.fs, agent).delete("/users/bob/f")
        a.kernel.exit(agent)
        link.sync_user("bob")
        # the naive pump never deletes: B's copy flows back to A
        assert a.read_user_data("bob", "f") == "keep"
        assert converged(link, "bob")

    def test_one_checkpoint_keeps_delta_rounds(self, providers, link):
        a, b = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        link.sync_user("bob")
        a.store_user_data("bob", "g", "v1")
        a._durability.checkpoint()  # the kept epoch holds "g"'s write
        a.store_user_data("bob", "h", "v1")
        assert link.sync_user("bob") == 2
        stats = link.federation_stats()
        assert stats["full_recons"] == 1 and stats["delta_rounds"] == 1
        assert b.read_user_data("bob", "g") == "v1"
        assert converged(link, "bob")

    def test_two_checkpoints_force_one_full_recon(self, providers, link):
        a, __ = providers
        self._full_link(link)
        a.store_user_data("bob", "f", "v1")
        link.sync_user("bob")
        a._durability.checkpoint()
        a._durability.checkpoint()  # the cursor's epoch is gone
        assert link.federation_stats()["cursor_lag"]["bob"]["a"] is None
        link.sync_user("bob")
        stats = link.federation_stats()
        assert stats["full_recons"] == 2
        link.sync_user("bob")
        assert link.federation_stats()["full_recons"] == 2

    def test_replace_provider_requires_membership(self, providers, link):
        other = Provider(name="w5-gamma")
        with pytest.raises(SyncError):
            link.replace_provider(other, other)
