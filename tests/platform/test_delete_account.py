"""Tests for account deletion (the right to leave).

Deleting an account must also work on a provider rebuilt from a
snapshot or a journal, on both planes.  That holds because the account
service's standing privilege is provider-write alone: signup and group
creation hand back the ownership of the tags they mint, so a live
provider and its restored or recovered copy hold the same capability
set, and minting a tag costs O(1) in the number of users.
"""

import copy

import pytest

from repro import W5System
from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.fs import FsView
from repro.kernel import Kernel
from repro.labels import CapabilitySet
from repro.platform import (NoSuchUser, Provider, ProviderConfig,
                            recover_provider, restore_provider,
                            snapshot_provider)

from .._differential import PlanePair

PLANES = {"fast": ProviderConfig.fast, "oracle": ProviderConfig.oracle}


@pytest.fixture()
def world():
    w5 = W5System()
    bob = w5.add_user("bob", apps=["blog", "photo-share", "club-board"],
                      friends=["amy"])
    amy = w5.add_user("amy", apps=["blog", "club-board"], friends=["bob"])
    bob.get("/app/blog/post", title="t1", body="post-one")
    bob.get("/app/blog/post", title="t2", body="post-two")
    bob.get("/app/photo-share/upload", filename="p.jpg", data="<jpeg>")
    return w5, bob, amy


class TestDeleteAccount:
    def test_erasure_counts(self, world):
        w5, bob, amy = world
        erased = w5.provider.delete_account("bob")
        assert erased["files"] >= 1     # the photo
        assert erased["rows"] == 2      # the posts
        assert erased["grants"] == 1    # friends-only

    def test_account_gone(self, world):
        w5, bob, amy = world
        w5.provider.delete_account("bob")
        with pytest.raises(NoSuchUser):
            w5.provider.account("bob")
        assert w5.provider.usernames() == ["amy"]

    def test_data_unreachable_after_deletion(self, world):
        w5, bob, amy = world
        w5.provider.delete_account("bob")
        # amy (former friend) finds nothing
        r = amy.get("/app/blog/read", author="bob", title="t1")
        assert r.status in (403, 404, 500) or \
            r.body.get("error") is not None
        assert not amy.ever_received("post-one")

    def test_home_directory_gone(self, world):
        w5, *_ = world
        w5.provider.delete_account("bob")
        svc = w5.provider._account_service
        from repro.fs import FsView
        assert "bob" not in FsView(w5.provider.fs, svc).listdir("/users")

    def test_other_users_untouched(self, world):
        w5, bob, amy = world
        amy.get("/app/blog/post", title="a1", body="amys-post")
        w5.provider.delete_account("bob")
        assert amy.get("/app/blog/read", title="a1").body["body"] \
            == "amys-post"

    def test_tag_is_tombstoned_not_reused(self, world):
        w5, *_ = world
        old_tag = w5.provider.account("bob").data_tag
        w5.provider.delete_account("bob")
        # a new user (even reusing the name) gets fresh tags
        w5.add_user("bob", apps=["blog"])
        new_tag = w5.provider.account("bob").data_tag
        assert new_tag.tag_id != old_tag.tag_id
        # the old tag still resolves (tombstone), so stray labels
        # remain locked rather than dangling
        assert w5.provider.kernel.tags.lookup(old_tag.tag_id) == old_tag

    def test_group_membership_cleaned(self, world):
        w5, bob, amy = world
        w5.provider.groups.create("amy", "club")
        w5.provider.groups.add_member("amy", "club", "bob")
        w5.provider.delete_account("bob")
        assert not w5.provider.groups.get("club").is_member("bob")

    def test_owned_group_survives_headless(self, world):
        w5, bob, amy = world
        w5.provider.groups.create("bob", "club")
        w5.provider.groups.add_member("bob", "club", "amy")
        w5.provider.delete_account("bob")
        g = w5.provider.groups.get("club")
        assert g.is_member("amy")  # shared space not destroyed


# ----------------------------------------------------------------------
# the right to leave across a restart
# ----------------------------------------------------------------------

def _live(config: ProviderConfig) -> Provider:
    p = Provider(name="prod", config=config)
    install_standard_apps(p)
    return p


def _populate(p: Provider, users: int = 2, groups: int = 1) -> None:
    for name in ["bob", "amy"] + [f"user{i}" for i in range(2, users)]:
        p.signup(name, "pw")
        p.enable_app(name, "blog")
    p.store_user_data("bob", "diary.txt", "dear diary")
    for i in range(groups):
        p.groups.create("bob" if i % 2 == 0 else "amy", f"club{i}")


def restarted(how: str, plane: str, history) -> Provider:
    """A provider that lived through ``history``, rebuilt on ``plane``
    by ``how`` (``"restore"`` from a full snapshot, ``"recover"`` from a
    base checkpoint plus the journal).  Only the fast plane journals,
    so a recovery always replays a fast provider's base and journal."""
    if how == "restore":
        live = _live(PLANES[plane]())
        history(live)
        state = copy.deepcopy(snapshot_provider(live))
        return restore_provider(state, STANDARD_CATALOG,
                                config=PLANES[plane]())[0]
    live = _live(ProviderConfig.fast())
    base = live.snapshot_incremental()
    history(live)
    journal = bytes(live._durability.journal.raw_bytes())
    return recover_provider(base, journal, STANDARD_CATALOG,
                            config=PLANES[plane]())[0]


@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("how", ["restore", "recover"])
def test_delete_account_after_restart(how, plane):
    p = restarted(how, plane, _populate)
    erased = p.delete_account("bob")
    assert erased["files"] == 1
    assert p.usernames() == ["amy"]
    assert "bob" not in FsView(p.fs, p._account_service).listdir("/users")
    # the departed name is free again, with a fresh home
    p.signup("bob", "pw")
    p.store_user_data("bob", "diary.txt", "second life")
    assert p.read_user_data("bob", "diary.txt") == "second life"


class TestAccountServicePrivilege:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_standing_caps_are_provider_write_only(self, plane):
        def history(p):
            _populate(p, users=6, groups=3)

        live = _live(PLANES[plane]())
        history(live)
        caps = live._account_service.caps
        assert caps == CapabilitySet.owning(live._provider_write)
        for how in ("restore", "recover"):
            copy_ = restarted(how, plane, history)
            assert copy_._account_service.caps \
                == CapabilitySet.owning(copy_._provider_write) == caps, how

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_tag_mint_does_not_grow_with_users(self, plane, monkeypatch):
        """Deterministic scaling guard: the minting process's
        capability set (what every mint re-interns) stays a small
        constant however many users exist."""
        sizes = []
        mint = Kernel.create_tag

        def spy(kernel, process, *args, **kwargs):
            sizes.append(len(process.caps))
            return mint(kernel, process, *args, **kwargs)

        monkeypatch.setattr(Kernel, "create_tag", spy)
        p = Provider(name="prod", config=PLANES[plane]())
        for i in range(200):
            p.signup(f"user{i}", "pw")
        p.groups.create("user0", "club")
        assert len(sizes) == 1 + 2 * 200 + 2
        assert max(sizes) == 4  # provider-write, plus the first new tag


# ----------------------------------------------------------------------
# leaving and rejoining, fast vs. oracle
# ----------------------------------------------------------------------

#: Signup, group create, delete, re-signup under the same name, and
#: blog reads, interleaved.
LEAVE_HISTORY = [
    ("signup", "bob"), ("post", "bob", "t1"), ("read", "amy", "bob", "t1"),
    ("group", "bob", "club"), ("group", "amy", "den"),
    ("delete", "bob"), ("read", "amy", "bob", "t1"),
    ("signup", "bob"), ("read", "bob", "bob", "t1"),
    ("post", "bob", "t2"), ("read", "amy", "bob", "t2"),
    ("group", "bob", "club2"), ("signup", "carol"),
    ("delete", "amy"), ("read", "bob", "amy", "a1"),
    ("delete", "bob"), ("signup", "bob"), ("read", "carol", "bob", "t2"),
]


def _build_leave(config: ProviderConfig) -> W5System:
    w5 = W5System(name="leave", config=config)
    amy = w5.add_user("amy", apps=["blog"], friends=["bob"])
    amy.get("/app/blog/post", title="a1", body="amy's first")
    return w5


def _apply_leave(w5: W5System, op) -> object:
    kind, user = op[0], op[1]
    p = w5.provider
    if kind == "signup":
        w5.add_user(user, apps=["blog"], friends=["amy"])
        return p.usernames()
    if kind == "group":
        group = p.groups.create(user, op[2])
        return group.name, group.data_tag.tag_id, group.write_tag.tag_id
    if kind == "delete":
        return p.delete_account(user)
    if kind == "post":
        r = w5.client(user).get("/app/blog/post", title=op[2],
                                body=f"{user}:{op[2]}")
    else:
        r = w5.client(user).get("/app/blog/read", author=op[2],
                                title=op[3])
    return r.status, r.body


def test_leave_and_rejoin_differential():
    pair = PlanePair(_build_leave)
    pair.assert_equivalent()
    for op in LEAVE_HISTORY:
        pair.run(_apply_leave, op)
        pair.assert_equivalent()
    for w5 in (pair.fast, pair.oracle):
        p = w5.provider
        assert p._account_service.caps \
            == CapabilitySet.owning(p._provider_write)
