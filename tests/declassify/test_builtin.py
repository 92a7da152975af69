"""Unit tests for the built-in declassifier policies."""

import pytest

from repro.declassify import (BUILTINS, Declassifier, FriendsOnly, Group,
                              OwnerOnly, Public, ReleaseContext, TimeEmbargo,
                              ViewerPredicate)


def ctx(owner="bob", viewer="amy", kind="", now=0.0, **attrs):
    return ReleaseContext(owner=owner, viewer=viewer, kind=kind, now=now,
                          attributes=attrs)


class TestOwnerOnly:
    def test_owner_allowed(self):
        assert OwnerOnly().decide(ctx(viewer="bob"))

    def test_others_denied(self):
        assert not OwnerOnly().decide(ctx(viewer="amy"))

    def test_anonymous_denied(self):
        assert not OwnerOnly().decide(ctx(viewer=None))


class TestPublic:
    def test_everyone_allowed(self):
        assert Public().decide(ctx(viewer="amy"))
        assert Public().decide(ctx(viewer=None))


class TestFriendsOnly:
    def test_friend_allowed(self):
        d = FriendsOnly({"friends": ["amy", "carl"]})
        assert d.decide(ctx(viewer="amy"))

    def test_stranger_denied(self):
        d = FriendsOnly({"friends": ["amy"]})
        assert not d.decide(ctx(viewer="eve"))

    def test_owner_always_allowed(self):
        d = FriendsOnly({"friends": []})
        assert d.decide(ctx(viewer="bob"))

    def test_anonymous_denied(self):
        d = FriendsOnly({"friends": ["amy"]})
        assert not d.decide(ctx(viewer=None))

    def test_empty_config(self):
        assert not FriendsOnly().decide(ctx(viewer="amy"))

    @pytest.mark.parametrize("cls,key", [(FriendsOnly, "friends"),
                                         (Group, "members")])
    def test_unfrozen_roster_keeps_set_semantics(self, cls, key):
        # a bare string is not frozen, so it is still read as set("amy")
        d = cls({key: "amy"})
        assert d.decide(ctx(viewer="a"))
        assert not d.decide(ctx(viewer="amy"))
        d.update_config(**{key: ("amy",)})
        assert d.decide(ctx(viewer="amy"))
        assert not d.decide(ctx(viewer="a"))


class TestGroup:
    def test_member_allowed(self):
        d = Group({"members": ["team1", "team2"]})
        assert d.decide(ctx(viewer="team1"))

    def test_non_member_denied(self):
        assert not Group({"members": ["x"]}).decide(ctx(viewer="eve"))

    def test_owner_allowed(self):
        assert Group({"members": []}).decide(ctx(viewer="bob"))


class TestTimeEmbargo:
    def test_before_embargo_denied(self):
        d = TimeEmbargo({"release_at": 100.0})
        assert not d.decide(ctx(viewer="amy", now=50.0))

    def test_after_embargo_allowed(self):
        d = TimeEmbargo({"release_at": 100.0})
        assert d.decide(ctx(viewer="amy", now=150.0))

    def test_boundary_inclusive(self):
        d = TimeEmbargo({"release_at": 100.0})
        assert d.decide(ctx(viewer="amy", now=100.0))

    def test_owner_sees_before_embargo(self):
        d = TimeEmbargo({"release_at": 100.0})
        assert d.decide(ctx(viewer="bob", now=0.0))

    def test_no_config_never_releases_to_others(self):
        assert not TimeEmbargo().decide(ctx(viewer="amy", now=1e12))


class TestViewerPredicate:
    def test_chameleon_profile(self):
        """Bob hides his Sci-Fi shelf from love interests (§2)."""
        love_interests = {"dot", "pat"}
        d = ViewerPredicate({
            "predicate": lambda owner, viewer, attrs:
                viewer not in love_interests})
        assert d.decide(ctx(viewer="amy"))
        assert not d.decide(ctx(viewer="dot"))

    def test_attributes_passed_through(self):
        d = ViewerPredicate({
            "predicate": lambda o, v, attrs: attrs.get("app") == "photos"})
        assert d.decide(ctx(viewer="amy", app="photos"))
        assert not d.decide(ctx(viewer="amy", app="blog"))

    def test_missing_predicate_denies(self):
        assert not ViewerPredicate().decide(ctx(viewer="amy"))

    def test_owner_allowed_without_predicate(self):
        assert ViewerPredicate().decide(ctx(viewer="bob"))


class TestFramework:
    def test_builtins_registry_complete(self):
        assert set(BUILTINS) == {"owner-only", "public", "friends-only",
                                 "group", "time-embargo", "viewer-predicate"}

    def test_abstract_decide_raises(self):
        with pytest.raises(NotImplementedError):
            Declassifier().decide(ctx())

    def test_audit_surface_is_small(self):
        """The paper's auditability claim: every builtin is tiny."""
        for cls in BUILTINS.values():
            assert 0 < cls.audit_surface_loc() < 40

    def test_context_is_frozen(self):
        c = ctx()
        with pytest.raises(AttributeError):
            c.viewer = "eve"  # type: ignore[misc]

    def test_config_is_copied(self):
        friends = ["amy"]
        d = FriendsOnly({"friends": friends})
        friends.append("eve")
        assert not d.decide(ctx(viewer="eve"))
