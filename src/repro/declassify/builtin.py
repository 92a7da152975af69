"""The built-in declassifier library.

These are the "small handful of reputable declassifiers" (§3.1) a
casual W5 user would authorize.  Each is a few lines of decision logic
— the point of the design — and each is exercised by experiment C3
(correctness) and M3 (audit surface).
"""

from __future__ import annotations

from .base import Declassifier, ReleaseContext


class OwnerOnly(Declassifier):
    """The boilerplate policy: data leaves only toward its owner.

    This is the default the provider assigns to all data (§3.1); it is
    also what the gateway enforces with *no* declassifier at all, so
    granting it changes nothing — it exists to make the default
    explicit and testable.
    """

    name = "owner-only"
    description = "Release only to the data's owner (the default)."

    def decide(self, ctx: ReleaseContext) -> bool:
        return ctx.viewer == ctx.owner


class Public(Declassifier):
    """The user opted to publish: release to anyone, even anonymous."""

    name = "public"
    description = "Release to everyone, including anonymous visitors."

    def decide(self, ctx: ReleaseContext) -> bool:
        return True


class FriendsOnly(Declassifier):
    """Release to the owner and the owner's configured friends.

    ``config['friends']`` is the owner's friend list — policy data the
    *user* maintains via provider web forms, not application data (the
    provider cannot read app data, §3.1, but this list belongs to the
    policy layer).
    """

    name = "friends-only"
    description = "Release to the owner's friends list."

    def decide(self, ctx: ReleaseContext) -> bool:
        if ctx.viewer is None:
            return False
        if ctx.viewer == ctx.owner:
            return True
        friends = self.config.get("friends", ())
        # the constructor and update_config froze list/set/tuple values
        if not isinstance(friends, frozenset):
            friends = set(friends)
        return ctx.viewer in friends


class Group(Declassifier):
    """Release to a named roster (a club, a team, 'my roommates')."""

    name = "group"
    description = "Release to an explicit roster of usernames."

    def decide(self, ctx: ReleaseContext) -> bool:
        if ctx.viewer is None:
            return False
        if ctx.viewer == ctx.owner:
            return True
        members = self.config.get("members", ())
        # the constructor and update_config froze list/set/tuple values
        if not isinstance(members, frozenset):
            members = set(members)
        return ctx.viewer in members


class TimeEmbargo(Declassifier):
    """Release to anyone, but only after ``config['release_at']``.

    An "idiosyncratic" policy of the kind §3.1 promises users can
    express: e.g. publish my trip photos after I'm back home.
    """

    name = "time-embargo"
    description = "Public after a configured time, owner-only before."
    #: Reads the platform clock: never cached by the authority oracle.
    cacheable = False

    def decide(self, ctx: ReleaseContext) -> bool:
        if ctx.viewer == ctx.owner:
            return True
        return ctx.now >= float(self.config.get("release_at", float("inf")))


class ViewerPredicate(Declassifier):
    """Escape hatch for fully custom policies: a user-supplied callable.

    ``config['predicate']`` maps (owner, viewer, attributes) to bool.
    This is how Bob's "chameleon profile" hides his Sci-Fi shelf from
    love interests (§2 Examples) — the predicate is his to write, and
    it is still only a few auditable lines.
    """

    name = "viewer-predicate"
    description = "Custom user-supplied release predicate."
    #: An arbitrary callable may consult anything: never cached.
    cacheable = False

    def decide(self, ctx: ReleaseContext) -> bool:
        if ctx.viewer == ctx.owner:
            return True
        predicate = self.config.get("predicate")
        if predicate is None:
            return False
        return bool(predicate(ctx.owner, ctx.viewer, ctx.attributes))


#: Classes a provider ships out of the box, keyed by name.
BUILTINS: dict[str, type[Declassifier]] = {
    cls.name: cls
    for cls in (OwnerOnly, Public, FriendsOnly, Group, TimeEmbargo,
                ViewerPredicate)
}
