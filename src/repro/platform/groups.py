"""Group spaces: shared data among a roster (§3.1's "roommates").

A user's policy like "viewable only by my roommates" needs a *shared*
context: data that several people read, a few write, and nobody else
sees.  In DIFC that is simply a pair of fresh tags — a group secrecy
tag and a group write tag — managed by the provider on the owner's
behalf:

* every member's app launches may taint with the group tag (read);
* members the owner marks as writers get the write capability;
* exports of group-tagged data are approved for members, via an
  automatically maintained :class:`~repro.declassify.Group` grant.

Leaving (or being removed from) a group is *revocation by policy*:
the tags persist, but the ex-member drops out of the launch grants and
the declassifier roster, so both fresh reads and fresh exports stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..declassify import Group as GroupPolicy
from ..labels import Tag
from .errors import NotAuthorized, PlatformError

if TYPE_CHECKING:  # pragma: no cover
    from .provider import Provider


@dataclass
class GroupSpace:
    """One shared space: tags, roster, and its declassifier grant."""

    name: str
    owner: str
    data_tag: Tag
    write_tag: Tag
    members: set[str] = field(default_factory=set)
    writers: set[str] = field(default_factory=set)
    #: The auto-maintained Group policy releasing to the roster.
    policy: Optional[GroupPolicy] = None

    @property
    def home(self) -> str:
        return f"/groups/{self.name}"

    def is_member(self, username: str) -> bool:
        return username in self.members

    def is_writer(self, username: str) -> bool:
        return username in self.writers


class GroupService:
    """Provider-side group management."""

    def __init__(self, provider: "Provider") -> None:
        self.provider = provider
        self._groups: dict[str, GroupSpace] = {}
        # ensure the shared root exists
        from ..fs import FsView
        svc = FsView(provider.fs, provider._account_service)
        if not svc.exists("/groups"):
            svc.mkdir("/groups")

    # ------------------------------------------------------------------

    def create(self, owner: str, name: str) -> GroupSpace:
        """Mint the group's tags, its home directory, and its grant."""
        self.provider.account(owner)  # must exist
        if name in self._groups:
            raise PlatformError(f"group {name!r} exists")
        if not name or "/" in name or name.startswith("."):
            raise PlatformError(f"bad group name {name!r}")
        kernel = self.provider.kernel
        svc_proc = self.provider._account_service
        data_tag = kernel.create_tag(svc_proc, purpose=f"group:{name}",
                                     tag_owner=owner)
        write_tag = kernel.create_tag(svc_proc, purpose=f"group:{name}:w",
                                      kind="integrity", tag_owner=owner)
        group = GroupSpace(name=name, owner=owner, data_tag=data_tag,
                           write_tag=write_tag)
        group.members.add(owner)
        group.writers.add(owner)
        # home directory under the group's labels, inside the
        # provider-protected /groups
        self.provider._make_home(group.home, data_tag, write_tag)
        # the roster-following declassifier grant
        group.policy = GroupPolicy({"members": sorted(group.members)})
        self.provider.declass.grant(owner, data_tag, group.policy)
        self._groups[name] = group
        self.provider._record("group.create", {
            "name": name, "owner": owner,
            "data_tag_id": data_tag.tag_id,
            "write_tag_id": write_tag.tag_id})
        # a new group's tags may reach any app its members enabled
        self.provider.capindex.invalidate_all("group-create")
        return group

    def get(self, name: str) -> GroupSpace:
        try:
            return self._groups[name]
        except KeyError:
            raise PlatformError(f"no group {name!r}") from None

    def groups_of(self, username: str) -> list[str]:
        return sorted(name for name, g in self._groups.items()
                      if g.is_member(username))

    # ------------------------------------------------------------------

    def add_member(self, actor: str, name: str, username: str,
                   writer: bool = False) -> None:
        """Only the group owner changes the roster."""
        group = self.get(name)
        if actor != group.owner:
            raise NotAuthorized(f"only {group.owner} manages {name!r}")
        self.provider.account(username)
        group.members.add(username)
        if writer:
            group.writers.add(username)
        self.provider._record("group.member.add", {
            "name": name, "username": username, "writer": writer})
        self._refresh_policy(group)

    def remove_member(self, actor: str, name: str, username: str) -> None:
        group = self.get(name)
        if actor != group.owner:
            raise NotAuthorized(f"only {group.owner} manages {name!r}")
        if username == group.owner:
            raise PlatformError("the owner cannot leave their own group")
        group.members.discard(username)
        group.writers.discard(username)
        self.provider._record("group.member.remove", {
            "name": name, "username": username})
        self._refresh_policy(group)

    def _refresh_policy(self, group: GroupSpace) -> None:
        """Keep the declassifier roster equal to the membership.

        Routed through ``update_config`` (the supported policy-edit
        path) and followed by explicit invalidation: a roster change
        moves both export authority (who the Group policy releases to,
        in every grant whose policy tree holds it) and launch
        capabilities (which launches taint with the group's tags).
        """
        group.policy.update_config(members=frozenset(group.members))
        self.provider.declass.note_config_update(
            group.owner, group.data_tag, "group",
            {"members": frozenset(group.members)})
        self.provider.declass.invalidate_authority(
            "group-roster", declassifiers=(group.policy,))
        self.provider.capindex.invalidate_all("group-roster")

    # -- capability wiring (called by the launcher) -----------------------

    def launch_caps_for(self, app_name: str,
                        viewer: Optional[str] = None) -> list:
        """Extra capabilities an app launch gets from group membership.

        *Read* (``tag+``) for every group in which some member enabled
        this app — group data commingles like user data; *write*
        (``wtag+``) only when the driving ``viewer`` is a group writer
        who granted this app write privilege (viewer-scoped, matching
        :meth:`Provider.launch_caps`).
        """
        from ..labels import plus
        caps = []
        for group in self._groups.values():
            if any(app_name in self.provider.account(u).enabled_apps
                   for u in group.members):
                caps.append(plus(group.data_tag))
            if viewer is not None and group.is_writer(viewer):
                account = self.provider.account(viewer)
                if app_name in account.writable_apps:
                    caps.append(plus(group.write_tag))
        return caps

