"""User accounts: tags, home storage, and per-user policy state.

Signing up mints the two tags the whole architecture revolves around:

* ``data_tag`` (secrecy) — everything the user stores is tainted with
  it; the boilerplate policy says it exits only toward her browser.
* ``write_tag`` (integrity) — everything she stores requires it for
  writing; delegating ``write_tag+`` is delegating write privilege
  (§3.1 Write Protection).

The account also records the user's *choices*: which applications she
enabled (the one-click signup of §1), which developer's module she
prefers in each slot ("developer A's photo cropping module and
developer B's labeling module", §2), and which apps she delegated
write privilege to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..labels import CapabilitySet, Label, Tag


@dataclass
class UserAccount:
    """Platform-side state for one end-user."""

    username: str
    data_tag: Tag
    write_tag: Tag
    #: Apps the user enabled (adoption is a checkbox, §1).
    enabled_apps: set[str] = field(default_factory=set)
    #: Apps the user granted write privilege (``write_tag+``).
    writable_apps: set[str] = field(default_factory=set)
    #: slot name -> module ref (e.g. "cropper" -> "devA/crop@1.0").
    module_preferences: dict[str, str] = field(default_factory=dict)
    #: Profile fields the user typed in at the provider's forms.
    profile: dict[str, str] = field(default_factory=dict)
    #: §3.1 integrity protection: refuse to launch apps for this user
    #: unless every component is provider-endorsed.
    require_endorsed: bool = False
    #: The user's mail address at this provider.
    email_address: str = ""
    #: Per-user JavaScript posture at the perimeter (§3.5):
    #: "" = inherit the gateway default, else "block"/"allow".
    js_policy: str = ""
    #: §3.2 audit pinning: app name -> version this user audited.  The
    #: platform launches exactly the pinned version on her requests.
    audited_versions: dict[str, str] = field(default_factory=dict)
    #: The label state of a process with the user's full authority,
    #: built on first use (:meth:`agent_state`).  Derived from the two
    #: tags, so it is neither durable nor part of equality.
    _agent_state: Optional[tuple[Label, Label, CapabilitySet]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def home(self) -> str:
        """The account's home directory in the labeled filesystem."""
        return f"/users/{self.username}"

    def agent_state(self) -> tuple[Label, Label, CapabilitySet]:
        """``(slabel, ilabel, caps)`` of the user's agents: her data
        tag, her write tag, and ownership of both (§3.3's import/export
        agent and the provider acting for her).  One value per account,
        so spawning an agent builds no label or capability set."""
        state = self._agent_state
        if state is None:
            state = self._agent_state = (
                Label([self.data_tag]), Label([self.write_tag]),
                CapabilitySet.owning(self.data_tag, self.write_tag))
        return state

    def has_enabled(self, app_name: str) -> bool:
        return app_name in self.enabled_apps

    def allows_write(self, app_name: str) -> bool:
        return app_name in self.writable_apps

    def preferred_module(self, slot: str, default: Optional[str] = None
                         ) -> Optional[str]:
        return self.module_preferences.get(slot, default)
