"""Provider persistence: snapshot and restore a whole deployment.

What is durable and what is not mirrors a real deployment:

* **durable** — the tag registry, every account (tags, enablements,
  write grants, module preferences, profile, policies, pins), every
  *builtin* declassifier grant (name + config), the labeled filesystem
  and store, endorsements, adoption and usage ledgers;
* **not durable, by design** — live sessions (users re-authenticate
  after a restart), kernel processes (all request-scoped), the audit
  log (a real provider archives it out of band), and **code**: handler
  objects cannot be serialized, so the operator re-registers the app
  catalog on boot — exactly like reinstalling binaries on a rebuilt
  server — and ``restore_provider`` checks that every app users had
  enabled is present again;
* **dropped with a record** — grants of non-builtin declassifiers
  whose config is not JSON-serializable (e.g. a ``ViewerPredicate``
  closure): they are listed in the returned report so the provider can
  ask those users to re-grant, rather than silently widening or
  narrowing anyone's policy.

This module is the full form.  The incremental form is the journal
since the last checkpoint (``Provider.snapshot_incremental``), and
:func:`repro.platform.durability.recover_provider` folds it into its
base; its report lists the dropped grants a full snapshot would.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import Any, Iterable

from ..core.snapshot import Snapshotable
from ..db import restore_store
from ..declassify import BUILTINS
from ..fs import restore_fs
from ..kernel import Kernel
from ..labels import CapabilitySet, Label, TagRegistry
from .accounts import UserAccount
from .config import ProviderConfig
from .errors import PlatformError
from .provider import Provider
from .registry import AppModule


def account_dict(a: UserAccount) -> dict[str, Any]:
    """The durable form of one account.  Every mapping is key-sorted so
    identical logical states serialize to identical bytes regardless of
    the mutation order that produced them."""
    return {
        "username": a.username,
        "data_tag_id": a.data_tag.tag_id,
        "write_tag_id": a.write_tag.tag_id,
        "enabled_apps": sorted(a.enabled_apps),
        "writable_apps": sorted(a.writable_apps),
        "module_preferences": dict(sorted(a.module_preferences.items())),
        "profile": dict(sorted(a.profile.items())),
        "require_endorsed": a.require_endorsed,
        "email_address": a.email_address,
        "js_policy": a.js_policy,
        "audited_versions": dict(sorted(a.audited_versions.items())),
    }


def group_dict(g) -> dict[str, Any]:
    return {
        "name": g.name,
        "owner": g.owner,
        "data_tag_id": g.data_tag.tag_id,
        "write_tag_id": g.write_tag.tag_id,
        "members": sorted(g.members),
        "writers": sorted(g.writers),
    }


def _grant_key(record: dict[str, Any]) -> tuple:
    """Deterministic grant order: grant-list bytes depend only on the
    set of grants, not on the insertion/revocation history."""
    return (record["owner"], record["tag_id"], record["declassifier"],
            json.dumps(record["config"], sort_keys=True))


def skipped_key(record: dict[str, Any]) -> tuple:
    """The order of ``skipped_grants`` (and of a restore report's
    ``unrestored_grants``)."""
    return (record["owner"], record["declassifier"], record["tag_id"])


def snapshot_provider(provider: Provider) -> dict[str, Any]:
    """Serialize everything durable.  JSON-compatible by construction
    (verified by a round-trip in the tests).  The incremental form is
    :meth:`Provider.snapshot_incremental`.

    The result is read-only.  Within one snapshot every node and row
    carrying the same label shares one label dict.  A caller that
    edits a snapshot must ``copy.deepcopy`` it or JSON round-trip it
    first.
    """
    accounts = [account_dict(provider.account(u))
                for u in provider.usernames()]

    grants = []
    skipped_grants = []
    for g in provider.declass._grants:
        record = provider.declass.grant_record(g)
        if record is None:
            skipped_grants.append({"owner": g.owner,
                                   "tag_id": g.tag.tag_id,
                                   "declassifier": g.declassifier.name})
        else:
            grants.append(record)

    groups = [group_dict(provider.groups.get(name))
              for name in sorted(provider.groups._groups)]

    # The storage subsystems and the tag registry all implement
    # Snapshotable; the provider's composite snapshot is their
    # snapshots plus the platform-level state.
    registry: Snapshotable = provider.kernel.tags
    fs: Snapshotable = provider.fs
    db: Snapshotable = provider.db
    return {
        "name": provider.name,
        "registry": registry.snapshot(),
        "provider_write_tag_id": provider._provider_write.tag_id,
        "accounts": accounts,
        "groups": groups,
        "grants": sorted(grants, key=_grant_key),
        "skipped_grants": sorted(skipped_grants, key=skipped_key),
        "endorsements": sorted(provider.endorsements.endorsed),
        "adoptions": list(provider.adoptions),
        "usage_edges": list(provider.usage_edges),
        "declass_clock": provider.declass.now,
        "fs": fs.snapshot(),
        "db": db.snapshot(),
    }


def restore_provider(state: dict[str, Any],
                     app_catalog: Iterable[AppModule] = (),
                     resources=None,
                     config: "ProviderConfig | None" = None
                     ) -> tuple[Provider, dict[str, Any]]:
    """Rebuild a provider from a snapshot.

    ``app_catalog`` is the code the operator reinstalls.  ``config``
    selects the rebuilt provider's :class:`ProviderConfig` (defaults
    apply when omitted, exactly as ``Provider()`` would).  Returns the
    provider plus a report: declassifier grants that could not be
    restored and enabled apps missing from the reinstalled catalog.
    """
    provider = Provider(name=state["name"], resources=resources,
                        config=config)
    # Installing cold-storage state is not a new mutation: journaling
    # stays off until the post-restore checkpoint re-bases the journal.
    manager = provider._durability
    guard = manager.suspended() if manager is not None else nullcontext()
    with guard:
        provider, report = _restore_into(provider, state, app_catalog)
    if manager is not None:
        # restore replaced the registry/fs/db objects wholesale; point
        # the hooks at the new ones, then make the restored state the
        # journal's base.
        manager.wire()
        manager.checkpoint()
    return provider, report


def _restore_into(provider: Provider, state: dict[str, Any],
                  app_catalog: Iterable[AppModule]
                  ) -> tuple[Provider, dict[str, Any]]:
    # Replace the freshly-minted registry with the durable one and
    # repair the provider's own bootstrap references.
    provider.kernel.tags = TagRegistry.import_state(state["registry"])
    # Tag identity was just rewired underneath the kernel: drop every
    # cached flow verdict, pure memos included.
    provider.kernel.flow_cache.invalidate_all(reason="registry-restore")
    pw_tag = provider.kernel.tags.lookup(state["provider_write_tag_id"])
    provider._provider_write = pw_tag
    svc = provider._account_service
    svc.caps = CapabilitySet.owning(pw_tag)
    svc.ilabel = Label([pw_tag])

    # Storage comes back verbatim (including /users and home dirs),
    # on the plane of the fresh provider's kernel.
    provider.fs = restore_fs(provider.kernel, state["fs"])
    provider.db = restore_store(provider.kernel, state["db"])

    # Code reinstall.
    for module in app_catalog:
        provider.register_app(module)

    report: dict[str, Any] = {"unrestored_grants":
                              list(state.get("skipped_grants", [])),
                              "missing_apps": []}

    # Accounts: credentials are re-registered with a placeholder that
    # forces a password reset in a real deployment; here users simply
    # re-register their password via the sessions API.
    for ad in state["accounts"]:
        account = UserAccount(
            username=ad["username"],
            data_tag=provider.kernel.tags.lookup(ad["data_tag_id"]),
            write_tag=provider.kernel.tags.lookup(ad["write_tag_id"]),
            enabled_apps=set(ad["enabled_apps"]),
            writable_apps=set(ad["writable_apps"]),
            module_preferences=dict(ad["module_preferences"]),
            profile=dict(ad["profile"]),
            require_endorsed=ad["require_endorsed"],
            email_address=ad["email_address"],
            js_policy=ad["js_policy"],
            audited_versions=dict(ad["audited_versions"]))
        provider._accounts[account.username] = account
        provider.email.register_address(account.email_address,
                                        owner=account.username)
        for app in sorted(account.enabled_apps):
            if app not in provider.apps:
                report["missing_apps"].append(
                    {"username": account.username, "app": app})

    # Policy grants (builtins only; the rest are in the report).
    for gd in state["grants"]:
        cls = BUILTINS[gd["declassifier"]]
        tag = provider.kernel.tags.lookup(gd["tag_id"])
        provider.declass.grant(gd["owner"], tag, cls(gd["config"]))

    # Group spaces: rebuild rosters and rebind each group's policy to
    # its (already restored) roster-following grant so later roster
    # edits keep steering the live declassifier.
    from .groups import GroupSpace
    for gd in state.get("groups", []):
        group = GroupSpace(
            name=gd["name"], owner=gd["owner"],
            data_tag=provider.kernel.tags.lookup(gd["data_tag_id"]),
            write_tag=provider.kernel.tags.lookup(gd["write_tag_id"]),
            members=set(gd["members"]), writers=set(gd["writers"]))
        for grant in provider.declass.grants_for(group.owner):
            if grant.tag == group.data_tag \
                    and grant.declassifier.name == "group":
                group.policy = grant.declassifier
                break
        else:
            from ..declassify import Group as GroupPolicy
            group.policy = GroupPolicy({"members": sorted(group.members)})
            provider.declass.grant(group.owner, group.data_tag,
                                   group.policy)
        provider.groups._groups[group.name] = group
    # accounts and groups were installed behind the index's back
    provider.capindex.invalidate_all("restore")
    provider.declass.invalidate_authority("restore")

    for name in state.get("endorsements", []):
        if name in provider.apps:
            provider.endorsements.endorse(name, endorser="restored")
    provider.adoptions = [tuple(x) for x in state.get("adoptions", [])]
    provider.usage_edges = [tuple(x) for x in state.get("usage_edges", [])]
    provider.declass.now = state.get("declass_clock", 0.0)
    return provider, report


def set_password(provider: Provider, username: str, password: str) -> None:
    """Post-restore credential bootstrap (the 'password reset' path)."""
    if username not in provider._accounts:
        raise PlatformError(f"no account {username!r}")
    if provider.sessions.has_user(username):
        raise PlatformError(f"{username!r} already has credentials")
    provider.sessions.register(username, password)
