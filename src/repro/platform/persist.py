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
"""

from __future__ import annotations

import copy
import json
from contextlib import nullcontext
from typing import Any, Callable, Iterable

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
    return (record["owner"], record["tag_id"], record["declassifier"],
            json.dumps(record["config"], sort_keys=True))


def sort_grants(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Deterministic grant order: grant-list bytes depend only on the
    set of grants, not on the insertion/revocation history (and the
    incremental delta-merge path can regroup per owner and still land
    on the same order as a full snapshot)."""
    return sorted(records, key=_grant_key)


def sort_skipped(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return sorted(records,
                  key=lambda r: (r["owner"], r["declassifier"]))


def snapshot_provider(provider: Provider,
                      incremental: bool = False) -> dict[str, Any]:
    """Serialize everything durable.  JSON-compatible by construction
    (verified by a round-trip in the tests).

    With ``incremental=True`` (and the provider's durability manager
    enabled) this returns an O(dirty) **delta** against the last full
    checkpoint — or a fresh full snapshot when the journal crossed its
    compaction threshold.  Feed the pair through :func:`merge_delta` to
    recover the full form; a provider without a manager falls back to
    a full snapshot.

    The result is read-only.  Within one snapshot every node and row
    carrying the same label shares one label dict, and at compaction
    the returned dict *is* the durability manager's live ``base``.  A
    caller that edits a snapshot must ``copy.deepcopy`` it or JSON
    round-trip it first.
    """
    if incremental and provider._durability is not None:
        return provider._durability.emit_snapshot()
    accounts = [account_dict(provider.account(u))
                for u in provider.usernames()]

    grants = []
    skipped_grants = []
    for g in provider.declass._grants:
        record = provider.declass.grant_record(g)
        if record is None:
            skipped_grants.append({"owner": g.owner,
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
        "grants": sort_grants(grants),
        "skipped_grants": sort_skipped(skipped_grants),
        "endorsements": sorted(provider.endorsements.endorsed),
        "adoptions": list(provider.adoptions),
        "usage_edges": list(provider.usage_edges),
        "declass_clock": provider.declass.now,
        "fs": fs.snapshot(),
        "db": db.snapshot(),
    }


def merge_delta(base: dict[str, Any],
                delta: dict[str, Any]) -> dict[str, Any]:
    """Fold an incremental delta into its base full snapshot.

    Deltas are cumulative since the base checkpoint, so the operator
    retains exactly two artifacts (base + latest delta); the result is
    canonically byte-identical to the full snapshot the provider would
    have emitted at the same moment.  Passing a full snapshot as
    ``delta`` (the compaction case) returns it unchanged.
    """
    if delta.get("kind") != "delta":
        return copy.deepcopy(delta)
    from ..db.persist import merge_store_delta
    from ..fs.persist import merge_fs_delta
    # Copy each input once: the fs and db parts inside their own
    # merges, the platform-level parts here.  The result aliases
    # neither input.
    fs = merge_fs_delta(base["fs"], delta["fs"])
    db = merge_store_delta(base["db"], delta["db"])
    base, delta = copy.deepcopy((
        {k: v for k, v in base.items() if k not in ("fs", "db")},
        {k: v for k, v in delta.items() if k not in ("fs", "db")}))

    accounts = {a["username"]: a for a in base["accounts"]}
    for username in delta.get("removed_accounts", ()):
        accounts.pop(username, None)
    for a in delta.get("accounts", ()):
        accounts[a["username"]] = a

    groups = {g["name"]: g for g in base["groups"]}
    for g in delta.get("groups", ()):
        groups[g["name"]] = g

    grants_by_owner: dict[str, list[dict[str, Any]]] = {}
    for r in base["grants"]:
        grants_by_owner.setdefault(r["owner"], []).append(r)
    skipped_by_owner: dict[str, list[dict[str, Any]]] = {}
    for r in base.get("skipped_grants", ()):
        skipped_by_owner.setdefault(r["owner"], []).append(r)
    # A dirty owner's slice is replaced wholesale (the delta lists the
    # owner's *entire* current grant set, possibly empty after revokes).
    for owner, rs in delta.get("grants_by_owner", {}).items():
        grants_by_owner[owner] = list(rs)
    for owner, rs in delta.get("skipped_by_owner", {}).items():
        skipped_by_owner[owner] = list(rs)

    registry = _merge_registry(base["registry"], delta["registry"])
    return {
        "name": delta["name"],
        "registry": registry,
        "provider_write_tag_id": delta["provider_write_tag_id"],
        "accounts": [accounts[u] for u in sorted(accounts)],
        "groups": [groups[n] for n in sorted(groups)],
        "grants": sort_grants(
            [r for rs in grants_by_owner.values() for r in rs]),
        "skipped_grants": sort_skipped(
            [r for rs in skipped_by_owner.values() for r in rs]),
        "endorsements": (list(delta["endorsements"])
                         if "endorsements" in delta
                         else list(base["endorsements"])),
        "adoptions": ([list(x) for x in base["adoptions"]]
                      + [list(x) for x in delta.get("adoptions_tail", ())]),
        "usage_edges": ([list(x) for x in base["usage_edges"]]
                        + [list(x) for x in delta.get("usage_tail", ())]),
        "declass_clock": delta["declass_clock"],
        "fs": fs,
        "db": db,
    }


def _merge_registry(base: dict[str, Any],
                    delta: dict[str, Any]) -> dict[str, Any]:
    # tag ids are monotone, so base and delta tag lists are disjoint
    return {
        "namespace": delta["namespace"],
        "next_id": delta["next_id"],
        "tags": sorted(base["tags"] + delta["tags"],
                       key=lambda t: t["tag_id"]),
        "foreign": sorted(base["foreign"] + delta["foreign"],
                          key=lambda f: (f["namespace"], f["foreign_id"])),
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
