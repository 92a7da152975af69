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

This module owns the full form: :func:`snapshot_provider` writes it
and :func:`install_snapshot` reads it, object by object through the
installers journal replay uses (:mod:`repro.platform.durability`).
The incremental form is the journal since the last checkpoint
(``Provider.snapshot_incremental``); :func:`recover_provider` folds
it into its base and reports the dropped grants a full snapshot would.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..db import restore_store
from ..fs import restore_fs
from ..labels import CapabilitySet, Label, TagRegistry
from .accounts import UserAccount
from .config import ProviderConfig
from .durability import (_r_account_signup, _r_clock_set, _r_endorse_add,
                         _r_grant_add, _r_group_create, recover_provider)
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
    return (record["owner"], record["declassifier"], record.get("tag_id", 0))


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

    # the composite: each storage part's Snapshotable.snapshot() plus
    # the platform-level state
    return {
        "name": provider.name,
        "registry": provider.kernel.tags.snapshot(),
        "provider_write_tag_id": provider._provider_write.tag_id,
        "accounts": accounts,
        "groups": groups,
        "grants": sorted(grants, key=_grant_key),
        "skipped_grants": sorted(skipped_grants, key=skipped_key),
        "endorsements": sorted(provider.endorsements.endorsed),
        "adoptions": list(provider.adoptions),
        "usage_edges": list(provider.usage_edges),
        "declass_clock": provider.declass.now,
        "fs": provider.fs.snapshot(),
        "db": provider.db.snapshot(),
    }


def install_snapshot(p: Provider, state: dict[str, Any],
                     app_catalog: Iterable[AppModule]) -> None:
    """Install a :func:`snapshot_provider` snapshot into a fresh
    provider, each object through the installer its journal record
    replays with (the body of :func:`recover_provider`)."""
    p.kernel.tags = TagRegistry.import_state(state["registry"])
    # repair the provider's own bootstrap references
    pw_tag = p._provider_write = p.kernel.tags.lookup(
        state["provider_write_tag_id"])
    svc = p._account_service
    svc.caps = CapabilitySet.owning(pw_tag)
    svc.ilabel = Label([pw_tag])
    # Storage comes back verbatim (including /users and home dirs),
    # on the plane of the fresh provider's kernel.
    p.fs = restore_fs(p.kernel, state["fs"])
    p.db = restore_store(p.kernel, state["db"])
    # Code reinstall: handler objects are not durable.
    for module in app_catalog:
        p.register_app(module)
    # credentials are not durable: users re-register a password
    # (set_password), as after a password reset
    for ad in state["accounts"]:
        _r_account_signup(p, ad)
    # builtin grants only (the rest are in skipped_grants), before the
    # groups that bind to them
    for gd in state["grants"]:
        _r_grant_add(p, gd)
    for gd in state.get("groups", []):
        _r_group_create(p, gd)
    for name in state.get("endorsements", []):
        _r_endorse_add(p, {"module": name, "endorser": "restored"})
    p.adoptions = [tuple(x) for x in state.get("adoptions", [])]
    p.usage_edges = [tuple(x) for x in state.get("usage_edges", [])]
    _r_clock_set(p, {"now": state.get("declass_clock", 0.0)})


def restore_provider(state: dict[str, Any],
                     app_catalog: Iterable[AppModule] = (),
                     resources=None,
                     config: "ProviderConfig | None" = None
                     ) -> tuple[Provider, dict[str, Any]]:
    """Rebuild a provider from a snapshot.

    ``app_catalog`` is the code the operator reinstalls.  ``config``
    goes to the rebuilt :class:`Provider` (defaults apply when
    omitted, exactly as ``Provider()`` would).  Returns the provider
    plus a report: declassifier grants that could not be restored and
    enabled apps missing from the reinstalled catalog.  The operator
    holds ``state``, so the provider's first ``snapshot_incremental()``
    is a delta over it: the journal names ``state``'s checkpoint id.
    The body is :func:`recover_provider`'s, with no journal to replay.
    """
    return recover_provider(state, None, app_catalog, resources, config)


def set_password(provider: Provider, username: str, password: str) -> None:
    """Post-restore credential bootstrap (the 'password reset' path)."""
    if username not in provider._accounts:
        raise PlatformError(f"no account {username!r}")
    if provider.sessions.has_user(username):
        raise PlatformError(f"{username!r} already has credentials")
    provider.sessions.register(username, password)
