"""Compiled request plans: the M12 dispatch fast path.

The hot request is fully memoized by M8–M11 — the LaunchCapIndex and
the flow cache's subject verdicts each answer in O(1) — but the
pipeline still *interprets* its way through them: resolve the app,
hash (app, viewer) into the cap index, then re-derive the viewer's
export authority.  A :class:`RequestPlan` compiles that, once per
(app, viewer) pair, into one record of inputs for the request
pipeline:

* the resolved :class:`~repro.platform.registry.AppModule`;
* the launch :class:`~repro.labels.CapabilitySet` and the shared
  process name the pool checks out under;
* the viewer's export authority under the cacheable grants, and the
  grants that approve it: the only per-viewer authority memo (egress
  adds the live verdicts of time embargoes and other uncacheables).

A plan holds no read verdicts: the partition scans the handler runs
take theirs from the flow cache, keyed on the process's label state,
so fresh processes (the tainted-read steady state) reuse them across
requests.

Validity is epoch-guarded by the exact invalidation hooks the layers
below it already fire: :class:`LaunchCapIndex.epoch` covers
enable/disable/delete-account/group events/restore,
``DeclassificationService.authority_epoch`` covers grant/revoke/config
updates (befriend/unfriend), and ``Registry.epoch`` covers uploads and
forks that re-point ``name`` resolution.  A plan whose stamps disagree
with any of the three is recompiled on next use — there is no
invalidation callback to forget.  The authority stamp is global: one
owner's friend-list edit retires every viewer's plan, and the
recompile hands the stale plan's authority (if its account, and so its
own data tag, is unchanged) to ``DeclassificationService.
refresh_authority``, which re-runs only the grants of the owners the
dirty log names: a post-edit recompile costs one owner's grants.

Plans only ever replace *pure recomputation*: the provider runs the
same admission, launch, handler, audit and egress stages with or
without one, so every observable — process spawn/exit, label changes,
resource charges, audit records — happens on one code path, which is
what lets the plane state machine
(``tests/platform/test_plane_machine.py``) assert identical responses,
charges and audit streams against the oracle plane.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..labels import CapabilitySet, Label

if TYPE_CHECKING:  # pragma: no cover
    from ..declassify.service import Grant
    from .accounts import UserAccount
    from .provider import Provider
    from .registry import AppModule

#: Bound on the plan table: (app_ref, viewer) plans kept before the
#: table is cleared.
MAX_PLANS = 4096


class RequestPlan:
    """The compiled pipeline inputs for one (app, viewer) pair."""

    __slots__ = ("app_ref", "viewer", "app", "account", "caps",
                 "process_name", "approved", "authority", "cap_epoch",
                 "auth_epoch", "reg_epoch")

    def __init__(self, app_ref: str, viewer: Optional[str],
                 app: "AppModule", account: "Optional[UserAccount]",
                 caps: CapabilitySet, approved: "tuple[Grant, ...]",
                 authority: CapabilitySet, cap_epoch: int, auth_epoch: int,
                 reg_epoch: int) -> None:
        self.app_ref = app_ref
        self.viewer = viewer
        self.app = app
        self.account = account
        self.caps = caps
        #: One name string shared by every request this plan serves:
        #: each process and audit record launched under it keeps a
        #: reference, not a fresh copy.
        self.process_name = f"app:{app.name}"
        #: The cacheable grants approving the viewer (each names its
        #: owner, so a refresh can swap out one owner's approvals) and
        #: the export authority they give, current at ``auth_epoch``.
        self.approved = approved
        self.authority = authority
        self.cap_epoch = cap_epoch
        self.auth_epoch = auth_epoch
        self.reg_epoch = reg_epoch

    # -- validity -------------------------------------------------------

    def is_current(self, provider: "Provider") -> bool:
        return (self.cap_epoch == provider.capindex.epoch
                and self.auth_epoch == provider.declass.authority_epoch
                and self.reg_epoch == provider.apps.epoch)

    # -- inspection (Provider.explain / the analysis CLI) --------------

    def describe(self) -> dict[str, Any]:
        """A serializable rendering of the compiled plan."""
        return {
            "app": {"name": self.app.name, "version": self.app.version,
                    "developer": self.app.developer},
            "viewer": self.viewer,
            "process_name": self.process_name,
            "launch_caps": sorted(str(c) for c in self.caps),
            # apps launch unlabeled; taint is acquired per request
            "pool_key": {"name": self.process_name,
                         "slabel": repr(Label.EMPTY),
                         "ilabel": repr(Label.EMPTY),
                         "caps": len(self.caps)},
            "egress": {
                "authority": sorted(str(c) for c in self.authority),
                "approving_grants": len(self.approved),
            },
            "epochs": {"capindex": self.cap_epoch,
                       "authority": self.auth_epoch,
                       "registry": self.reg_epoch},
        }


class PlanCache:
    """Per-(app_ref, viewer) compiled plans with epoch validity.

    Lookups are one dict probe plus three integer comparisons; a miss
    (cold pair or stale stamps) compiles a fresh plan through the same
    provider services live resolution uses, so a plan is always the
    fixed point of the interpretation it replaces.
    """

    def __init__(self, provider: "Provider") -> None:
        self.provider = provider
        self.enabled = provider.kernel.plane == "fast"
        self._plans: dict[tuple[str, Optional[str]], RequestPlan] = {}
        self._stats = {"hits": 0, "misses": 0, "invalidated": 0,
                       "bypasses": 0}

    def lookup(self, app_ref: str,
               viewer: Optional[str]) -> Optional[RequestPlan]:
        """The plan for (app_ref, viewer), or None when this request
        must take the generic path.

        Bypasses (None) happen when the viewer's account carries
        per-request policy a plan cannot freeze: an integrity policy
        (``require_endorsed``) or audited version pins — neither bumps
        an epoch when edited, so they are checked live and excluded.
        Raises the same :class:`~repro.platform.errors.NoSuchApp` the
        generic path would for an unknown ref.
        """
        provider = self.provider
        key = (app_ref, viewer)
        plan = self._plans.get(key)
        if plan is not None and plan.is_current(provider):
            account = plan.account
            if account is not None and (account.require_endorsed
                                        or account.audited_versions):
                self._stats["bypasses"] += 1
                return None
            self._stats["hits"] += 1
            return plan
        if plan is not None:
            self._stats["invalidated"] += 1
        plan = self._compile(app_ref, viewer, plan)
        if plan is None:
            self._stats["bypasses"] += 1
            return None
        self._stats["misses"] += 1
        if len(self._plans) >= MAX_PLANS:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    def _compile(self, app_ref: str, viewer: Optional[str],
                 stale: Optional[RequestPlan] = None
                 ) -> Optional[RequestPlan]:
        """A current plan for (app_ref, viewer), refreshing ``stale``'s
        authority when it was computed for the same account."""
        p = self.provider
        # Stamp epochs *before* reading any state: a concurrent-looking
        # invalidation between reads then simply retires the plan.
        cap_epoch = p.capindex.epoch
        auth_epoch = p.declass.authority_epoch
        reg_epoch = p.apps.epoch
        app = p.apps.get(app_ref)  # NoSuchApp propagates, as unplanned
        account = p._accounts.get(viewer) if viewer is not None else None
        if account is not None and (account.require_endorsed
                                    or account.audited_versions):
            return None
        caps = p.launch_caps(app, viewer)
        # the viewer's own tags are its account's data tag: a held
        # authority is handed on only for the same account
        held = None
        if stale is not None and stale.account is account:
            held = (stale.approved, stale.authority)
        approved, authority = p.declass.refresh_authority(
            viewer, (account.data_tag,) if account is not None else (),
            held, stale.auth_epoch if held else 0)
        return RequestPlan(app_ref, viewer, app, account, caps, approved,
                           authority, cap_epoch, auth_epoch, reg_epoch)

    def invalidate_all(self, reason: str = "") -> None:
        """Drop every compiled plan (tests; epochs already make stale
        plans unreachable, so this is hygiene, not correctness)."""
        if self._plans:
            self._plans.clear()
            self._stats["invalidated"] += 1

    def stats(self) -> dict[str, int]:
        stats = dict(self._stats)
        stats["entries"] = len(self._plans)
        return stats
