"""Differential proof for crash-consistent replay (PR 4 tentpole).

The claim: restoring the last full checkpoint and replaying the
journal's verified prefix reproduces the provider **byte-identically**
(canonical snapshot form) versus a full restore of a snapshot taken at
the same instant — at every operation boundary, and at *every possible
crash offset* inside the journal image (where the recovered state must
equal the floor record boundary's).
"""

import bisect
import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.net import ExternalClient
from repro.platform import (BaseMismatch, Provider, recover_provider,
                            restore_provider, set_password,
                            snapshot_provider)


def canon(state) -> str:
    """Canonical snapshot bytes: dict order is irrelevant, list order
    must be deterministic (the satellite-1 sorting guarantees it);
    bytes payloads (legal in in-memory snapshots) hex-encode.  The
    checkpoint id names the snapshot, not the state, so it is left
    out."""
    state = {k: v for k, v in state.items() if k != "checkpoint"}
    return json.dumps(
        state, sort_keys=True, separators=(",", ":"),
        default=lambda o: {"__bytes__": o.hex()}
        if isinstance(o, (bytes, bytearray)) else repr(o))


def fresh_provider() -> Provider:
    p = Provider(name="prod")
    install_standard_apps(p)
    return p


def operator_base(p: Provider):
    """The base an operator holds: a fresh or recovered provider's
    first ``snapshot_incremental()`` is a full snapshot."""
    base = p.snapshot_incremental()
    assert base.get("kind") != "delta"
    return base


def assert_equiv(p_full: Provider, p_rec: Provider) -> None:
    assert canon(snapshot_provider(p_full)) == canon(snapshot_provider(p_rec))


def assert_delta_recovers(p: Provider, base) -> None:
    """The operator's delta snapshot is the journal since ``base``:
    folding it onto ``base`` gives the live provider back."""
    delta = p.snapshot_incremental()
    assert delta["kind"] == "delta"
    assert delta["journal"].encode("ascii") == \
        p._durability.journal.raw_bytes()
    p_rec, __ = recover_provider(base, delta["journal"].encode("ascii"),
                                 app_catalog=STANDARD_CATALOG)
    assert_equiv(p, p_rec)


# The durable-mutation vocabulary, as composable steps.
def _signup(name):
    return lambda p: p.signup(name, "pw")


MUTATIONS = {
    "signup": _signup("bob"),
    "signup2": _signup("amy"),
    "profile": lambda p: p.set_profile("bob", music="jazz", bio="hi"),
    "enable": lambda p: p.enable_app("bob", "blog", allow_write=True),
    "disable": lambda p: p.disable_app("bob", "blog"),
    "prefer": lambda p: p.prefer_module("bob", "cropper", "crop-smart"),
    "integrity": lambda p: p.set_integrity_policy("bob", True),
    "js": lambda p: p.set_js_policy("bob", "allow"),
    "pin": lambda p: p.pin_audited("bob", "blog", "1.0"),
    "unpin": lambda p: p.unpin_audited("bob", "blog"),
    "store": lambda p: p.store_user_data("bob", "d.txt", "day one"),
    "store_bytes": lambda p: p.store_user_data("bob", "p.bin",
                                               b"\x00\x01\xff"),
    "grant": lambda p: p.grant_builtin_declassifier(
        "bob", "friends-only", {"friends": ["amy"]}),
    "grant_public": lambda p: p.grant_builtin_declassifier(
        "amy", "public", {}),
    "config": lambda p: p.update_declassifier_config(
        "bob", "friends-only", friends={"amy", "carol"}),
    "revoke": lambda p: p.declass.revoke(
        "bob", p.account("bob").data_tag,
        declassifier_name="friends-only"),
    "endorse": lambda p: p.endorse_module("blog"),
    "retract": lambda p: p.endorsements.retract("blog"),
    "group": lambda p: p.groups.create("bob", "roommates"),
    "member_add": lambda p: p.groups.add_member("bob", "roommates", "amy",
                                                writer=True),
    "member_remove": lambda p: p.groups.remove_member("bob", "roommates",
                                                      "amy"),
    "clock": lambda p: setattr(p.declass, "now", 42.5),
    "delete": lambda p: p.delete_account("amy"),
}

#: A fixed rich timeline touching every subsystem (order matters:
#: each step's preconditions are created by earlier steps).
TIMELINE = ["signup", "signup2", "profile", "enable", "prefer",
            "integrity", "js", "pin", "store", "store_bytes", "grant",
            "grant_public", "config", "endorse", "group", "member_add",
            "clock", "member_remove", "unpin", "disable", "revoke",
            "retract", "delete"]


def run_timeline(steps, tolerant=False):
    """(provider, base snapshot, [journal offset after each step]).

    With ``tolerant`` a step whose precondition fails (e.g. creating
    the same file twice in a random interleaving) is skipped — the
    rejected call must leave no durable trace, which the differential
    assertions then verify.
    """
    p = fresh_provider()
    base = operator_base(p)  # includes the installed world
    offsets = [0]
    for step in steps:
        try:
            MUTATIONS[step](p)
        except Exception:
            if not tolerant:
                raise
        offsets.append(p._durability.journal.size_bytes)
    return p, base, offsets


class TestReplayEqualsFullRestore:
    def test_rich_timeline_byte_identical(self):
        p, base, __ = run_timeline(TIMELINE)
        journal = bytes(p._durability.journal.raw_bytes())
        crash = copy.deepcopy(snapshot_provider(p))
        p_full, r1 = restore_provider(crash, app_catalog=STANDARD_CATALOG)
        p_rec, r2 = recover_provider(base, journal,
                                     app_catalog=STANDARD_CATALOG)
        assert r2["truncated_bytes"] == 0
        assert r2["records_replayed"] > len(TIMELINE)  # multi-record ops
        assert r2["unknown_ops"] == 0
        assert_equiv(p_full, p_rec)
        assert_delta_recovers(p, base)

    def test_every_operation_boundary(self):
        """Crash after each complete operation == full restore of the
        snapshot taken right after that operation."""
        p = fresh_provider()
        base = operator_base(p)
        journal_so_far = []
        marks = []
        for step in TIMELINE:
            MUTATIONS[step](p)
            assert_delta_recovers(p, base)
            journal_so_far.append(bytes(p._durability.journal.raw_bytes()))
            marks.append(copy.deepcopy(snapshot_provider(p)))
        for step, journal, mark in zip(TIMELINE, journal_so_far, marks):
            p_rec, __ = recover_provider(base, journal,
                                         app_catalog=STANDARD_CATALOG)
            p_full, __ = restore_provider(copy.deepcopy(mark),
                                          app_catalog=STANDARD_CATALOG)
            assert canon(snapshot_provider(p_rec)) == \
                canon(snapshot_provider(p_full)), f"after {step!r}"

    def test_replayed_provider_serves_identical_responses(self):
        """The recovered provider is *behaviorally* identical: same
        request-plane responses and same audit stream as the fully
        restored one, for a probe hitting storage, policy, and app
        launch."""
        steps = ["signup", "signup2", "enable", "store", "grant",
                 "endorse"]
        p, base, __ = run_timeline(steps)
        p.enable_app("amy", "blog")
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        bob.get("/app/blog/post", title="t", body="hello")
        journal = bytes(p._durability.journal.raw_bytes())
        crash = copy.deepcopy(snapshot_provider(p))

        p_full, __ = restore_provider(crash, app_catalog=STANDARD_CATALOG)
        p_rec, __ = recover_provider(base, journal,
                                     app_catalog=STANDARD_CATALOG)
        assert_equiv(p_full, p_rec)

        def probe(provider):
            set_password(provider, "amy", "npw")
            amy = ExternalClient("amy", provider.transport())
            amy.login("npw")
            responses = [
                amy.get("/app/blog/read", author="bob", title="t"),
                amy.get("/profile/bob"),
                amy.get("/app/blog/post", title="mine", body="amy's"),
            ]
            events = [(e.category, e.allowed, e.subject)
                      for e in provider.kernel.audit]
            return ([(r.status, r.body) for r in responses], events)

        assert_delta_recovers(p, base)
        full_resp, full_audit = probe(p_full)
        rec_resp, rec_audit = probe(p_rec)
        assert full_resp == rec_resp
        assert full_audit == rec_audit
        assert_equiv(p_full, p_rec)  # still identical after traffic


class TestCrashAtEveryOffset:
    def test_every_byte_offset_recovers_to_last_complete_record(self):
        """Cut the journal at *every* byte offset; recovery must equal
        recovery at the floor record boundary (torn tails are dropped,
        never half-applied), and boundary recoveries at operation marks
        must equal full restores."""
        steps = ["signup", "enable", "store_bytes", "grant"]
        p, base, op_offsets = run_timeline(steps)
        assert_delta_recovers(p, base)
        journal = bytes(p._durability.journal.raw_bytes())

        bounds = [0]
        pos = 0
        for line in journal.splitlines(keepends=True):
            pos += len(line)
            bounds.append(pos)

        bound_canon = {}
        for b in bounds:
            p_rec, __ = recover_provider(base, journal[:b],
                                         app_catalog=STANDARD_CATALOG)
            bound_canon[b] = canon(snapshot_provider(p_rec))
        # operation marks are record boundaries
        assert set(op_offsets) <= set(bounds)

        for cut in range(len(journal) + 1):
            p_rec, report = recover_provider(base, journal[:cut],
                                             app_catalog=STANDARD_CATALOG)
            floor = bounds[bisect.bisect_right(bounds, cut) - 1]
            assert canon(snapshot_provider(p_rec)) == bound_canon[floor], \
                f"crash at byte {cut}"
            assert report["truncated_bytes"] == cut - floor

    def test_every_byte_offset_names_its_base(self):
        """The journal's first line names the checkpoint it extends.
        Cut anywhere, the journal folds over its own base; once that
        line is whole, it is refused over another provider's base.  A
        cut inside it leaves no records, so no base is refused."""
        p, base, __ = run_timeline(["signup", "store"])
        other = operator_base(fresh_provider())
        journal = bytes(p._durability.journal.raw_bytes())
        header = journal.index(b"\n") + 1
        assert base["checkpoint"].encode("ascii") in journal[:header]
        for cut in range(len(journal) + 1):
            recover_provider(base, journal[:cut],
                             app_catalog=STANDARD_CATALOG)
            if cut < header:
                __, report = recover_provider(
                    other, journal[:cut], app_catalog=STANDARD_CATALOG)
                assert report["records_replayed"] == 0
            else:
                with pytest.raises(BaseMismatch):
                    recover_provider(other, journal[:cut],
                                     app_catalog=STANDARD_CATALOG)


class TestRandomInterleavings:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from([
        "profile", "enable", "prefer", "store", "store_bytes", "grant",
        "config", "revoke", "endorse", "retract", "js", "pin", "clock",
        "disable", "member_add", "member_remove", "unpin",
    ]), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=10**9))
    def test_random_mutations_then_crash(self, steps, cut_seed):
        """Random durable-mutation interleavings, then a crash at a
        pseudo-random byte offset: recovery equals the floor-boundary
        recovery; a full journal equals the full restore."""
        prologue = ["signup", "signup2", "grant", "group"]
        p, base, __ = run_timeline(prologue + steps, tolerant=True)
        journal = bytes(p._durability.journal.raw_bytes())
        crash = copy.deepcopy(snapshot_provider(p))

        # complete journal: identical to a full restore
        p_full, __ = restore_provider(crash, app_catalog=STANDARD_CATALOG)
        p_rec, __ = recover_provider(base, journal,
                                     app_catalog=STANDARD_CATALOG)
        assert_equiv(p_full, p_rec)
        assert_delta_recovers(p, base)

        # torn journal: equals the floor record boundary's recovery
        cut = cut_seed % (len(journal) + 1)
        bounds = [0]
        pos = 0
        for line in journal.splitlines(keepends=True):
            pos += len(line)
            bounds.append(pos)
        floor = bounds[bisect.bisect_right(bounds, cut) - 1]
        p_cut, __ = recover_provider(base, journal[:cut],
                                     app_catalog=STANDARD_CATALOG)
        p_floor, __ = recover_provider(base, journal[:floor],
                                       app_catalog=STANDARD_CATALOG)
        assert_equiv(p_floor, p_cut)


class TestPostRecoveryLife:
    def test_new_mutations_after_recovery_are_journaled(self):
        """Recovery re-bases the journal: fresh mutations land in a new
        journal against the recovered checkpoint, and a second crash
        recovers them too."""
        p, base, __ = run_timeline(["signup", "enable", "store"])
        journal = bytes(p._durability.journal.raw_bytes())
        p_rec, __ = recover_provider(base, journal,
                                     app_catalog=STANDARD_CATALOG)
        assert p_rec._durability.journal.seq == 0  # re-based
        base2 = operator_base(p_rec)
        p_rec.signup("carol", "pw")
        p_rec.store_user_data("carol", "x.txt", "hello again")
        journal2 = bytes(p_rec._durability.journal.raw_bytes())
        assert p_rec._durability.journal.seq > 0
        p_rec2, __ = recover_provider(base2, journal2,
                                      app_catalog=STANDARD_CATALOG)
        assert p_rec2.read_user_data("carol", "x.txt") == "hello again"
        assert_equiv(p_rec, p_rec2)
        assert_delta_recovers(p_rec, base2)

    def test_post_recovery_ids_match_full_restore(self):
        """After deletions, both recovery paths must leave identical
        allocator positions: the next signup/insert gets the same tag
        and row ids either way."""
        p, base, __ = run_timeline(["signup", "signup2", "store",
                                    "delete"])
        journal = bytes(p._durability.journal.raw_bytes())
        crash = copy.deepcopy(snapshot_provider(p))
        p_full, __ = restore_provider(crash, app_catalog=STANDARD_CATALOG)
        p_rec, __ = recover_provider(base, journal,
                                     app_catalog=STANDARD_CATALOG)
        assert_delta_recovers(p, base)
        a_full = p_full.signup("dora", "pw")
        a_rec = p_rec.signup("dora", "pw")
        assert a_full.data_tag.tag_id == a_rec.data_tag.tag_id
        assert a_full.write_tag.tag_id == a_rec.write_tag.tag_id
        assert_equiv(p_full, p_rec)
