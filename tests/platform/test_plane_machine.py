"""The one fast-vs-oracle model check: a state machine over PlanePair.

Hypothesis drives one deployment on each plane (``tests/_differential.py``)
through the same interleaving of requests and policy edits: posts,
reads and lists by every viewer, anonymous and unknown-app requests,
app enable/disable, befriend/unfriend, public and club declassifier
grants and revocations, club roster changes, account deletion followed
by a fresh signup under the same name, and checkpoints
(``snapshot_incremental()`` on the fast plane, ``snapshot()`` on the
oracle).  A checkpoint also folds the fast plane's delta into its base
with ``recover_provider`` and requires the live deployment back.
Every step's outcome must be identical on both planes, and after
every step:

* responses, charges, denials and audit streams agree
  (:meth:`PlanePair.assert_equivalent`);
* every viewer's export authority agrees: on the fast plane the one
  a planned blog request exports under (the plan's held authority,
  refreshed through the owner-scoped dirty log), against the oracle's
  live evaluation of every grant;
* no pooled process sits idle with a label or capability it did not
  launch with;
* a viewer got 200 on another user's post only when the machine's own
  model of friendships, public grants and club membership releases
  the author's data to that viewer — a check that trusts neither
  engine.  The model is exact: a read answers 200 if and only if the
  author has the blog enabled and is the viewer or releases to them.

The budget comes from the active Hypothesis profile: a quarter of its
``max_examples`` (25 histories by default; run with
``--hypothesis-profile=deep`` for ten times as many).
:class:`SmallJournalMachine` runs a tenth of that budget with a
512-byte compaction threshold, so checkpoints compact, often twice in
a row, and deltas fold onto a compacted base.

:func:`run_focused` runs the same machine with only some of its rules
and every invariant, so a history spends all its steps on one
concern; the plan, pool and scoped-authority differentials use it.
"""

import dataclasses

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RULE_MARKER, RuleBasedStateMachine,
                                 invariant, rule,
                                 run_state_machine_as_test)

from repro.apps import STANDARD_CATALOG
from repro.core import W5System
from repro.declassify import AnyOf
from repro.errors import W5Error
from repro.platform import ProviderConfig, recover_provider, snapshot_provider

from .._differential import PlanePair
from .test_journal_replay import canon

USERS = ("alice", "bob", "carol", "dave")
APPS = ("blog", "photo-share", "social")
#: The club's owner; an owner stays on the roster through deletion.
OWNER = "alice"

users = st.sampled_from(USERS)
titles = st.integers(0, 3)


def build_deployment(config: ProviderConfig) -> W5System:
    """Four users on three apps; alice and bob are friends; alice owns
    group ``club``; carol's grant wraps the club's roster policy object
    in a combinator of her own."""
    w5 = W5System(name="machine", config=config)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    club = w5.provider.groups.create(OWNER, "club")
    w5.provider.grant_declassifier("carol", AnyOf(club.policy))
    return w5


def apply_op(w5: W5System, op: tuple):
    """Run one request or policy edit; return its exact outcome (a
    platform error is an outcome too, compared by type)."""
    kind, provider = op[0], w5.provider
    try:
        if kind == "get":
            __, user, path, params = op
            client = (w5.anonymous_client() if user is None
                      else w5.client(user))
            r = client.get(path, **params)
            return r.status, r.body
        if kind == "toggle":
            __, user, on = op
            path = "/policy/enable" if on else "/policy/disable"
            r = w5.client(user).post(path, params={"app": "blog"})
            return r.status, r.body
        if kind in ("befriend", "unfriend"):
            getattr(w5, kind)(op[1], op[2])
        elif kind == "grant-public":
            provider.grant_builtin_declassifier(op[1], "public")
        elif kind == "revoke-public":
            return provider.revoke_declassifier(op[1], "public")
        elif kind == "grant-club":
            provider.grant_declassifier(
                op[1], AnyOf(provider.groups.get("club").policy))
        elif kind == "revoke-club":
            return provider.revoke_declassifier(op[1], "any-of")
        elif kind == "join":
            provider.groups.add_member(OWNER, "club", op[1])
        elif kind == "leave":
            provider.groups.remove_member(OWNER, "club", op[1])
        elif kind == "rejoin":
            erased = provider.delete_account(op[1])
            w5.add_user(op[1], apps=APPS)
            return erased
        return kind
    except W5Error as exc:
        return "error", type(exc).__name__


class PlaneMachine(RuleBasedStateMachine):
    #: The fast plane's journal compaction threshold.
    JOURNAL_COMPACT_BYTES = ProviderConfig.journal_compact_bytes

    def __init__(self) -> None:
        super().__init__()
        self.pair = PlanePair(lambda config: build_deployment(
            dataclasses.replace(
                config, journal_compact_bytes=self.JOURNAL_COMPACT_BYTES)))
        #: The full snapshot the fast plane's deltas are relative to:
        #: a fresh provider's first snapshot_incremental() is full.
        self.base = self.pair.fast.provider.snapshot_incremental()
        #: The model: whom each author's data is released to.
        self.friends = {user: set() for user in USERS}
        self.friends["alice"].add("bob")
        self.friends["bob"].add("alice")
        self.public: set[str] = set()
        self.club_grants = {"carol"}
        self.members = {OWNER}
        self.blog_on = set(USERS)
        #: (author, viewer, status) of the reads since the last check.
        self.reads: list[tuple[str, str, int]] = []

    def run(self, *op):
        return self.pair.run(apply_op, op)

    def releases(self, author: str, viewer: str) -> bool:
        return (viewer in self.friends[author] or author in self.public
                or (author in self.club_grants and viewer in self.members))

    # -- requests -------------------------------------------------------

    @rule(user=users, i=titles)
    def post(self, user, i):
        self.run("get", user, "/app/blog/post",
                 {"title": f"t{i}", "body": f"b{i}"})

    @rule(author=users, viewer=users, i=titles)
    def read(self, author, viewer, i):
        status, __ = self.run("get", viewer, "/app/blog/read",
                              {"author": author, "title": f"t{i}"})
        self.reads.append((author, viewer, status))

    @rule(author=users, viewer=users)
    def list_posts(self, author, viewer):
        self.run("get", viewer, "/app/blog/list", {"author": author})

    @rule()
    def anonymous_list(self):
        self.run("get", None, "/app/blog/list", {"author": "alice"})

    @rule(user=users)
    def missing_app(self, user):
        self.run("get", user, "/app/nonesuch/run", {})

    # -- policy edits ---------------------------------------------------

    @rule(user=users, on=st.booleans())
    def toggle_blog(self, user, on):
        self.run("toggle", user, on)
        if on:
            self.blog_on.add(user)
        else:
            self.blog_on.discard(user)

    @rule(a=users, b=users)
    def befriend(self, a, b):
        if a != b:
            self.run("befriend", a, b)
            self.friends[a].add(b)
            self.friends[b].add(a)

    @rule(a=users, b=users)
    def unfriend(self, a, b):
        if a != b:
            self.run("unfriend", a, b)
            self.friends[a].discard(b)
            self.friends[b].discard(a)

    @rule(user=users, grant=st.booleans())
    def public_grant(self, user, grant):
        if grant:
            self.run("grant-public", user)
            self.public.add(user)
        else:
            self.run("revoke-public", user)
            self.public.discard(user)

    @rule(user=users, grant=st.booleans())
    def club_grant(self, user, grant):
        if grant:
            self.run("grant-club", user)
            self.club_grants.add(user)
        else:
            self.run("revoke-club", user)
            self.club_grants.discard(user)

    @rule(user=users, join=st.booleans())
    def club_roster(self, user, join):
        if join:
            self.run("join", user)
            self.members.add(user)
        elif user != OWNER:
            self.run("leave", user)
            self.members.discard(user)

    @rule(user=users)
    def delete_and_sign_up_again(self, user):
        """The departing user's grants go and, unless they own the
        club, their roster seat; other users' friend lists keep the
        name, so they release to whoever signs up under it next."""
        self.run("rejoin", user)
        self.blog_on.add(user)
        self.friends[user] = set()
        self.public.discard(user)
        self.club_grants.discard(user)
        if user != OWNER:
            self.members.discard(user)

    @rule()
    def checkpoint(self):
        """The fold of base and delta is the live deployment: the
        recovered provider's snapshot, with the non-durable grants
        recovery reports it could not restore (carol's ``AnyOf``),
        equals the live one.  A full snapshot becomes the new base."""
        fast = self.pair.fast.provider
        snap = fast.snapshot_incremental()
        self.pair.oracle.provider.snapshot()
        live = canon(snapshot_provider(fast))
        if snap.get("kind") != "delta":
            assert canon(snap) == live
            self.base = snap
            return
        recovered, report = recover_provider(
            self.base, snap["journal"].encode("ascii"),
            app_catalog=STANDARD_CATALOG)
        assert report["truncated_bytes"] == 0
        assert canon({**snapshot_provider(recovered),
                      "skipped_grants": report["unrestored_grants"]}) == live

    # -- invariants -----------------------------------------------------

    @invariant()
    def planes_equivalent(self):
        self.pair.assert_equivalent()

    @invariant()
    def authority_agrees(self):
        self.pair.assert_authority_agrees(USERS + (None,))

    @invariant()
    def no_idle_process_is_tainted(self):
        pool = self.pair.fast.provider.kernel.pool
        for (__, slabel, ilabel, caps), bucket in pool._idle.items():
            for proc in bucket:
                assert (proc.slabel, proc.ilabel, proc.caps) \
                    == (slabel, ilabel, caps), proc

    @invariant()
    def reads_follow_the_release_model(self):
        for author, viewer, status in self.reads:
            released = author in self.blog_on and (
                author == viewer or self.releases(author, viewer))
            assert (status == 200) == released, (author, viewer, status)
        self.reads.clear()


PlaneMachine.TestCase.settings = settings(
    max_examples=max(1, settings.default.max_examples // 4),
    stateful_step_count=20, deadline=None)
TestPlaneMachine = PlaneMachine.TestCase


class SmallJournalMachine(PlaneMachine):
    """The machine with a journal that compacts past 512 bytes: the
    deployment's set-up alone crosses it, one befriend or two posts
    cross it again."""

    JOURNAL_COMPACT_BYTES = 512


SmallJournalMachine.TestCase.settings = settings(
    max_examples=max(1, settings.default.max_examples // 10),
    stateful_step_count=20, deadline=None)
TestSmallJournalMachine = SmallJournalMachine.TestCase


def test_deltas_fold_onto_a_twice_compacted_base():
    """Two compactions in a row, then a delta: the fold uses the
    second compaction's snapshot as its base."""
    # the machine's base is its first snapshot_incremental(), and the
    # set-up's journal crosses the threshold: compaction 1
    machine = SmallJournalMachine()
    machine.post(user="alice", i=0)
    machine.post(user="bob", i=1)
    machine.checkpoint()  # compaction 2
    machine.post(user="carol", i=2)
    machine.checkpoint()  # a delta, folded onto compaction 2's base
    machine.planes_equivalent()
    stats = machine.pair.fast.provider.persistence_stats()
    assert (stats["compactions"], stats["incremental_snapshots"]) == (2, 1)


RULES = frozenset(name for name, f in vars(PlaneMachine).items()
                  if hasattr(f, RULE_MARKER))


def run_focused(*rules: str, examples: int, steps: int) -> None:
    """Run :class:`PlaneMachine` with only ``rules``: the others are
    shadowed by ``None``, which Hypothesis does not collect as a rule,
    and every invariant still runs after every step."""
    assert set(rules) <= RULES, set(rules) - RULES
    machine = type("FocusedPlaneMachine", (PlaneMachine,),
                   dict.fromkeys(RULES - set(rules)))
    run_state_machine_as_test(machine, settings=settings(
        max_examples=examples, stateful_step_count=steps, deadline=None))
