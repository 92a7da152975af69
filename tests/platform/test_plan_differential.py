"""Differential property test: the fast plane changes nothing.

A ``ProviderConfig.fast()`` and a ``ProviderConfig.oracle()``
deployment are driven through the same randomly generated interleaving
of requests and policy mutations, and compared through the shared
fast-vs-oracle helper (``tests/_differential.py``): identical
responses, charge totals, denials and audit drops, and audit streams
identical up to the pid renumbering process recycling implies.
Hypothesis shrinks any divergence to a minimal witness.  The plain
planned history runs the plane state machine
(``tests/platform/test_plane_machine.py``) focused on requests, blog
toggles and friendships; this module also runs the mandated-pipeline
history under a tight scan quota and a 64-event audit ring.  The batch
entrypoint is checked against sequential dispatch on the fast plane,
byte for byte, and a rate-limited pair of raw providers must agree on
every 429 and admission audit record.

A crowd history drives more viewer label states than the flow cache's
state table holds, so eviction runs under the same comparison.

A further class pins each plan-invalidation edge individually:
befriend/unfriend (authority epoch), app disable (cap-index epoch),
account deletion (cap-index epoch), upload/fork (registry epoch), and
a journal-replay restore (which rewires tag identity wholesale).
"""

from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import install_standard_apps
from repro.core import W5System
from repro.labels.cache import MAX_STATES
from repro.net import ExternalClient, HttpRequest
from repro.platform import Provider, ProviderConfig

from .._differential import PlanePair, normalized_audit
from .test_plane_machine import run_focused

USERS = ("alice", "bob", "carol")
APPS = ("blog", "social")


def build_deployment(config: ProviderConfig = ProviderConfig.fast()
                     ) -> W5System:
    w5 = W5System(name="plans", config=config)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


def apply_op(w5: W5System, op) -> tuple:
    """Run one request/mutation; return the exact outcome."""
    kind = op[0]
    if kind == "post":
        _, ui, i = op
        user = USERS[ui % len(USERS)]
        r = w5.client(user).get("/app/blog/post",
                                title=f"t{i}", body=f"b{i}")
    elif kind == "read":
        _, ui, vi, i = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = w5.client(viewer).get("/app/blog/read",
                                  author=author, title=f"t{i}")
    elif kind == "list":
        _, ui, vi = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = w5.client(viewer).get("/app/blog/list", author=author)
    elif kind == "anon":
        r = w5.anonymous_client().get("/app/blog/list", author="alice")
    elif kind == "missing":
        _, ui = op
        r = w5.client(USERS[ui % len(USERS)]).get("/app/nonesuch/run")
    elif kind == "toggle":
        _, ui, on = op
        user = USERS[ui % len(USERS)]
        path = "/policy/enable" if on else "/policy/disable"
        r = w5.client(user).post(path, params={"app": "blog"})
    elif kind == "befriend":
        _, ui, vi = op
        a, b = USERS[ui % len(USERS)], USERS[vi % len(USERS)]
        if a == b:
            return ("skip",)
        w5.befriend(a, b)
        return ("befriended",)
    elif kind == "unfriend":
        _, ui, vi = op
        a, b = USERS[ui % len(USERS)], USERS[vi % len(USERS)]
        if a == b:
            return ("skip",)
        w5.unfriend(a, b)
        return ("unfriended",)
    else:
        return ("noop",)
    return (r.status, r.body)


def ops():
    post = st.tuples(st.just("post"), st.integers(0, 2), st.integers(0, 3))
    read = st.tuples(st.just("read"), st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 3))
    list_ = st.tuples(st.just("list"), st.integers(0, 2), st.integers(0, 2))
    anon = st.tuples(st.just("anon"))
    missing = st.tuples(st.just("missing"), st.integers(0, 2))
    toggle = st.tuples(st.just("toggle"), st.integers(0, 2), st.booleans())
    befriend = st.tuples(st.just("befriend"), st.integers(0, 2),
                         st.integers(0, 2))
    unfriend = st.tuples(st.just("unfriend"), st.integers(0, 2),
                         st.integers(0, 2))
    return st.lists(st.one_of(post, read, list_, anon, missing, toggle,
                              befriend, unfriend), max_size=25)


def audit_bytes(w5: W5System) -> list:
    """The audit stream, byte-for-byte (sans the monotonic seq)."""
    return [(e.category, e.allowed, e.subject, e.detail)
            for e in w5.provider.kernel.audit]


class TestPlannedPlaneIsByteIdentical:
    def test_identical_histories_identical_streams(self):
        run_focused("post", "read", "list_posts", "anonymous_list",
                    "missing_app", "toggle_blog", "befriend", "unfriend",
                    examples=30, steps=25)

    @settings(max_examples=15, deadline=None)
    @given(ops())
    def test_batch_entrypoint_matches_sequential(self, seed_ops):
        """handle_batch == N× handle_request, byte for byte, with the
        viewer's own policy edits riding inside the burst."""
        batched = build_deployment()
        sequential = build_deployment()
        # mutations first, then a burst of reads through both doors
        for op in seed_ops:
            if op[0] in ("befriend", "unfriend", "toggle", "post"):
                apply_op(batched, op)
                apply_op(sequential, op)
        session_b = batched.provider.sessions.login("alice", "pw").token
        session_s = sequential.provider.sessions.login("alice", "pw").token

        def burst(session):
            def request(method, path, **params):
                return HttpRequest(method=method, path=path, params=params,
                                   cookies={"w5_session": session})

            def read():
                return request("GET", "/app/blog/list", author="alice")

            # a cap-index edit (disable/enable) and an account policy
            # no epoch covers (require_endorsed), each between reads
            return [read(), read(),
                    request("POST", "/policy/disable", app="blog"), read(),
                    request("POST", "/policy/enable", app="blog"), read(),
                    read(),
                    request("POST", "/policy/integrity",
                            require_endorsed=True), read(), read(),
                    request("POST", "/policy/integrity",
                            require_endorsed=False), read(), read()]

        responses_b = batched.provider.handle_batch(burst(session_b))
        responses_s = [sequential.provider.handle_request(r)
                       for r in burst(session_s)]
        assert [(r.status, r.body) for r in responses_b] \
            == [(r.status, r.body) for r in responses_s]
        assert audit_bytes(batched) == audit_bytes(sequential)


class TestRateLimitedPlanesAgree:
    """With a rate limit, admission has observables — per-principal
    window counts, 429s, RESOURCE audit records — that both planes
    must produce identically, for app and provider routes alike."""

    LIMIT = 12

    def _build(self, config: ProviderConfig) -> dict:
        provider = Provider(name="rl", rate_limit=self.LIMIT, config=config)
        install_standard_apps(provider)
        clients = {None: ExternalClient("anonymous", provider.transport())}
        for user in USERS:
            provider.signup(user, "pw")
            provider.enable_app(user, "blog")
            provider.grant_builtin_declassifier(
                user, "friends-only", {"friends": ["bob"]})
            clients[user] = ExternalClient(user, provider.transport())
            clients[user].login("pw")
        return {"provider": provider, "clients": clients}

    @staticmethod
    def _request(deployment: dict, i: int, user, kind: str):
        client = deployment["clients"][user]
        if kind == "post":
            return client.get("/app/blog/post", title=f"t{i}", body="b")
        if kind == "read":
            return client.get("/app/blog/read", author="alice",
                              title=f"t{i - 3}")
        if kind == "list":
            return client.get("/app/blog/list", author="bob")
        if kind == "missing":
            return client.get("/app/nonesuch/run")
        if kind == "apps":
            return client.get("/apps")
        if kind == "js":
            return client.post("/policy/javascript",
                               params={"policy": "allow"})
        return client.get("/feed")

    def test_fast_matches_oracle_past_the_limit(self):
        fast = self._build(ProviderConfig.fast())
        oracle = self._build(ProviderConfig.oracle())
        kinds = ("post", "read", "list", "missing", "apps", "js", "feed")
        principals = (None,) + USERS
        statuses = []
        # 150 requests cross the 100-tick window reset once
        for i in range(150):
            user = principals[i % len(principals)]
            kind = kinds[(i // len(principals)) % len(kinds)]
            r_fast = self._request(fast, i, user, kind)
            r_oracle = self._request(oracle, i, user, kind)
            assert (r_fast.status, r_fast.body) \
                == (r_oracle.status, r_oracle.body), (i, user, kind)
            statuses.append(r_fast.status)
        fast_p, oracle_p = fast["provider"], oracle["provider"]
        assert 429 in statuses and 200 in statuses
        assert fast_p.gateway.rate_limited == oracle_p.gateway.rate_limited
        assert fast_p.gateway.rate_limited > 0
        assert normalized_audit(fast_p.kernel.audit) \
            == normalized_audit(oracle_p.kernel.audit)


def build_m14(config: ProviderConfig = ProviderConfig.fast()
              ) -> W5System:
    """A deployment under a tight scan quota and a small audit ring.

    The quota and ring bound are deliberately tight so the interleaved
    streams genuinely exercise quota-exhaustion denials (batched
    charges must refuse at the same item with the same message) and
    audit ring eviction (lazy records must evict and count the same).
    """
    w5 = W5System(name="m14", config=config,
                  quotas={"db_rows_scanned": 6},
                  audit_max_events=64)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


class TestM14FastPathsAreByteIdentical:
    """The mandated pipeline's fast paths (lazy audit, batched charges,
    compiled plans, pooled processes) vs the oracle plane.
    The op mix is label-change heavy (every cross-user blog read taints
    a process and changes labels) and the tight ``db_rows_scanned``
    quota makes denials fire as posts accumulate.
    """

    @settings(max_examples=30, deadline=None)
    @given(ops())
    def test_fast_vs_naive_pipeline(self, seed_ops):
        pair = PlanePair(build_m14)
        for op in seed_ops:
            pair.run(apply_op, op)
        pair.assert_equivalent()

    def test_transition_cache_populates_and_survives_flush(self):
        """The tainted read's label change is a flow-cache transition,
        read through ``stats()`` alone: a registry restore's flush
        empties the memo and the next read re-primes it."""
        w5 = build_m14()
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        flow = w5.provider.kernel.flow_cache

        def read() -> dict:
            r = w5.client("bob").get("/app/blog/read", author="alice",
                                     title="t")
            assert r.status == 200
            return flow.stats()

        first = read()
        assert first["misses"]["label_change"] >= 1
        second = read()  # the same transition, now served from the memo
        assert second["misses"]["label_change"] == \
            first["misses"]["label_change"]
        assert second["hits"]["label_change"] > \
            first["hits"].get("label_change", 0)
        flow.invalidate_all(reason="registry-restore")
        flushed = flow.stats()
        assert flushed["entries"] == 0
        assert flushed["invalidations"] == {"registry-restore": 1}
        third = read()
        assert third["misses"]["label_change"] > \
            second["misses"]["label_change"]
        fourth = read()
        assert fourth["misses"]["label_change"] == \
            third["misses"]["label_change"]
        assert fourth["hits"]["label_change"] > \
            third["hits"]["label_change"]


#: Enough users that reading every author's list as every viewer puts
#: more than MAX_STATES (viewer caps, author taint) states through the
#: fast plane's flow cache.
CROWD = tuple(f"c{i:02d}" for i in range(isqrt(MAX_STATES) + 1))


def build_crowd(config: ProviderConfig = ProviderConfig.fast()
                ) -> W5System:
    w5 = W5System(name="crowd", config=config)
    for user in CROWD:
        w5.add_user(user, apps=("blog",))
    for user in CROWD[::2]:
        w5.befriend(user, CROWD[-1])
    return w5


def crowd_op(w5: W5System, op) -> tuple:
    kind, viewer, author = op
    client = w5.client(viewer)
    if kind == "post":
        r = client.get("/app/blog/post", title=f"by-{viewer}", body="b")
    else:
        r = client.get("/app/blog/list", author=author)
    return (r.status, r.body)


class TestStateEvictionIsByteIdentical:
    def test_more_states_than_the_table_holds(self):
        pair = PlanePair(build_crowd)
        for user in CROWD:
            pair.run(crowd_op, ("post", user, user))
        cross = [(v, a) for v in CROWD for a in CROWD]
        assert len(cross) > MAX_STATES
        # the second pass revisits states the first one evicted
        for viewer, author in cross + cross[::-1]:
            pair.run(crowd_op, ("list", viewer, author))
        pair.assert_equivalent()
        assert pair.fast.provider.kernel.flow_cache.stats()["evictions"] > 0


class TestPlanInvalidation:
    """Each policy edge that must retire a compiled plan, pinned."""

    def _warm(self, w5, viewer="bob", author="alice"):
        r = w5.client(viewer).get("/app/blog/list", author=author)
        assert r.ok
        return r

    def test_befriend_unfriend_rotates_authority(self):
        w5 = build_deployment()
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        assert self._warm(w5).status == 200
        plan = w5.provider.plans.lookup("blog", "bob")
        w5.unfriend("alice", "bob")
        assert not plan.is_current(w5.provider)
        r = w5.client("bob").get("/app/blog/read",
                                 author="alice", title="t")
        assert r.status == 403  # authority really shrank
        w5.befriend("alice", "bob")
        r = w5.client("bob").get("/app/blog/read",
                                 author="alice", title="t")
        assert r.status == 200  # and grew back

    def test_disable_app_retires_plan(self):
        w5 = build_deployment()
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        assert w5.client("alice").get("/app/blog/read", author="alice",
                                      title="t").status == 200
        plan = w5.provider.plans.lookup("blog", "alice")
        w5.provider.disable_app("alice", "blog")
        assert not plan.is_current(w5.provider)
        r = w5.client("alice").get("/app/blog/read", author="alice",
                                   title="t")
        assert r.status == 403  # relaunch without alice's caps

    def test_delete_account_retires_plan(self):
        w5 = build_deployment()
        self._warm(w5, viewer="carol", author="carol")
        plan = w5.provider.plans.lookup("blog", "carol")
        assert plan is not None
        w5.provider.delete_account("carol")
        assert not plan.is_current(w5.provider)

    def test_upload_retires_plan_via_registry_epoch(self):
        w5 = build_deployment()
        self._warm(w5)
        plan = w5.provider.plans.lookup("blog", "bob")
        w5.provider.fork_app("blog", "new-dev")
        assert not plan.is_current(w5.provider)

    def test_account_policy_bypasses_live(self):
        """require_endorsed never bumps an epoch — checked per request."""
        w5 = build_deployment()
        self._warm(w5)
        assert w5.provider.plans.lookup("blog", "bob") is not None
        w5.provider.set_integrity_policy("bob", require_endorsed=True)
        assert w5.provider.plans.lookup("blog", "bob") is None
        stats = w5.provider.plans.stats()
        assert stats["bypasses"] >= 1
        # unendorsed app + endorsement requirement -> the generic
        # path's refusal, not a stale plan's allow
        r = w5.client("bob").get("/app/blog/list", author="alice")
        assert r.status == 403

    def test_journal_replay_restore_starts_plans_cold(self):
        from repro.apps import STANDARD_CATALOG
        from repro.platform import recover_provider, set_password

        w5 = build_deployment()
        base = w5.provider.snapshot_incremental()
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        self._warm(w5)
        journal = bytes(w5.provider._durability.journal.raw_bytes())
        recovered, report = recover_provider(
            base, journal, STANDARD_CATALOG,
            config=ProviderConfig.fast())
        assert recovered.plans.enabled
        assert recovered.plans.stats()["entries"] == 0
        # a fresh login drives the planned path against restored state
        set_password(recovered, "alice", "pw")
        session = recovered.sessions.login("alice", "pw").token
        req = HttpRequest(method="GET", path="/app/blog/list",
                          params={"author": "alice"},
                          cookies={"w5_session": session})
        r = recovered.handle_request(req)
        assert r.status == 200
        assert "t" in str(r.body)
