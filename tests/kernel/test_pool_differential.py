"""Differential property test: process recycling changes nothing.

A fast-plane deployment (app-process pool on) and an oracle deployment
(no pool) are driven through the *same* randomly generated request
history over three apps, and compared through the shared fast-vs-oracle
helper (``tests/_differential.py``): identical responses and charges,
and audit streams identical once pids are renumbered per spawn and the
`` (recycled)`` marker is dropped — the only trace recycling leaves.
Hypothesis shrinks any divergence to a minimal witness — the same
methodology as the flow-cache differential
(``tests/kernel/test_cache_differential.py``), one layer up.

A second class pins the taint-safety contract directly at the pool:
a process whose secrecy label floated during a request is never
returned to the free list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import W5System
from repro.platform import ProviderConfig
from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, plus

from .._differential import PlanePair

USERS = ("alice", "bob", "carol")
APPS = ("blog", "photo-share", "social")


def build_deployment(config: ProviderConfig) -> W5System:
    w5 = W5System(name=f"pool-{config.plane}", config=config)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


def apply_op(w5: W5System, op) -> tuple:
    """Run one request; return a comparable (masked) outcome record."""
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
    else:
        return ("noop",)
    return (r.status, r.body)


def ops():
    post = st.tuples(st.just("post"), st.integers(0, 2), st.integers(0, 3))
    read = st.tuples(st.just("read"), st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 3))
    list_ = st.tuples(st.just("list"), st.integers(0, 2), st.integers(0, 2))
    anon = st.tuples(st.just("anon"))
    toggle = st.tuples(st.just("toggle"), st.integers(0, 2), st.booleans())
    befriend = st.tuples(st.just("befriend"), st.integers(0, 2),
                         st.integers(0, 2))
    return st.lists(st.one_of(post, read, list_, anon, toggle, befriend),
                    max_size=25)


class TestPooledDeploymentIsEquivalent:
    @settings(max_examples=30, deadline=None)
    @given(ops())
    def test_identical_histories_identical_outcomes(self, seed_ops):
        pair = PlanePair(build_deployment)
        assert pair.fast.provider.kernel.pool.enabled
        assert not pair.oracle.provider.kernel.pool.enabled
        pair.assert_equivalent()  # setup already agrees

        for op in seed_ops:
            pair.run(apply_op, op)
        pair.assert_equivalent()

        # and no pooled process ever sits idle with residual taint
        pool = pair.fast.provider.kernel.pool
        for (name, slabel, ilabel, caps), bucket in pool._idle.items():
            for proc in bucket:
                assert proc.slabel == slabel
                assert proc.ilabel == ilabel
                assert proc.caps == caps


class TestBoundedRetention:
    """Tainted reads never recycle, so each spawns and exits a process;
    kernel and meter state must not grow with the number served."""

    N = 40

    def _read_own_post(self, w5, __):
        r = w5.client("alice").get("/app/blog/read", author="alice",
                                   title="t0")
        return (r.status, r.body)

    def test_tainted_reads_retain_nothing_per_request(self):
        pair = PlanePair(build_deployment)
        pair.run(apply_op, ("post", 0, 0))
        sizes = []
        for __ in range(2):
            for i in range(self.N):
                pair.run(self._read_own_post, i)
            sizes.append({
                plane: (len(w5.provider.kernel.processes()),
                        len(w5.provider.kernel.resources._usage),
                        len(w5.provider.kernel.resources._names))
                for plane, w5 in (("fast", pair.fast),
                                  ("oracle", pair.oracle))})
        assert sizes[0] == sizes[1]
        assert pair.fast.provider.kernel.pool.rejected_tainted >= 2 * self.N
        pair.assert_equivalent()


class TestTaintSafety:
    def _kernel(self):
        kernel = Kernel(recycle=True)
        root = kernel.spawn_trusted("root")
        tag = kernel.create_tag(root, purpose="secret")
        return kernel, tag

    def test_clean_process_is_recycled_and_reused(self):
        kernel, tag = self._kernel()
        caps = CapabilitySet([plus(tag)])
        p = kernel.pool.checkout("app:x", caps=caps)
        assert kernel.pool.release(p) is True
        assert p.alive
        assert kernel.pool.idle_count("app:x") == 1
        q = kernel.pool.checkout("app:x", caps=caps)
        assert q.pid == p.pid
        assert kernel.pool.reuses == 1

    def test_tainted_process_is_never_pooled(self):
        kernel, tag = self._kernel()
        caps = CapabilitySet([plus(tag)])
        p = kernel.pool.checkout("app:x", caps=caps)
        kernel.change_label(p, secrecy=Label([tag]))  # the read taints
        assert kernel.pool.release(p) is False
        assert not p.alive
        assert kernel.pool.idle_count("app:x") == 0
        assert kernel.pool.rejected_tainted == 1
        # the next checkout must be a fresh, untainted process
        q = kernel.pool.checkout("app:x", caps=caps)
        assert q.pid != p.pid
        assert q.slabel.is_empty()

    def test_cap_shift_is_never_pooled(self):
        from repro.labels import minus
        kernel, tag = self._kernel()
        caps = CapabilitySet([plus(tag), minus(tag)])
        p = kernel.pool.checkout("app:x", caps=caps)
        kernel.drop_caps(p, [minus(tag)])
        assert kernel.pool.release(p) is False
        assert kernel.pool.rejected_tainted == 1

    def test_launch_key_mismatch_goes_to_its_own_bucket(self):
        kernel, tag = self._kernel()
        p = kernel.pool.checkout("app:x", caps=CapabilitySet([plus(tag)]))
        kernel.pool.release(p)
        # different caps -> different key -> no reuse of p
        q = kernel.pool.checkout("app:x", caps=CapabilitySet.EMPTY)
        assert q.pid != p.pid

    def test_release_scrubs_request_state(self):
        kernel, tag = self._kernel()
        p = kernel.pool.checkout("app:x")
        kernel.create_endpoint(p)
        p.locals["scratch"] = "secretish"
        kernel.pool.release(p)
        assert not p.endpoints
        assert not p.locals
        assert not p.mailbox

    def test_process_that_exits_itself_leaves_no_launch_key(self):
        kernel, tag = self._kernel()
        p = kernel.pool.checkout("app:x")
        kernel.exit(p)
        assert kernel.pool.release(p) is False
        assert p.pid not in kernel.pool._launch_keys

    def test_disabled_pool_is_passthrough(self):
        kernel = Kernel(recycle=False)
        p = kernel.pool.checkout("app:x")
        assert kernel.pool.release(p) is False
        assert not p.alive
        assert kernel.pool.idle_count() == 0

    def test_audit_counts_match_spawn_exit(self):
        kernel, tag = self._kernel()
        before_spawn = kernel.audit.count(category="spawn", allowed=True)
        before_exit = kernel.audit.count(category="exit", allowed=True)
        p = kernel.pool.checkout("app:x")
        kernel.pool.release(p)
        q = kernel.pool.checkout("app:x")  # reuse
        kernel.pool.release(q)
        assert kernel.audit.count(category="spawn", allowed=True) \
            == before_spawn + 2
        assert kernel.audit.count(category="exit", allowed=True) \
            == before_exit + 2
