"""Process recycling changes nothing: equivalence, bounded retention
and taint safety.

A fast-plane deployment (app-process pool on) and an oracle deployment
(no pool) are driven through the same random request history over
three apps by the plane state machine
(``tests/platform/test_plane_machine.py``), focused on requests, blog
toggles and befriending: after every step outcomes and audit streams
agree and no pooled process sits idle with residual taint.  A
tainted-read loop must retain no kernel or meter state per request,
and the taint-safety contract is pinned directly at the pool: a
process whose secrecy label floated during a request is never returned
to the free list.
"""

from repro.core import W5System
from repro.platform import ProviderConfig
from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, plus

from .._differential import PlanePair
from ..platform.test_plane_machine import run_focused

USERS = ("alice", "bob", "carol")
APPS = ("blog", "photo-share", "social")


def build_deployment(config: ProviderConfig) -> W5System:
    w5 = W5System(name=f"pool-{config.plane}", config=config)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


class TestPooledDeploymentIsEquivalent:
    def test_identical_histories_identical_outcomes(self):
        run_focused("post", "read", "list_posts", "anonymous_list",
                    "toggle_blog", "befriend", examples=30, steps=25)


class TestBoundedRetention:
    """Tainted reads never recycle, so each spawns and exits a process;
    kernel and meter state must not grow with the number served."""

    N = 40

    def _post(self, w5, __):
        r = w5.client("alice").get("/app/blog/post", title="t0", body="b0")
        return (r.status, r.body)

    def _read_own_post(self, w5, __):
        r = w5.client("alice").get("/app/blog/read", author="alice",
                                   title="t0")
        return (r.status, r.body)

    def test_tainted_reads_retain_nothing_per_request(self):
        pair = PlanePair(build_deployment)
        pair.run(self._post, None)
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
        kernel = Kernel()
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
        kernel = Kernel(plane="oracle")
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
