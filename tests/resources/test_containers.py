"""Unit tests for resource containers and quotas."""

import pytest

from repro.kernel import Kernel, ResourceExhausted
from repro.resources import ResourceManager


class TestQuotaResolution:
    def test_default_quota(self):
        rm = ResourceManager(default_quotas={"messages": 5})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("anyproc")
        assert rm.quota_for(p, "messages") == 5
        assert rm.quota_for(p, "disk") == float("inf")

    def test_prefix_override(self):
        rm = ResourceManager(default_quotas={"messages": 100},
                             overrides={"app:hog": {"messages": 3}})
        k = Kernel(resources=rm)
        hog = k.spawn_trusted("app:hog")
        other = k.spawn_trusted("app:nice")
        assert rm.quota_for(hog, "messages") == 3
        assert rm.quota_for(other, "messages") == 100

    def test_longest_prefix_wins(self):
        rm = ResourceManager(overrides={"app:": {"syscalls": 100},
                                        "app:hog": {"syscalls": 3}})
        k = Kernel(resources=rm)
        hog = k.spawn_trusted("app:hog-v2")
        assert rm.quota_for(hog, "syscalls") == 3


class TestCharging:
    def test_within_quota_accumulates(self):
        rm = ResourceManager(default_quotas={"disk": 100})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("p")
        rm.charge(p, "disk", 60)
        rm.charge(p, "disk", 40)
        assert rm.usage_of(p).get("disk") == 100

    def test_over_quota_refused(self):
        rm = ResourceManager(default_quotas={"disk": 100})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("p")
        rm.charge(p, "disk", 100)
        with pytest.raises(ResourceExhausted):
            rm.charge(p, "disk", 1)
        assert rm.denial_count("disk") == 1

    def test_refused_charge_not_recorded(self):
        rm = ResourceManager(default_quotas={"disk": 10})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("p")
        with pytest.raises(ResourceExhausted):
            rm.charge(p, "disk", 11)
        assert rm.usage_of(p).get("disk") == 0

    def test_charge_many_equals_a_loop_of_unit_charges(self):
        # a scan batches one item per partition; under a denial the
        # rows that fit must land exactly as per-row charges leave them
        batched, looped = (ResourceManager(
            default_quotas={"db_rows_scanned": 6}) for _ in range(2))
        items = [("db_queries", 1.0), ("db_rows_scanned", 4),
                 ("db_rows_scanned", 5)]
        for rm in (batched, looped):
            p = Kernel(resources=rm).spawn_trusted("p")
            with pytest.raises(ResourceExhausted) as exc:
                if rm is batched:
                    rm.charge_many(p, items)
                else:
                    for kind, n in items:
                        for _ in range(int(n)):
                            rm.charge(p, kind, 1)
            assert rm.usage_of(p).get("db_rows_scanned") == 6
            assert rm.usage_of(p).get("db_queries") == 1
            assert rm.denial_count("db_rows_scanned") == 1
            assert "db_rows_scanned quota (6) exhausted" in str(exc.value)

    def test_per_process_isolation(self):
        rm = ResourceManager(default_quotas={"disk": 10})
        k = Kernel(resources=rm)
        a, b = k.spawn_trusted("a"), k.spawn_trusted("b")
        rm.charge(a, "disk", 10)
        rm.charge(b, "disk", 10)  # b has its own container

    def test_total_by_prefix(self):
        rm = ResourceManager()
        k = Kernel(resources=rm)
        a = k.spawn_trusted("app:x")
        b = k.spawn_trusted("app:y")
        c = k.spawn_trusted("gateway")
        rm.charge(a, "disk", 5)
        rm.charge(b, "disk", 7)
        rm.charge(c, "disk", 100)
        assert rm.total("disk", name_prefix="app:") == 12


class TestKernelIntegration:
    def test_kernel_charges_syscalls(self):
        rm = ResourceManager(default_quotas={"messages": 2})
        k = Kernel(resources=rm)
        a = k.spawn_trusted("a")
        b = k.spawn_trusted("b")
        from repro.kernel import RECV, SEND
        out = k.create_endpoint(a, direction=SEND)
        inbox = k.create_endpoint(b, direction=RECV)
        k.send(a, out, inbox, 1)
        k.send(a, out, inbox, 2)
        with pytest.raises(ResourceExhausted):
            k.send(a, out, inbox, 3)
        assert k.pending(b) == 2  # third send never enqueued

    def test_tag_quota(self):
        rm = ResourceManager(default_quotas={"tags": 1})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("p")
        k.create_tag(p)
        with pytest.raises(ResourceExhausted):
            k.create_tag(p)

    def test_spawn_quota(self):
        rm = ResourceManager(default_quotas={"processes": 1})
        k = Kernel(resources=rm)
        p = k.spawn_trusted("p")
        k.spawn(p, "child1")
        with pytest.raises(ResourceExhausted):
            k.spawn(p, "child2")

    def test_fs_disk_quota(self):
        from repro.fs import LabeledFileSystem
        rm = ResourceManager(default_quotas={"disk": 10})
        k = Kernel(resources=rm)
        fs = LabeledFileSystem(k)
        p = k.spawn_trusted("p")
        fs.create(p, "/small", "12345")
        with pytest.raises(ResourceExhausted):
            fs.create(p, "/big", "x" * 100)

    def test_db_query_quota(self):
        from repro.db import LabeledStore
        rm = ResourceManager(default_quotas={"db_queries": 2})
        k = Kernel(resources=rm)
        store = LabeledStore(k)
        p = k.spawn_trusted("p")
        store.create_table(p, "t")
        store.insert(p, "t", {"a": 1})
        with pytest.raises(ResourceExhausted):
            store.select(p, "t")


class TestReaping:
    """Exit folds a pid's usage into per-name history and drops it, so
    reports are unchanged while the manager forgets dead pids."""

    KINDS = ("disk", "db_rows_scanned", "bandwidth")  # bandwidth: _extra

    def _charge(self, rm, p, scale):
        rm.charge(p, "disk", 3 * scale)
        rm.charge_many(p, [("db_rows_scanned", 5 * scale),
                           ("bandwidth", 7 * scale)])

    def _totals(self, rm):
        return {(kind, prefix): rm.total(kind, name_prefix=prefix)
                for kind in self.KINDS for prefix in ("", "app:")}

    @pytest.mark.parametrize("recycle", [False, True])
    def test_totals_identical_across_exit(self, recycle):
        rm = ResourceManager()
        k = Kernel(resources=rm, plane="fast" if recycle else "oracle")
        procs = [k.pool.checkout(name)
                 for name in ("app:blog", "app:blog", "app:wiki", "gateway")]
        for scale, p in enumerate(procs, start=1):
            self._charge(rm, p, scale)
        before = self._totals(rm)
        assert before[("bandwidth", "app:")] == 7 * (1 + 2 + 3)
        for p in procs:
            k.pool.release(p)
        assert self._totals(rm) == before
        assert rm._usage == {}
        if not recycle:
            assert rm._names == {}
        k.pool.drain()
        assert self._totals(rm) == before
        assert rm._usage == {} and rm._names == {}

    def test_usage_handed_out_before_exit_never_changes(self):
        rm = ResourceManager()
        k = Kernel(resources=rm)
        first = k.spawn_trusted("app:blog")
        self._charge(rm, first, 1)
        held = rm.usage_of(first)
        snapshot = dict(held.counts)
        k.exit(first)
        for scale in (2, 3):
            other = k.spawn_trusted("app:blog")
            self._charge(rm, other, scale)
            k.exit(other)
        assert held.counts == snapshot
        assert rm.total("bandwidth", name_prefix="app:blog") == 7 * 6
