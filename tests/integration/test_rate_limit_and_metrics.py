"""Tests for gateway rate limiting and the metrics aggregator."""

import pytest

from repro.core import Metrics
from repro.kernel import AuditLog
from repro.net import ExternalClient
from repro.platform import AppModule, Provider


def echo(ctx):
    return {"ok": True}


class TestRateLimiting:
    def _provider(self, limit):
        p = Provider(rate_limit=limit)
        p.register_app(AppModule("echo", "dev", echo))
        p.signup("bob", "pw")
        p.enable_app("bob", "echo")
        return p

    def test_within_limit_unaffected(self):
        p = self._provider(limit=50)
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        for __ in range(10):
            assert bob.get("/app/echo/go").ok

    def test_over_limit_gets_429(self):
        p = self._provider(limit=5)
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        statuses = [bob.get("/app/echo/go").status for __ in range(10)]
        assert statuses.count(429) >= 4
        assert p.gateway.rate_limited >= 4

    def test_limit_is_per_principal(self):
        p = self._provider(limit=5)
        p.signup("amy", "pw")
        p.enable_app("amy", "echo")
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        amy = ExternalClient("amy", p.transport())
        amy.login("pw")
        for __ in range(7):
            bob.get("/app/echo/go")
        # bob is throttled; amy is untouched
        assert bob.get("/app/echo/go").status == 429
        assert amy.get("/app/echo/go").ok

    def test_window_resets(self):
        p = self._provider(limit=3)
        p.gateway.rate_window = 10
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        for __ in range(9):
            bob.get("/app/echo/go")
        # crossing the window boundary clears the buckets
        results = [bob.get("/app/echo/go").status for __ in range(4)]
        assert 200 in results

    def test_no_limit_by_default(self):
        p = self._provider(limit=None)
        bob = ExternalClient("bob", p.transport())
        bob.login("pw")
        assert all(bob.get("/app/echo/go").ok for __ in range(50))

    def test_anonymous_shares_a_bucket(self):
        p = self._provider(limit=5)
        a = ExternalClient("x", p.transport())
        b = ExternalClient("y", p.transport())
        for __ in range(3):
            a.get("/")
            b.get("/")
        assert b.get("/").status == 429


class TestMetrics:
    def test_counts_existing_and_new_events(self):
        log = AuditLog()
        log.record("send", True, "a", "pre-existing")
        metrics = Metrics(log)
        log.record("send", False, "a", "after-attach")
        assert metrics.count("send") == 2
        assert metrics.count("send", allowed=False) == 1

    def test_counts_from_boot_past_evictions(self):
        """Category counts are the log's lifetime counters: a Metrics
        attached after the ring evicted still counts every record."""
        log = AuditLog(max_events=2)
        for i in range(5):
            log.record("send", i % 2 == 0, "a", str(i))
        metrics = Metrics(log)
        log.record("send", False, "b", "after-attach")
        assert len(log) == 2 and log.dropped == 4
        assert metrics.count("send") == 6
        assert metrics.count("send", allowed=False) == 3
        assert metrics.snapshot() == {"send.allow": 3, "send.deny": 3}

    def test_denial_rate(self):
        log = AuditLog()
        metrics = Metrics(log)
        assert metrics.denial_rate("export") == 0.0
        log.record("export", True, "gw", "x")
        log.record("export", False, "gw", "y")
        assert metrics.denial_rate("export") == 0.5

    def test_snapshot_keys(self):
        log = AuditLog()
        metrics = Metrics(log)
        log.record("export", True, "gw", "x")
        log.record("export", False, "gw", "y")
        snap = metrics.snapshot()
        assert snap == {"export.allow": 1, "export.deny": 1}

    def test_live_on_a_real_provider(self):
        from repro import W5System
        w5 = W5System()
        metrics = Metrics(w5.audit())
        bob = w5.add_user("bob", apps=["blog"])
        eve = w5.add_user("eve", apps=["blog"])
        bob.get("/app/blog/post", title="t", body="b")
        eve.get("/app/blog/read", author="bob", title="t")
        assert metrics.count("export", allowed=False) >= 1
        assert metrics.denial_rate("export") > 0.0

    def test_gateway_snapshot(self):
        from repro import W5System
        w5 = W5System()
        assert w5.provider.stats()["gateway"] == {
            "exports_allowed": 0, "exports_denied": 0, "rate_limited": 0}
        bob = w5.add_user("bob", apps=["blog"])
        eve = w5.add_user("eve", apps=["blog"])
        bob.get("/app/blog/post", title="t", body="b")
        eve.get("/app/blog/read", author="bob", title="t")
        snap = w5.provider.stats()["gateway"]
        assert snap["exports_allowed"] >= 1
        assert snap["exports_denied"] >= 1
        assert snap["rate_limited"] == 0

    def test_stats_tree_has_every_plane(self):
        from repro import W5System
        w5 = W5System()
        w5.add_user("bob", apps=["blog"])
        stats = w5.provider.stats()
        assert stats.pop("plane") == "fast"
        assert set(stats) == {"flow", "plans", "launch_caps", "authority",
                              "pool", "db", "fs", "persistence",
                              "gateway", "audit"}
        assert all(isinstance(branch, dict) for branch in stats.values())
        assert stats["audit"]["recorded"] > 0
