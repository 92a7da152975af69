"""The operator view: span histograms, one ``stats()`` tree, no side
effects.

Observing a deployment must not change what it runs: ``Metrics`` and
``FleetRegistry`` read the tracer's span histograms and the provider's
``stats()`` tree, and neither touches the flow cache.  The fleet merge
and the sharded trace report go through the same histogram helper, so
they agree bucket for bucket, and a fork shard reports its own
counters: once the children run, the router holds no shard copy.
"""

import gc
import json
import os
import sys
import weakref

import pytest

from repro.apps import install_standard_apps
from repro.core import Metrics, W5System
from repro.kernel.audit import AuditLog
from repro.net import ExternalClient
from repro.net.http import HttpRequest
from repro.obs import FleetRegistry
from repro.platform import ShardedProvider

USERS = ["u0", "u1", "u2", "u3", "u4", "u5"]

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork engine needs os.fork")


def readable_calls(observe: bool) -> tuple[int, object]:
    """Per-check ``FlowCache.readable`` calls made by 120 blog-list
    requests from six users, with or without observers attached."""
    w5 = W5System(name="obs")
    clients = {}
    for u in USERS:
        clients[u] = w5.add_user(u, apps=["blog"])
        clients[u].get("/app/blog/post", title=f"{u}-t", body="b")
    provider = w5.provider
    if observe:
        metrics = Metrics(w5.audit()).attach(provider)
        FleetRegistry().attach("p", metrics)
    cache = provider.kernel.flow_cache
    calls = 0
    real = cache.readable

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    cache.readable = counting
    for __ in range(20):
        for u in USERS:
            assert clients[u].get("/app/blog/list").ok
    subject = provider.kernel.spawn_trusted("probe")
    return calls, cache.read_table(subject)


class TestObservationIsPassive:
    def test_attached_metrics_leave_the_engine_alone(self):
        unobserved, __ = readable_calls(observe=False)
        observed, table = readable_calls(observe=True)
        assert observed == unobserved
        assert isinstance(table, dict)


def build_traced(engine):
    return serve_traced(
        ShardedProvider(n_shards=2, engine=engine, tracing=True))


def serve_traced(sp):
    sp.tracer.fold_every = 1
    install_standard_apps(sp)
    clients = {}
    for u in USERS[:4]:
        c = ExternalClient(u, sp.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "blog"})
        clients[u] = c
    assert len({sp.map.shard_of_user(u) for u in clients}) == 2
    for path, params in (("/app/blog/post", {"title": "t", "body": "b"}),
                         ("/app/blog/list", {})):
        sp.handle_batch([
            HttpRequest("POST", path, params=params,
                        cookies=dict(c.cookies))
            for __, c in sorted(clients.items())])
    return sp


class TestOneMerge:
    def test_fleet_merge_equals_sharded_trace_report(self):
        sp = build_traced("serial")
        registry = FleetRegistry()
        for k, shard in enumerate(sp.shards):
            registry.attach(f"shard:{k}",
                            Metrics(shard.kernel.audit).attach(shard))
        registry.attach("router", Metrics(AuditLog()).attach(sp))
        merged = registry.merged_latency()
        report = sp.trace_report()["histograms"]
        assert set(merged) == set(report)
        assert "router.batch" in merged and "gateway.admission" in merged
        for name, hist in merged.items():
            snap = report[name]
            assert hist.count == snap["count"]
            assert {i: n for i, n in enumerate(hist.buckets) if n} \
                == snap["buckets"]
            assert (hist.min, hist.max) == (snap["min_s"], snap["max_s"])
            # members sum in a different order than the report does
            assert hist.total == pytest.approx(snap["total_s"])

    @needs_fork
    def test_fork_shards_report_their_own_stats(self):
        per_shard = {}
        for engine in ("serial", "fork"):
            sp = ShardedProvider(n_shards=2, engine=engine, tracing=True)
            refs = [weakref.ref(s) for s in sp.shards]
            serve_traced(sp)
            try:
                stats = sp.stats()
                per_shard[engine] = stats["per_shard"]
                assert stats["engine"] == engine
                gc.collect()
                alive = [ref() is not None for ref in refs]
                # the fork router keeps no shard copy that could go stale
                assert alive == [engine == "serial"] * 2
            finally:
                sp.shutdown()
        assert per_shard["fork"] == per_shard["serial"]
        assert all(s["gateway"]["exports_allowed"] > 0
                   for s in per_shard["serial"])

    def test_metrics_cli_renders_span_latency(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.analysis.__main__ import main

        sp = build_traced("serial")
        registry = FleetRegistry()
        for k, shard in enumerate(sp.shards):
            registry.attach(f"shard:{k}",
                            Metrics(shard.kernel.audit).attach(shard))
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(registry.snapshot()))
        monkeypatch.setattr(sys, "argv",
                            ["repro.analysis", "metrics", str(path)])
        assert main() == 0
        out = capsys.readouterr().out
        assert "## Merged span latency" in out
        assert "| span | count |" in out
        assert "| `gateway.admission` |" in out
        monkeypatch.setattr(sys, "argv", ["repro.analysis", "metrics",
                                          str(path), "--prometheus"])
        assert main() == 0
        assert 'w5_span_latency_seconds_count{span="gateway.admission"}' \
            in capsys.readouterr().out
