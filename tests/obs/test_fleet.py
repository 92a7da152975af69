"""Unit tests for the fleet observability plane (M16).

Covers the pieces in :mod:`repro.obs.fleet` in isolation: context
export/propagation, the :class:`RemoteCapture` window, graft stitching
(including the orphan path), the :class:`FleetRegistry` exact merge —
pinned by a hypothesis property test against a union histogram — the
delta scrape, the Prometheus round trip, and the provider health
gauges.  Integration (real shards, real federation links) lives in
``tests/platform/test_fleet_trace.py`` and
``tests/federation/test_fabric.py``.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.audit import AuditLog
from repro.core.metrics import Metrics
from repro.obs import (FleetRegistry, LatencyHistogram, RemoteCapture,
                       TraceContext, Tracer, parse_prometheus,
                       prometheus_text, trace_to_dict)
from repro.obs.fleet import _worst
from repro.obs.trace import NULL_TRACER


def make_metrics():
    """A member whose latency comes from its own (stand-in) provider's
    tracer, as ``Metrics(p.kernel.audit).attach(p)`` reads it."""
    return Metrics(AuditLog()).attach(SimpleNamespace(tracer=Tracer()))


def observe(metrics, span, seconds):
    """Record one span duration straight into the member's tracer
    histogram (exact values, unlike a timed span)."""
    hists = metrics._provider.tracer._histograms
    hists.setdefault(span, LatencyHistogram()).add(seconds)


class TestTraceContext:
    def test_export_requires_open_span(self):
        tracer = Tracer(fold_every=1)
        assert tracer.export_context() is None
        with tracer.request("root"):
            ctx = tracer.export_context()
            assert ctx is not None
            assert ctx.fold is True
            assert ctx.span_id == tracer.current_ids()[1]
        assert tracer.export_context() is None

    def test_context_is_picklable_and_tuple_shaped(self):
        import pickle
        tracer = Tracer(fold_every=1)
        with tracer.request("root"):
            ctx = tracer.export_context()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        # the wire crossing reconstructs from a bare tuple
        assert TraceContext(*tuple(ctx)) == ctx

    def test_null_tracer_exports_nothing(self):
        assert NULL_TRACER.export_context() is None
        NULL_TRACER.graft("x", {})  # no-op, must not raise


class TestRemoteCapture:
    def test_fold_decision_travels(self):
        origin = Tracer(fold_every=1)
        remote = Tracer(fold_every=10**9)  # would never fold locally
        with origin.request("near.side"):
            ctx = origin.export_context()
        with RemoteCapture(remote, ctx) as capture:
            with remote.request("far.side"):
                with remote.detail("far.child"):
                    pass
        (skeleton,) = capture.skeletons
        assert skeleton["root"]["name"] == "far.side"
        # inherited fold=True: the detail span was recorded
        assert [c["name"] for c in skeleton["root"]["children"]] \
            == ["far.child"]

    def test_unfolded_context_suppresses_children(self):
        origin = Tracer(fold_every=10**9)
        remote = Tracer(fold_every=1)
        with origin.request("warmup"):
            pass  # trace #1 always folds; trace #2 won't
        with origin.request("near.side"):
            ctx = origin.export_context()
            assert ctx.fold is False
        with RemoteCapture(remote, ctx) as capture:
            with remote.request("far.side"):
                with remote.detail("far.child"):
                    pass
        (skeleton,) = capture.skeletons
        # inherited fold=False: the detail span was suppressed, even
        # though this tracer's own policy (fold_every=1) would keep it
        assert skeleton["root"]["children"] == []

    def test_sink_is_chained_and_restored(self):
        remote = Tracer(fold_every=1)
        seen = []
        remote.sink = seen.append
        ctx = TraceContext("t-1", 1, True)
        with RemoteCapture(remote, ctx) as capture:
            with remote.request("far.side"):
                pass
        # the far side's own sink still saw the trace
        assert len(seen) == 1 and len(capture.skeletons) == 1
        assert remote.sink == seen.append
        assert remote._remote is None
        with remote.request("after"):
            pass
        assert len(seen) == 2  # back to normal operation


class TestGraftStitching:
    def run_remote(self, name="remote.root"):
        remote = Tracer(fold_every=1)
        skeletons = []
        remote.sink = lambda t: skeletons.append(trace_to_dict(t))
        with remote.request(name):
            with remote.span("remote.child"):
                pass
        return skeletons[0]

    def test_graft_merges_into_one_tree(self):
        skeleton = self.run_remote()
        origin = Tracer(fold_every=1)
        docs = []
        origin.sink = lambda t: docs.append(trace_to_dict(t))
        with origin.request("local.root"):
            origin.graft("shard:1", skeleton)
        (doc,) = docs
        assert doc["grafts"] == 1
        assert doc["orphan_grafts"] == 0
        (child,) = [c for c in doc["root"]["children"]
                    if "origin" in c["attrs"]]
        assert child["name"] == "remote.root"
        assert child["attrs"]["origin"] == "shard:1"
        assert child["attrs"]["remote_trace_id"] == skeleton["trace_id"]
        assert [c["name"] for c in child["children"]] == ["remote.child"]
        # span accounting absorbed the remote counts
        assert doc["n_spans"] == 1 + skeleton["n_spans"]

    def test_graft_under_closed_parent_is_orphaned_not_lost(self):
        skeleton = self.run_remote()
        origin = Tracer(fold_every=1)
        docs = []
        origin.sink = lambda t: docs.append(trace_to_dict(t))
        with origin.request("local.root"):
            with origin.span("local.child"):
                pass
            # graft names a parent span id that was never recorded
            # (e.g. unfolded): it must attach at the root, flagged
            trace = origin._trace
            trace.grafts = [(999999, "shard:9", skeleton)]
        (doc,) = docs
        assert doc["orphan_grafts"] == 1
        orphans = [c for c in doc["root"]["children"]
                   if c["attrs"].get("orphan")]
        assert len(orphans) == 1

    def test_graft_outside_trace_is_noop(self):
        origin = Tracer(fold_every=1)
        origin.graft("shard:1", self.run_remote())  # must not raise

    def test_grafted_times_rebase_onto_parent(self):
        skeleton = self.run_remote()
        origin = Tracer(fold_every=1)
        docs = []
        origin.sink = lambda t: docs.append(trace_to_dict(t))
        with origin.request("local.root"):
            origin.graft("shard:1", skeleton)
        (doc,) = docs
        (child,) = doc["root"]["children"]
        assert child["start_us"] >= doc["root"]["start_us"]


class TestFleetRegistry:
    def test_merged_counts_sum_members(self):
        registry = FleetRegistry()
        a, b = make_metrics(), make_metrics()
        a._by_category[("flow", True)] = 3
        a._by_category[("flow", False)] = 1
        b._by_category[("flow", True)] = 2
        b._by_category[("login", True)] = 5
        registry.attach("shard:0", a).attach("shard:1", b)
        assert registry.merged_counts() == {
            ("flow", True): 5, ("flow", False): 1, ("login", True): 5}
        assert registry.snapshot()["counters"] == {
            "flow.allow": 5, "flow.deny": 1, "login.allow": 5}

    def test_merge_leaves_member_histograms_untouched(self):
        registry = FleetRegistry()
        a = make_metrics()
        observe(a, "ipc", 1e-6)
        registry.attach("a", a)
        merged = registry.merged_latency()["ipc"]
        merged.add(5.0)
        assert a.latency_histograms()["ipc"].count == 1

    def test_delta_snapshot_advances_scrape_point(self):
        registry = FleetRegistry()
        a = make_metrics()
        registry.attach("a", a)
        a._by_category[("flow", True)] = 2
        observe(a, "ipc", 1e-6)
        first = registry.delta_snapshot()
        assert first == {"counters": {"flow.allow": 2},
                         "observations": {"ipc": 1}}
        assert registry.delta_snapshot() == {"counters": {},
                                             "observations": {}}
        a._by_category[("flow", True)] = 5
        assert registry.delta_snapshot()["counters"] == {"flow.allow": 3}

    def test_health_rollup_is_worst_state(self):
        class Source:
            def __init__(self, state):
                self._state = state

            def health_report(self):
                return {"state": self._state}

        registry = FleetRegistry()
        registry.attach_health("x", Source("ok"))
        assert registry.health_report()["state"] == "ok"
        registry.attach_health("y", Source("degraded"))
        assert registry.health_report()["state"] == "degraded"
        registry.attach_health("z", Source("down"))
        report = registry.health_report()
        assert report["state"] == "down"
        assert set(report["sources"]) == {"x", "y", "z"}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=1e-9, max_value=10.0,
                                       allow_nan=False),
                             max_size=30),
                    min_size=1, max_size=5))
    def test_merged_percentiles_equal_union_histogram(self, fleets):
        """The registry's merge is exact: percentiles of the merged
        histogram equal percentiles of one histogram fed every
        member's observations — no approximation slack."""
        registry = FleetRegistry()
        union = LatencyHistogram()
        for i, observations in enumerate(fleets):
            m = make_metrics()
            for s in observations:
                observe(m, "flow", s)
                union.add(s)
            registry.attach(f"m{i}", m)
        merged = registry.merged_latency().get("flow")
        if union.count == 0:
            assert merged is None
            return
        assert merged.count == union.count
        assert merged.buckets == union.buckets
        assert merged.min == union.min and merged.max == union.max
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert merged.percentile(q) == union.percentile(q)


class TestPrometheus:
    def build_registry(self):
        registry = FleetRegistry()
        a, b = make_metrics(), make_metrics()
        a._by_category[("flow", True)] = 7
        a._by_category[("flow", False)] = 2
        b._by_category[("login", True)] = 1
        for s in (1e-7, 3e-6, 2e-3, 0.5):
            observe(a, "ipc", s)
            observe(b, "fs.read", s * 2)
        return registry.attach("shard:0", a).attach("shard:1", b)

    def test_text_round_trips_through_parser(self):
        registry = self.build_registry()
        samples = parse_prometheus(registry.prometheus())
        assert samples[("w5_members", ())] == 2
        assert samples[("w5_audit_total",
                        (("category", "flow"), ("verdict", "allow")))] == 7
        assert samples[("w5_audit_total",
                        (("category", "flow"), ("verdict", "deny")))] == 2
        hist = registry.merged_latency()["ipc"]
        assert samples[("w5_span_latency_seconds_count",
                        (("span", "ipc"),))] == hist.count
        assert samples[("w5_span_latency_seconds_sum",
                        (("span", "ipc"),))] == hist.total
        inf = samples[("w5_span_latency_seconds_bucket",
                       (("le", "+Inf"), ("span", "ipc")))]
        assert inf == hist.count

    def test_buckets_are_cumulative_and_monotone(self):
        registry = self.build_registry()
        samples = parse_prometheus(registry.prometheus())
        buckets = sorted(
            (float(dict(labels)["le"].replace("+Inf", "inf")), value)
            for (name, labels) in samples
            if name == "w5_span_latency_seconds_bucket"
            and dict(labels)["span"] == "ipc"
            for value in [samples[(name, labels)]])
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert values[-1] == registry.merged_latency()["ipc"].count

    def test_snapshot_survives_json(self):
        """The exposition renders identically from a JSON round trip
        of the snapshot (string bucket keys) — the scrape path."""
        import json
        registry = self.build_registry()
        snapshot = registry.snapshot()
        rehydrated = json.loads(json.dumps(snapshot))
        assert prometheus_text(rehydrated) == prometheus_text(snapshot)


class TestHealthModel:
    def test_worst_ranking(self):
        assert _worst([]) == "ok"
        assert _worst(["ok", "ok"]) == "ok"
        assert _worst(["ok", "degraded"]) == "degraded"
        assert _worst(["degraded", "down", "ok"]) == "down"
        assert _worst(["mystery"]) == "degraded"  # unknown is suspect

    def test_provider_health_gauges(self):
        from repro.obs import provider_health
        from repro.platform import Provider, ProviderConfig
        provider = Provider(config=ProviderConfig())
        provider.signup("alice", "pw")
        report = provider_health(provider)
        assert report["state"] == "ok"
        gauges = report["gauges"]
        assert gauges["journal_lag_bytes"] > 0
        assert gauges["audit_dropped"] == 0
        assert provider.health_report() == report

    def test_journal_lag_degrades(self):
        from repro.obs import provider_health
        from repro.platform import Provider, ProviderConfig
        provider = Provider(config=ProviderConfig())
        provider.signup("alice", "pw")
        report = provider_health(provider, journal_lag_limit=1)
        assert report["state"] == "degraded"
        assert any("journal lag" in r for r in report["reasons"])

    def test_oracle_plane_fabric_links_read_ok(self):
        """Oracle-plane providers keep no journal, so their links hold
        no cursors: every round is a full reconciliation and nothing
        can go stale."""
        from repro.federation import FederationFabric
        from repro.platform import ProviderConfig
        fabric = FederationFabric(2, provider_config=ProviderConfig.oracle())
        fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - fabric.home_of("bob"))
        for name in ("f1", "f2"):
            fabric.store_user_data("bob", name, "x")
            fabric.sync_user("bob")
        report = fabric.health_report()
        assert report["state"] == "ok"
        for link in report["links"].values():
            assert link == {"state": "ok", "reasons": [], "cursor_lag": {}}

    def test_audit_drops_degrade(self):
        from repro.obs import provider_health
        from repro.platform import Provider
        provider = Provider(audit_max_events=4)
        provider.signup("alice", "pw")
        provider.signup("bob", "pw")  # overflow the 4-event ring
        report = provider_health(provider)
        assert report["state"] == "degraded"
        assert any("audit ring" in r for r in report["reasons"])
        assert report["gauges"]["audit_dropped"] > 0


class TestFederationStatsProtocol:
    """``federation_stats()`` is duck-typed: the contract is the key
    set ``docs/OBSERVABILITY.md`` documents, not a Protocol class."""

    def test_fabric_and_link_satisfy_the_protocol(self):
        from repro.federation import FederationFabric
        fabric = FederationFabric(2)
        fabric.signup("bob", "pw")
        fabric.mirror("bob", 1 - fabric.home_of("bob"))
        stats = fabric.federation_stats()
        assert {"providers", "live", "links", "per_link"} <= set(stats)
        for link in fabric.links():
            assert {"link", "linked_users", "transfers", "delta_rounds",
                    "full_recons", "fallback_rounds", "envelopes_sent",
                    "bytes_moved", "cursor_lag"} <= set(link.federation_stats())
