"""End-to-end request tracing through the full W5 stack.

The M11 acceptance criteria, as tests: a traced ``handle_request``
yields a span tree covering gateway → kernel → app → db/fs → egress,
audit events recorded inside the request carry the trace id, the
Chrome export validates, and with tracing off nothing is recorded.
"""

import json

import pytest

from repro import W5System
from repro.obs import chrome_trace, render_text, trace_to_dict, \
    validate_chrome_trace


@pytest.fixture()
def traced():
    w5 = W5System(tracing=True)
    # detail spans (gateway.admission, kernel.checkout) ride the
    # 1-in-fold_every trace sampling; pin it to "every trace" so the
    # coverage assertions below see the fully annotated tree
    w5.provider.tracer.fold_every = 1
    w5.add_user("bob", apps=["blog", "photo-share"])
    return w5


def _span_names(trace):
    return {s.name for s in trace.walk()}


class TestSpanTreeCoverage:
    def test_request_covers_every_layer(self, traced):
        bob = traced.client("bob")
        bob.get("/app/blog/post", title="t", body="hello")
        rec = traced.provider.recorder
        trace = next(t for t in rec.traces()
                     if "/app/blog/post" in t.name)
        names = _span_names(trace)
        # gateway edge (authenticate + admit share one admission span)
        assert "gateway.admission" in names
        assert "gateway.egress" in names
        # kernel + app + data plane
        assert "kernel.checkout" in names
        assert "app.run" in names
        assert "db.insert" in names or "db.update" in names
        # root is the request line
        assert trace.root.name == "GET /app/blog/post"
        assert trace.root.attrs["status"] == 200

    def test_fs_spans_on_file_paths(self, traced):
        traced.client("bob").get("/app/photo-share/upload",
                                 filename="x.jpg", data="<jpeg>")
        trace = next(t for t in traced.provider.recorder.traces()
                     if "upload" in t.name)
        names = _span_names(trace)
        assert "fs.write" in names or "fs.create" in names

    def test_every_request_finishes_its_trace(self, traced):
        bob = traced.client("bob")
        for _ in range(3):
            bob.get("/app/blog/list")
        stats = traced.provider.tracer.stats()
        assert stats["traces_started"] == stats["traces_finished"]
        assert stats["spans_dropped"] == 0


class TestAuditCorrelation:
    def test_in_request_audit_events_carry_trace_id(self, traced):
        bob = traced.client("bob")
        bob.get("/app/blog/post", title="t", body="b")
        trace = next(t for t in traced.provider.recorder.traces()
                     if "/app/blog/post" in t.name)
        correlated = [e for e in traced.audit()
                      if e.extra.get("trace_id") == trace.trace_id]
        assert correlated, "no audit events correlated with the trace"
        span_ids = {s.span_id for s in trace.walk()}
        for e in correlated:
            assert e.extra["span_id"] in span_ids
        # the export decision in particular must be attributable
        cats = {e.category for e in correlated}
        assert "export" in cats

    def test_indexed_audit_query_sees_stamped_events(self, traced):
        traced.client("bob").get("/app/blog/list")
        exports = traced.audit().events(category="export")
        assert exports
        assert all("trace_id" in e.extra for e in exports)


class TestErrorTraces:
    def test_denied_request_is_kept_as_error(self, traced):
        traced.client("bob").get("/app/photo-share/upload",
                                 filename="p.jpg", data="secret")
        # eve is not bob's friend: viewing bob's photo is an export
        # violation -> 403 -> error trace in the recorder
        traced.add_user("eve", apps=["photo-share"])
        r = traced.client("eve").get("/app/photo-share/view",
                                     owner="bob", filename="p.jpg")
        assert r.status == 403
        errors = traced.provider.recorder.errors()
        assert any("/app/photo-share/view" in t.name for t in errors)
        denied = next(t for t in errors
                      if "/app/photo-share/view" in t.name)
        assert denied.error
        assert denied.root.attrs["status"] == 403


class TestExportAndReport:
    def test_chrome_export_validates(self, traced):
        bob = traced.client("bob")
        bob.get("/app/blog/post", title="t", body="b")
        bob.get("/app/blog/read", title="t")
        docs = [trace_to_dict(t)
                for t in traced.provider.recorder.traces()]
        doc = chrome_trace(docs)
        assert validate_chrome_trace(doc) is None
        json.dumps(doc)  # serializable as-is

    def test_text_render_of_live_trace(self, traced):
        traced.client("bob").get("/app/blog/list")
        trace = traced.provider.recorder.traces()[0]
        text = render_text(trace_to_dict(trace))
        assert "gateway.admission" in text

    def test_trace_report_shape(self, traced):
        traced.client("bob").get("/app/blog/list")
        report = traced.trace_report()
        assert report["tracing"] is True
        assert report["stats"]["traces_finished"] >= 1
        lat = report["latencies"]
        assert "gateway.admission" in lat
        assert "p95_us" in lat["gateway.admission"]
        assert report["recorder"]["stats"]["offered"] >= 1
        json.dumps(report)


class TestDetailSampling:
    def test_unsampled_traces_keep_the_structural_skeleton(self):
        w5 = W5System(tracing=True)  # default fold_every (16)
        w5.add_user("bob", apps=["blog"])
        bob = w5.client("bob")
        for _ in range(4):
            bob.get("/app/blog/list")
        skeleton = [t for t in w5.provider.recorder.traces()
                    if int(t.trace_id, 16) % 16 != 1
                    and "/app/blog/list" in t.name]
        assert skeleton, "no unsampled trace retained"
        names = _span_names(skeleton[0])
        # the root span (request envelope) is always present...
        assert skeleton[0].name in names
        # ...hot-path detail spans only on sampled traces
        assert "app.run" not in names
        assert "gateway.admission" not in names
        assert "gateway.egress" not in names
        assert "kernel.checkout" not in names


class TestDisabledPath:
    def test_default_provider_records_nothing(self):
        w5 = W5System()  # tracing off
        w5.add_user("bob", apps=["blog"])
        w5.client("bob").get("/app/blog/list")
        assert w5.provider.recorder is None
        assert not w5.provider.tracer.enabled
        assert w5.trace_report() == {"tracing": False}
        # no trace ids leak into the audit log
        assert all("trace_id" not in e.extra for e in w5.audit())
