"""Unit tests for the security-perimeter gateway."""

import pytest

from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, minus
from repro.net import (ExportViolation, ExternalClient, Gateway, HttpRequest,
                       HttpResponse, JS_ALLOW, SESSION_COOKIE, SessionManager,
                       ok)


@pytest.fixture()
def kernel():
    return Kernel()


@pytest.fixture()
def world(kernel):
    """A gateway where bob has export authority over tag_bob only."""
    sessions = SessionManager()
    sessions.register("bob", "pw")
    sessions.register("amy", "pw")
    root = kernel.spawn_trusted("root")
    tag_bob = kernel.create_tag(root, purpose="bob-data", tag_owner="bob")
    tag_amy = kernel.create_tag(root, purpose="amy-data", tag_owner="amy")
    authority = {
        "bob": CapabilitySet([minus(tag_bob)]),
        "amy": CapabilitySet([minus(tag_amy)]),
    }
    gw = Gateway(kernel, sessions,
                 authority_for=lambda u: authority.get(u, CapabilitySet.EMPTY))
    return gw, sessions, tag_bob, tag_amy


class TestAuthentication:
    def test_cookie_resolves_session(self, world):
        gw, sessions, *_ = world
        s = sessions.login("bob", "pw")
        req = HttpRequest("GET", "/", cookies={SESSION_COOKIE: s.token})
        assert gw.authenticate(req).username == "bob"

    def test_no_cookie_is_anonymous(self, world):
        gw, *_ = world
        assert gw.authenticate(HttpRequest("GET", "/")) is None

    def test_forged_cookie_is_anonymous(self, world):
        gw, *_ = world
        req = HttpRequest("GET", "/", cookies={SESSION_COOKIE: "forged"})
        assert gw.authenticate(req) is None


class TestExportCheck:
    def test_own_data_exits_to_owner(self, world):
        gw, __, tag_bob, __ = world
        gw.export_check(Label([tag_bob]), "bob")
        assert gw.exports_allowed == 1

    def test_others_data_blocked(self, world):
        gw, __, tag_bob, __ = world
        with pytest.raises(ExportViolation):
            gw.export_check(Label([tag_bob]), "amy")
        assert gw.exports_denied == 1

    def test_anonymous_gets_public_only(self, world):
        gw, __, tag_bob, __ = world
        gw.export_check(Label.EMPTY, None)
        with pytest.raises(ExportViolation):
            gw.export_check(Label([tag_bob]), None)

    def test_commingled_data_blocked_for_either(self, world):
        """A response mixing bob's and amy's tags exits to nobody —
        the boilerplate policy with no declassifier in play."""
        gw, __, tag_bob, tag_amy = world
        both = Label([tag_bob, tag_amy])
        for user in ("bob", "amy", None):
            with pytest.raises(ExportViolation):
                gw.export_check(both, user)

    def test_denials_audited(self, world, kernel):
        gw, __, tag_bob, __ = world
        with pytest.raises(ExportViolation):
            gw.export_check(Label([tag_bob]), "amy")
        denies = kernel.audit.denials(category="export")
        assert len(denies) == 1
        assert "amy" in denies[0].detail

    def test_supplied_authority_replaces_the_oracle(self, world, kernel):
        """A caller-held authority (a request plan's) decides the
        check instead of the oracle, with the same records."""
        gw, __, tag_bob, tag_amy = world
        gw.authority_for = lambda u: pytest.fail("oracle consulted")
        bob_only = CapabilitySet([minus(tag_bob)])
        gw.export_check(Label([tag_bob]), "amy", authority=bob_only)
        with pytest.raises(ExportViolation):
            gw.export_check(Label([tag_amy]), "bob", authority=bob_only)
        assert (gw.exports_allowed, gw.exports_denied) == (1, 1)
        assert [e.detail for e in kernel.audit.events(category="export")] \
            == ["allow export to amy",
                f"deny export to bob: residual tags {[tag_amy.tag_id]}"]


class TestEgress:
    def test_egress_strips_label(self, world):
        gw, __, tag_bob, __ = world
        out = gw.egress(ok({"photo": 1}, label=Label([tag_bob])), "bob")
        assert out.ok
        assert out.content_label == Label.EMPTY

    def test_egress_refusal_is_generic_403(self, world):
        """The refusal must not name the offending tags — that would
        itself leak; details go to the audit log only."""
        gw, __, tag_bob, __ = world
        out = gw.egress(ok("amy-sees-this?", label=Label([tag_bob])), "amy")
        assert out.status == 403
        assert "tag" not in str(out.body)
        assert str(tag_bob.tag_id) not in str(out.body)

    def test_js_stripped_by_default(self, world):
        gw, *_ = world
        out = gw.egress(ok("<b>x</b><script>evil()</script>"), "bob")
        assert "script" not in out.body

    def test_js_allowed_when_policy_allows(self, kernel):
        sessions = SessionManager()
        gw = Gateway(kernel, sessions,
                     authority_for=lambda u: CapabilitySet.EMPTY,
                     js_policy=JS_ALLOW)
        out = gw.egress(ok("<script>fine()</script>"), None)
        assert "script" in out.body

    def test_bad_policy_rejected(self, kernel):
        with pytest.raises(ValueError):
            Gateway(kernel, SessionManager(),
                    authority_for=lambda u: CapabilitySet.EMPTY,
                    js_policy="maybe")


class TestExternalClient:
    def test_cookie_jar_updates(self):
        def transport(req):
            return HttpResponse(body="hi", set_cookies={"k": "v"})
        c = ExternalClient("bob", transport)
        c.get("/")
        assert c.cookies == {"k": "v"}

    def test_received_log_and_leak_oracle(self):
        def transport(req):
            return HttpResponse(body={"data": "SECRET"})
        c = ExternalClient("eve", transport)
        c.get("/")
        assert c.ever_received("SECRET")
        assert not c.ever_received("OTHER")

    def test_substring_leak_detection(self):
        def transport(req):
            return HttpResponse(body="<html>SECRET</html>")
        c = ExternalClient("eve", transport)
        c.get("/")
        assert c.ever_received("SECRET")

    def test_list_body_leak_detection(self):
        def transport(req):
            return HttpResponse(body=["a", "SECRET"])
        c = ExternalClient("eve", transport)
        c.get("/")
        assert c.ever_received("SECRET")
