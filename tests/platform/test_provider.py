"""Unit tests for the Provider meta-application."""

import pytest

from repro.fs import NoSuchPath, PathExists
from repro.labels import Label
from repro.net import ExternalClient, HttpRequest
from repro.platform import (AppModule, NoSuchApp, NoSuchUser, PlatformError,
                            Provider, UserAccount)
from repro.platform.persist import account_dict


@pytest.fixture()
def provider():
    return Provider()


def echo_app(ctx):
    return {"viewer": ctx.viewer, "path": ctx.request.path}


def my_notes_app(ctx):
    """Reads/writes the viewer's own notes file."""
    account_home = f"/users/{ctx.viewer}"
    # Touching anything under the user's home taints the process with
    # the user's tag (the home directory itself is secret).
    ctx.read_user(ctx.viewer)
    note = ctx.request.param("note")
    if note is not None:
        ctx.fs.create(f"{account_home}/note.txt",
                      note,
                      slabel=Label([ctx.tag_for(ctx.viewer)]),
                      ilabel=Label([ctx.write_tag_for(ctx.viewer)]))
        return {"saved": True}
    return {"note": ctx.fs.read(f"{account_home}/note.txt")}


class TestAccounts:
    def test_signup_creates_tags_and_home(self, provider):
        acct = provider.signup("bob", "pw")
        assert acct.data_tag.owner == "bob"
        assert acct.write_tag.kind == "integrity"
        assert provider.read_user_data  # home exists; upload works below

    def test_duplicate_signup(self, provider):
        provider.signup("bob", "pw")
        with pytest.raises(PlatformError):
            provider.signup("bob", "pw2")

    def test_unknown_account(self, provider):
        with pytest.raises(NoSuchUser):
            provider.account("ghost")

    def test_usernames_sorted(self, provider):
        provider.signup("zed", "p")
        provider.signup("amy", "p")
        assert provider.usernames() == ["amy", "zed"]

    def test_store_and_read_user_data(self, provider):
        provider.signup("bob", "pw")
        provider.store_user_data("bob", "photo.jpg", b"bits")
        assert provider.read_user_data("bob", "photo.jpg") == b"bits"

    def test_failed_store_and_read_exit_their_agent(self, provider):
        """An agent holds the user's full authority, so it must not
        outlive a call that raised."""
        provider.signup("bob", "pw")
        provider.store_user_data("bob", "f", "x")
        with pytest.raises(PathExists):
            provider.store_user_data("bob", "f", "y")
        with pytest.raises(NoSuchPath):
            provider.read_user_data("bob", "missing")
        assert [p.name for p in provider.kernel.processes()
                if p.name == "agent:bob"] == []

    def test_agent_state_is_one_value_outside_durable_state(self, provider):
        account = provider.signup("bob", "pw")
        slabel, ilabel, caps = account.agent_state()
        assert account.agent_state() is account.agent_state()
        assert slabel == Label([account.data_tag])
        assert ilabel == Label([account.write_tag])
        assert caps.owns(account.data_tag) and caps.owns(account.write_tag)
        fresh = UserAccount(username="bob", data_tag=account.data_tag,
                            write_tag=account.write_tag,
                            email_address=account.email_address)
        assert fresh == account and "_agent_state" not in repr(account)
        assert "_agent_state" not in account_dict(account)

    def test_profile(self, provider):
        provider.signup("bob", "pw")
        provider.set_profile("bob", music="jazz", food="ramen")
        assert provider.account("bob").profile["music"] == "jazz"


class TestPolicy:
    def test_enable_app_requires_registration(self, provider):
        provider.signup("bob", "pw")
        with pytest.raises(NoSuchApp):
            provider.enable_app("bob", "ghost-app")

    def test_enable_records_adoption(self, provider):
        provider.signup("bob", "pw")
        provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo")
        assert provider.adoptions == [("bob", "echo")]
        assert provider.account("bob").has_enabled("echo")

    def test_enable_without_write(self, provider):
        provider.signup("bob", "pw")
        provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo", allow_write=False)
        assert not provider.account("bob").allows_write("echo")

    def test_disable_app(self, provider):
        provider.signup("bob", "pw")
        provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo")
        provider.disable_app("bob", "echo")
        assert not provider.account("bob").has_enabled("echo")

    def test_prefer_module(self, provider):
        provider.signup("bob", "pw")
        provider.register_app(AppModule("crop", "devA", echo_app,
                                        kind="module"))
        provider.prefer_module("bob", "cropper", "crop")
        assert provider.account("bob").preferred_module("cropper") == "crop"

    def test_grant_builtin_declassifier(self, provider):
        provider.signup("bob", "pw")
        provider.grant_builtin_declassifier("bob", "friends-only",
                                            {"friends": ["amy"]})
        assert len(provider.declass.grants_for("bob")) == 1

    def test_unknown_builtin_declassifier(self, provider):
        provider.signup("bob", "pw")
        with pytest.raises(NoSuchApp):
            provider.grant_builtin_declassifier("bob", "quantum")

    def test_revoke_declassifier(self, provider):
        provider.signup("bob", "pw")
        provider.grant_builtin_declassifier("bob", "public")
        assert provider.revoke_declassifier("bob") == 1


class TestLaunchCaps:
    def test_caps_reflect_enablement(self, provider):
        """Reads are union-based; writes are viewer-scoped."""
        provider.signup("bob", "pw")
        provider.signup("amy", "pw")
        app = provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo", allow_write=True)
        provider.enable_app("amy", "echo", allow_write=True)
        bob, amy = provider.account("bob"), provider.account("amy")
        caps = provider.launch_caps(app, viewer="bob")
        # reads for every enabled user (commingling)
        assert caps.can_add(bob.data_tag) and caps.can_add(amy.data_tag)
        # writes only for the driving viewer
        assert caps.can_add(bob.write_tag)
        assert not caps.can_add(amy.write_tag)

    def test_write_needs_viewer_grant(self, provider):
        provider.signup("bob", "pw")
        app = provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo", allow_write=False)
        caps = provider.launch_caps(app, viewer="bob")
        assert not caps.can_add(provider.account("bob").write_tag)

    def test_anonymous_launch_gets_no_writes(self, provider):
        provider.signup("bob", "pw")
        app = provider.register_app(AppModule("echo", "dev", echo_app))
        provider.enable_app("bob", "echo", allow_write=True)
        caps = provider.launch_caps(app, viewer=None)
        assert caps.can_add(provider.account("bob").data_tag)
        assert not caps.can_add(provider.account("bob").write_tag)

    def test_no_enablement_no_caps(self, provider):
        provider.signup("bob", "pw")
        app = provider.register_app(AppModule("echo", "dev", echo_app))
        assert len(provider.launch_caps(app, viewer="bob")) == 0


class TestHttpPipeline:
    def _client(self, provider, username, password="pw"):
        c = ExternalClient(username, provider.transport())
        return c

    def test_signup_login_via_http(self, provider):
        c = self._client(provider, "bob")
        r = c.post("/signup", params={"username": "bob", "password": "pw"})
        assert r.ok
        r = c.login("pw")
        assert r.ok and c.logged_in()

    def test_bad_login(self, provider):
        c = self._client(provider, "bob")
        c.post("/signup", params={"username": "bob", "password": "pw"})
        r = c.post("/login", params={"username": "bob", "password": "no"})
        assert r.status == 400
        assert not c.logged_in()

    def test_app_dispatch(self, provider):
        provider.register_app(AppModule("echo", "dev", echo_app))
        c = self._client(provider, "bob")
        c.post("/signup", params={"username": "bob", "password": "pw"})
        c.login("pw")
        r = c.get("/app/echo/hello")
        assert r.body == {"viewer": "bob", "path": "/app/echo/hello"}

    def test_unknown_app_404(self, provider):
        c = self._client(provider, "bob")
        assert c.get("/app/ghost").status == 404

    def test_unknown_route_404(self, provider):
        c = self._client(provider, "bob")
        assert c.get("/blursed/route").status == 404

    def test_root_lists_apps(self, provider):
        provider.register_app(AppModule("echo", "dev", echo_app))
        c = self._client(provider, "anyone")
        r = c.get("/")
        assert "echo" in r.body["apps"]

    def test_apps_listing(self, provider):
        provider.register_app(AppModule("echo", "dev", echo_app,
                                        description="says hi"))
        c = self._client(provider, "x")
        r = c.get("/apps")
        assert r.body[0]["description"] == "says hi"

    def test_policy_requires_login(self, provider):
        provider.register_app(AppModule("echo", "dev", echo_app))
        c = self._client(provider, "bob")
        r = c.post("/policy/enable", params={"app": "echo"})
        assert r.status == 403

    def test_policy_enable_via_http(self, provider):
        provider.register_app(AppModule("echo", "dev", echo_app))
        c = self._client(provider, "bob")
        c.post("/signup", params={"username": "bob", "password": "pw"})
        c.login("pw")
        r = c.post("/policy/enable", params={"app": "echo"})
        assert r.ok
        assert provider.account("bob").has_enabled("echo")

    def test_logout(self, provider):
        c = self._client(provider, "bob")
        c.post("/signup", params={"username": "bob", "password": "pw"})
        c.login("pw")
        token = c.cookies["w5_session"]
        c.get("/logout")
        assert provider.sessions.resolve(token) is None


class TestAppDataFlow:
    def test_app_round_trips_own_user_data(self, provider):
        provider.register_app(AppModule("notes", "dev", my_notes_app))
        c = ExternalClient("bob", provider.transport())
        c.post("/signup", params={"username": "bob", "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "notes"})
        r = c.get("/app/notes/save", note="remember the milk")
        assert r.ok and r.body == {"saved": True}
        r = c.get("/app/notes/read")
        assert r.body == {"note": "remember the milk"}

    def test_others_cannot_read_bobs_note_through_app(self, provider):
        provider.register_app(AppModule("notes", "dev", my_notes_app))
        bob = ExternalClient("bob", provider.transport())
        bob.post("/signup", params={"username": "bob", "password": "pw"})
        bob.login("pw")
        bob.post("/policy/enable", params={"app": "notes"})
        bob.get("/app/notes/save", note="SECRET-NOTE")

        def nosy_app(ctx):
            ctx.read_user("bob")
            return {"stolen": ctx.fs.read("/users/bob/note.txt")}

        provider.register_app(AppModule("nosy", "eve", nosy_app))
        eve = ExternalClient("eve", provider.transport())
        eve.post("/signup", params={"username": "eve", "password": "pw"})
        eve.login("pw")
        eve.post("/policy/enable", params={"app": "nosy"})
        r = eve.get("/app/nosy/go")
        # the nosy app could not even taint itself with bob's tag
        # (bob never enabled it), so it crashed on the label check
        assert r.status in (403, 500)
        assert not eve.ever_received("SECRET-NOTE")

    def test_enabled_app_can_read_but_export_is_blocked(self, provider):
        """The paper's key scenario: bob runs code of any pedigree over
        his data; the perimeter stops it leaking to others."""
        def thief_app(ctx):
            ctx.read_user("bob")
            return {"exfil": ctx.fs.read("/users/bob/note.txt")}

        provider.register_app(AppModule("notes", "dev", my_notes_app))
        provider.register_app(AppModule("thief", "eve", thief_app))
        bob = ExternalClient("bob", provider.transport())
        bob.post("/signup", params={"username": "bob", "password": "pw"})
        bob.login("pw")
        bob.post("/policy/enable", params={"app": "notes"})
        bob.post("/policy/enable", params={"app": "thief"})
        bob.get("/app/notes/save", note="SECRET-NOTE")

        # bob himself sees the output (it is his data)
        r = bob.get("/app/thief/go")
        assert r.ok and r.body["exfil"] == "SECRET-NOTE"

        # eve (the thief's developer, or anyone else) gets a 403
        eve = ExternalClient("eve", provider.transport())
        eve.post("/signup", params={"username": "eve", "password": "pw"})
        eve.login("pw")
        r = eve.get("/app/thief/go")
        assert r.status == 403
        assert not eve.ever_received("SECRET-NOTE")

    def test_crash_returns_500_without_internals(self, provider):
        def buggy(ctx):
            raise RuntimeError("stack with user data: SECRET")
        provider.register_app(AppModule("buggy", "dev", buggy))
        c = ExternalClient("x", provider.transport())
        r = c.get("/app/buggy/go")
        assert r.status == 500
        assert "SECRET" not in str(r.body)
