"""Unit tests for the M13 sharded request plane.

The differential proofs (byte-identity vs the single-threaded plane)
live in ``test_shard_differential.py``; this file pins the mechanisms:
the consistent-hash ring, request routing, the merged audit view, and
the engines' control-plane surface.
"""

import gc
import os
import pickle
import signal
import stat
import threading
import types
from dataclasses import fields, replace

import pytest

from repro.apps import (ADVERSARIAL_CATALOG, install_adversarial_apps,
                        install_standard_apps)
from repro.core import W5System
from repro.errors import ShardDown, W5Error
from repro.net import SESSION_COOKIE, ExternalClient
from repro.net.http import HttpRequest, HttpResponse
from repro.platform import ProviderConfig, ShardMap, ShardedProvider
from repro.platform.shards import MergedAuditView, _dumps, _plain_request

USERS = ["alice", "bob", "carol", "dave", "erin", "frank"]

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")
ENGINES = ["serial", pytest.param("fork", marks=needs_fork)]


def build_sharded(n_shards, engine=None, users=USERS, apps=("blog",)):
    sp = ShardedProvider(n_shards=n_shards, engine=engine)
    install_standard_apps(sp)
    clients = {}
    for u in users:
        c = ExternalClient(u, sp.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        for app in apps:
            c.post("/policy/enable", params={"app": app})
        clients[u] = c
    return sp, clients


class TestShardMap:
    def test_deterministic_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        for u in USERS:
            assert a.shard_of_user(u) == b.shard_of_user(u)

    def test_single_shard_maps_everything_to_zero(self):
        m = ShardMap(1)
        assert {m.shard_of_user(u) for u in USERS} == {0}

    def test_ring_covers_every_shard(self):
        m = ShardMap(4)
        keys = [f"user{i}" for i in range(400)]
        counts = m.distribution(keys)
        assert len(counts) == 4 and all(c > 0 for c in counts)

    def test_distribution_is_roughly_balanced(self):
        m = ShardMap(4)
        counts = m.distribution([f"user{i}" for i in range(4000)])
        assert max(counts) < 3 * min(counts)

    def test_resize_moves_a_minority_of_keys(self):
        # the consistent-hashing property: going 4 -> 5 shards moves
        # roughly 1/5 of keys, nothing like the ~4/5 of `hash % N`
        keys = [f"user{i}" for i in range(2000)]
        m4, m5 = ShardMap(4), ShardMap(5)
        moved = sum(m4.shard_of(k) != m5.shard_of(k) for k in keys)
        assert moved < len(keys) // 2

    def test_pair_placement_follows_tag_owner(self):
        from repro.labels import Label
        sp, _ = build_sharded(3)
        for u in USERS:
            acct = sp.account(u)
            slabel = Label([acct.data_tag])
            expected = sp.map.shard_of_user(u)
            assert sp.map.shard_of_pair(slabel, Label.EMPTY) == expected

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestRouting:
    def test_signup_and_login_route_by_username_param(self):
        sp, _ = build_sharded(3)
        for u in USERS:
            req = HttpRequest("POST", "/signup",
                              params={"username": u, "password": "x"})
            assert sp.shard_for(req) == sp.map.shard_of_user(u)

    def test_session_token_routes_to_home_shard(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            req = HttpRequest("GET", "/app/blog/list",
                              cookies=dict(c.cookies))
            assert sp.shard_for(req) == sp.map.shard_of_user(u)

    def test_logout_drops_token_mapping(self):
        sp, clients = build_sharded(3)
        token = clients["alice"].cookies[SESSION_COOKIE]
        assert token in sp._token_shard
        clients["alice"].post("/logout")
        assert token not in sp._token_shard

    def test_anonymous_request_with_user_param_routes_home(self):
        sp, _ = build_sharded(3)
        req = HttpRequest("GET", "/app/blog/read",
                          params={"author": "carol", "title": "t"})
        assert sp.shard_for(req) == sp.map.shard_of_user("carol")

    def test_data_lands_on_the_routed_shard(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        report = sp.placement_report()
        assert report["partitions"] >= len(USERS)
        assert report["misplaced"] == 0

    def test_every_shard_serves_the_catalog(self):
        sp, _ = build_sharded(3)
        names = [sorted(m.name for m in shard.apps) for shard in sp.shards]
        assert names[0] == names[1] == names[2]
        assert "blog" in names[0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_apps_lists_registrations_made_after_the_fork(self):
        names = {}
        for engine in ("serial", "fork"):
            sp, _ = build_sharded(2, engine=engine)  # requests fork
            install_adversarial_apps(sp)
            names[engine] = sorted(m.name for m in sp.apps)
            sp.shutdown()
        assert names["serial"] == names["fork"]
        assert {m.name for m in ADVERSARIAL_CATALOG} <= set(names["fork"])

    def test_one_shard_short_circuits(self):
        sp, clients = build_sharded(1)
        assert sp.engine_name == "serial"
        assert sp._token_shard == {}  # no bookkeeping at 1 shard
        assert clients["alice"].get("/app/blog/list").ok


class TestBatchFanOut:
    def test_batch_responses_in_request_order(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        reqs = [HttpRequest("GET", "/app/blog/read",
                            params={"title": f"t-{u}"},
                            cookies=dict(clients[u].cookies))
                for u in USERS for _ in range(3)]
        resps = sp.handle_batch(reqs)
        assert len(resps) == len(reqs)
        for req, resp in zip(reqs, resps):
            assert resp.ok
            assert resp.body["title"] == req.params["title"]

    def test_batch_spans_multiple_shards(self):
        sp, clients = build_sharded(3)
        before = list(sp.routed)
        reqs = [HttpRequest("GET", "/app/blog/list",
                            cookies=dict(clients[u].cookies))
                for u in USERS]
        sp.handle_batch(reqs)
        grew = [a - b for a, b in zip(sp.routed, before)]
        assert sum(grew) == len(USERS)
        assert sum(1 for g in grew if g) >= 2  # genuinely fanned out

    def test_batch_matches_sequential_dispatch(self):
        sp_a, clients_a = build_sharded(3)
        sp_b, clients_b = build_sharded(3)
        for u in USERS:
            assert clients_a[u].get("/app/blog/post", title=f"t-{u}",
                                    body="b").ok
            assert clients_b[u].get("/app/blog/post", title=f"t-{u}",
                                    body="b").ok
        reqs_a = [HttpRequest("GET", "/app/blog/read",
                              params={"title": f"t-{u}"},
                              cookies=dict(clients_a[u].cookies))
                  for u in USERS]
        reqs_b = [HttpRequest("GET", "/app/blog/read",
                              params={"title": f"t-{u}"},
                              cookies=dict(clients_b[u].cookies))
                  for u in USERS]
        batched = sp_a.handle_batch(reqs_a)
        sequential = [sp_b.handle_request(r) for r in reqs_b]
        assert [(r.status, r.body) for r in batched] \
            == [(r.status, r.body) for r in sequential]


class TestMergedAudit:
    def test_merge_orders_by_shard_then_seq(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        merged = list(sp.kernel.audit)
        streams = sp.kernel.audit.per_shard()
        assert merged == [e for stream in streams for e in stream]
        for stream in streams:
            assert [e.seq for e in stream] == sorted(e.seq for e in stream)

    def test_query_api_matches_per_shard_totals(self):
        sp, clients = build_sharded(3)
        for c in clients.values():
            assert c.get("/app/blog/post", title="t", body="b").ok
        view = sp.kernel.audit
        assert len(view) == sum(len(s.kernel.audit) for s in sp.shards)
        assert view.count("spawn") == sum(
            s.kernel.audit.count("spawn") for s in sp.shards)
        assert len(view.denials()) == sum(
            len(s.kernel.audit.denials()) for s in sp.shards)
        assert view.last() is not None

    @pytest.mark.parametrize("engine", ["serial", pytest.param(
        "fork", marks=pytest.mark.skipif(not hasattr(os, "fork"),
                                         reason="needs os.fork"))])
    def test_last_is_the_merged_streams_last(self, engine):
        sp, clients = build_sharded(2, engine=engine)
        for c in clients.values():
            assert c.get("/app/blog/post", title="t", body="b").ok
        view = sp.kernel.audit

        def fields(e):
            return (e.seq, e.category, e.allowed, e.subject, e.detail,
                    e.extra)

        assert fields(view.last()) == fields(list(view)[-1])
        # the last shard's log is empty: the newest event of the one
        # before it is the merged stream's last
        sp.shard_call(1, "kernel.audit.clear")
        assert sp.shard_call(1, "kernel.audit.last") is None
        assert fields(view.last()) == fields(list(view)[-1])
        sp.shard_call(0, "kernel.audit.clear")
        assert list(view) == []
        assert view.last() is None
        sp.shutdown()

    @pytest.mark.parametrize("engine", ["serial", pytest.param(
        "fork", marks=pytest.mark.skipif(not hasattr(os, "fork"),
                                         reason="needs os.fork"))])
    @pytest.mark.parametrize("ring", [None, 40])
    def test_counts_match_the_events(self, engine, ring, monkeypatch):
        sp = ShardedProvider(n_shards=2, engine=engine,
                             audit_max_events=ring)
        install_standard_apps(sp)
        for u in USERS:
            c = ExternalClient(u, sp.transport())
            c.post("/signup", params={"username": u, "password": "pw"})
            c.login("pw")
            c.post("/policy/enable", params={"app": "blog"})
            assert c.get("/app/blog/post", title="t", body="b").ok
            assert not c.get("/app/blog/read", author="nobody",
                             title="t").ok
        view = sp.kernel.audit
        events = list(view)
        if ring is not None:
            assert len(events) == 2 * ring  # both rings evicted
        # answered from each shard's counters: no stream is shipped
        monkeypatch.setattr(MergedAuditView, "per_shard", None)
        assert len(view) == len(events)
        for category in sorted({e.category for e in events}) + [None,
                                                                "nope"]:
            for allowed in (None, True, False):
                assert view.count(category, allowed) == sum(
                    1 for e in events
                    if category in (None, e.category)
                    and allowed in (None, e.allowed))
        sp.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_merge_identical_across_engines(self):
        streams = {}
        for engine in ("serial", "fork"):
            sp, clients = build_sharded(3, engine=engine)
            for u, c in clients.items():
                assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
            streams[engine] = [(e.category, e.allowed, e.subject, e.detail)
                               for e in sp.kernel.audit]
            sp.shutdown()
        assert streams["serial"] == streams["fork"]


class TestControlPlane:
    def test_user_verbs_land_on_home_shard(self):
        sp, _ = build_sharded(3)
        sp.set_profile("alice", music="jazz")
        home = sp.shards[sp.map.shard_of_user("alice")]
        assert home.account("alice").profile["music"] == "jazz"
        others = [s for i, s in enumerate(sp.shards)
                  if i != sp.map.shard_of_user("alice")]
        for other in others:
            assert "alice" not in other._accounts

    def test_declass_view_routes_grant_lookup(self):
        sp, _ = build_sharded(3)
        sp.grant_builtin_declassifier("bob", "friends-only",
                                      {"friends": ["alice"]})
        grant = sp.declass.grant_for("bob", "friends-only")
        assert grant is not None
        assert "alice" in grant.declassifier.config["friends"]

    def test_unknown_engine_rejected(self):
        for engine in ("carrier-pigeon", "thread"):
            with pytest.raises(ValueError):
                ShardedProvider(n_shards=2, engine=engine)
            with pytest.raises(ValueError):
                W5System(config=ProviderConfig.sharded(
                    2, shard_engine=engine))
        with pytest.raises(ValueError):  # "serial" has one spelling
            W5System(config=ProviderConfig.sharded(2, shard_engine=None))

    def test_default_engine_is_serial_and_starts_no_threads(self):
        before = threading.active_count()
        sp, clients = build_sharded(3)
        assert sp.engine_name == "serial"
        reqs = [HttpRequest("GET", "/app/blog/list",
                            cookies=dict(clients[u].cookies))
                for u in USERS]
        assert all(r.ok for r in sp.handle_batch(reqs))
        w5 = W5System(config=ProviderConfig.sharded(3))
        for u in ("alice", "bob", "carol"):
            assert w5.add_user(u, apps=["blog"]).get("/app/blog/list").ok
        assert threading.active_count() == before
        sp.shutdown()
        w5.provider.shutdown()

    def test_w5system_builds_sharded_provider(self):
        w5 = W5System(config=ProviderConfig.sharded(3))
        assert isinstance(w5.provider, ShardedProvider)
        assert w5.provider.n_shards == 3
        a = w5.add_user("alice", apps=["blog"])
        assert a.get("/app/blog/post", title="t", body="b").ok
        assert w5.audit().count("spawn") > 0
        w5.provider.shutdown()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_w5system_resources_count_what_shard_0_served(self, engine):
        w5 = W5System(config=ProviderConfig.sharded(2,
                                                    shard_engine=engine))
        user = next(u for u in (f"user{i}" for i in range(50))
                    if w5.provider.shard_of_user(u) == 0)
        try:
            client = w5.add_user(user, apps=["blog"])
            before = w5.resources.total("syscalls")
            for i in range(5):
                assert client.get("/app/blog/post", title=f"t{i}",
                                  body="b").ok
            assert w5.resources.total("syscalls") == before + 5
        finally:
            w5.provider.shutdown()

    def test_sharded_preset_round_trips_describe(self):
        cfg = ProviderConfig.sharded(4, shard_engine="fork")
        desc = cfg.describe()
        assert desc["shards"] == 4
        assert desc["shard_engine"] == "fork"
        assert desc["plane"] == "fast"


class TestUsageEdges:
    """Observed module usage is recorded on the shard that served the
    request, so the router must gather it from every shard."""

    USERS = [f"user{i}" for i in range(8)]

    def _build(self, config):
        # users homed off shard 0 prefer crop-smart: their usage edges
        # exist only on the other shard
        smart = {u for u in self.USERS if ShardMap(2).shard_of_user(u)}
        assert smart and len(smart) < len(self.USERS)
        w5 = W5System(name="edges", config=config)
        for u in self.USERS:
            c = w5.add_user(u, apps=("photo-share",))
            assert c.get("/app/photo-share/upload", filename="a.jpg",
                         data="RAW").ok
            if u in smart:
                assert c.post("/policy/prefer", params={
                    "slot": "cropper", "module": "crop-smart"}).ok
            assert c.get("/app/photo-share/crop", filename="a.jpg").ok
        return w5

    @pytest.mark.parametrize("engine", [
        "serial",
        pytest.param("fork", marks=pytest.mark.skipif(
            not hasattr(os, "fork"), reason="needs os.fork"))])
    def test_every_shards_edges_reach_code_search(self, engine):
        plain = self._build(ProviderConfig.fast())
        w5 = self._build(ProviderConfig.sharded(2, shard_engine=engine))
        try:
            edges = w5.provider.usage_edges
            assert len(edges) == len(self.USERS)
            assert sorted(edges) == sorted(plain.provider.usage_edges)
            assert w5.code_search(k=50) == plain.code_search(k=50)
        finally:
            w5.provider.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestDeadForkShard:
    def test_killed_child_raises_shard_down(self):
        sp, clients = build_sharded(2, engine="fork")
        reqs = [HttpRequest("GET", "/app/blog/list",
                            cookies=dict(clients[u].cookies))
                for u in USERS]
        assert all(r.ok for r in sp.handle_batch(reqs))  # children up
        dead = sp.map.shard_of_user(USERS[0])
        pid = sp._engine._pids[dead]
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        with pytest.raises(ShardDown) as exc:
            sp.handle_batch(reqs)
        assert exc.value.shard == dead
        assert f"shard {dead}" in str(exc.value)
        # each shard is asked on its own: the dead one reads down, the
        # live one still answers, and the roll-up is the worst state
        health = sp.health_report()
        assert health["state"] == "down"
        assert health["shards"][dead] == {
            "state": "down", "reasons": [str(exc.value)], "gauges": {}}
        assert health["shards"][1 - dead]["state"] == "ok"
        # the surviving shard's pipe stayed in step
        live = next(u for u in USERS if sp.map.shard_of_user(u) != dead)
        assert clients[live].get("/app/blog/list").ok
        sp.shutdown()
        assert sp._engine._pids == []

    def test_failures_leave_no_frame_cycle(self):
        # a cycle between an RPC frame and the failure it raised keeps
        # a dead shard's pickled op exported until a collection, which
        # then frees it in an order that raises BufferError
        sp, clients = build_sharded(2, engine="fork")
        reqs = [HttpRequest("GET", "/app/blog/list",
                            cookies=dict(clients[u].cookies))
                for u in USERS]
        assert all(r.ok for r in sp.handle_batch(reqs))
        dead = sp.map.shard_of_user(USERS[0])
        os.kill(sp._engine._pids[dead], signal.SIGKILL)
        os.waitpid(sp._engine._pids[dead], 0)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with pytest.raises(ShardDown):
                sp.handle_batch(reqs)
            with pytest.raises(AttributeError):  # raised in the child
                sp._engine.call(1 - dead, "no_such_method")
            gc.collect()
            cyclic = [o.f_code.co_name for o in gc.garbage
                      if isinstance(o, types.FrameType)
                      and o.f_code.co_name in ("fan_out", "_recv")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            sp.shutdown()
        assert cyclic == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkEngine:
    def test_one_shard_batch_runs_in_the_child(self):
        sp = ShardedProvider(n_shards=1, engine="fork")
        signup = HttpRequest("POST", "/signup",
                             params={"username": "alice", "password": "pw"})
        assert sp.handle_request(signup).ok  # lands in the forked child
        login = HttpRequest("POST", "/login",
                            params={"username": "alice", "password": "pw"})
        (resp,) = sp.handle_batch([login])
        assert resp.ok  # the batch saw the child's state, not the parent's
        sp.shutdown()

    def test_unpicklable_result_raises_instead_of_none(self, monkeypatch):
        sp = ShardedProvider(n_shards=2, engine="fork")
        home = sp.map.shard_of_user("alice")
        # patched before the first request forks the children, so the
        # home shard's child inherits the fault
        monkeypatch.setattr(sp.shards[home], "set_profile",
                            lambda *args, **kwargs: (lambda: None))
        signup = HttpRequest("POST", "/signup",
                             params={"username": "alice", "password": "pw"})
        assert sp.handle_request(signup).ok
        with pytest.raises(W5Error, match="set_profile returned an "
                                          "unpicklable function"):
            sp.set_profile("alice", music="jazz")
        # nothing half-written reached the pipe: it stays in step
        login = HttpRequest("POST", "/login",
                            params={"username": "alice", "password": "pw"})
        assert sp.handle_request(login).ok
        sp.shutdown()

    def test_unpicklable_response_raises_and_the_shard_serves_on(self):
        sp = ShardedProvider(n_shards=1, engine="fork")
        serve = sp.shards[0].handle_batch

        def poisoned(reqs):
            if reqs[0].path == "/poison":
                return [HttpResponse(body=(i for i in range(3)))]
            return serve(reqs)

        # patched before the fork, so the child inherits the fault
        sp.shards[0].handle_batch = poisoned
        with pytest.raises(W5Error, match="_serve_batch returned an "
                                          "unpicklable tuple: cannot "
                                          "pickle 'generator' object"):
            sp.handle_request(HttpRequest("GET", "/poison"))
        # the reply was refused before it reached the pipe: in step
        signup = HttpRequest("POST", "/signup",
                             params={"username": "alice", "password": "pw"})
        assert sp.handle_request(signup).ok
        sp.shutdown()

    def test_child_freezes_its_inherited_heap(self):
        sp = ShardedProvider(n_shards=2, engine="fork")
        # set before the fork, so shard 0's child inherits the probe
        sp.shards[0].gc_probe = gc.get_freeze_count
        before = gc.get_freeze_count()
        signup = HttpRequest("POST", "/signup",
                             params={"username": "alice", "password": "pw"})
        assert sp.handle_request(signup).ok  # forks the children
        assert sp._engine.call(0, "gc_probe") > 0
        assert gc.get_freeze_count() == before  # the parent froze nothing
        sp.shutdown()

    def test_children_hold_only_their_own_pipe(self):
        sp = ShardedProvider(n_shards=3, engine="fork")
        for shard in sp.shards:  # before the fork: each child inherits it
            shard.socket_probe = _open_sockets
        signup = HttpRequest("POST", "/signup",
                             params={"username": "alice", "password": "pw"})
        assert sp.handle_request(signup).ok  # forks the children
        # an earlier sibling's pipe end left open in a later child would
        # hide the router's exit from that sibling
        counts = [sp.shard_call(k, "socket_probe") for k in range(3)]
        assert counts[0] > 0 and len(set(counts)) == 1, counts
        sp.shutdown()

    def test_router_holds_no_shard_after_the_fork(self):
        sp, __ = build_sharded(2, engine="fork")  # the signups fork
        with pytest.raises(W5Error, match="shard_call"):
            sp.shards
        sp.shutdown()
        with pytest.raises(W5Error, match="shut down"):
            sp.stats()

    @pytest.mark.parametrize("engine", ["serial", "fork"])
    def test_requests_cross_the_pipe_whole(self, engine):
        sp = ShardedProvider(n_shards=1, engine=engine)
        names = [f.name for f in fields(HttpRequest)]

        def echo(req):
            return HttpResponse(body=[getattr(req, n) for n in names])

        # patched before the fork: the shard answers with every field
        # of the request it rebuilt from its plain tuple
        sp.shards[0].handle_batch = lambda reqs: [echo(r) for r in reqs]
        req = HttpRequest("POST", "/app/blog/post",
                          params={"title": "t", "n": 3},
                          cookies={SESSION_COOKIE: "tok"},
                          body={"text": ["a", "b"]},
                          headers={"X-Trace": "1"})
        want = [getattr(req, n) for n in names]
        assert sp.handle_request(req).body == want
        assert [r.body for r in sp.handle_batch([req, req])] == [want] * 2
        sp.shutdown()


def _open_sockets():
    """Socket fds open in this process (each pipe end is one)."""
    count = 0
    for name in os.listdir("/dev/fd"):
        try:
            count += stat.S_ISSOCK(os.fstat(int(name)).st_mode)
        except OSError:  # the listing's own fd, closed by now
            pass
    return count


class TestRequestWire:
    REQ = HttpRequest("PUT", "/app/blog/post", params={"title": "t"},
                      cookies={SESSION_COOKIE: "tok"}, body=b"\x00body",
                      headers={"Content-Type": "text/plain"})

    def test_tuple_covers_every_field_in_order(self):
        plain = _plain_request(self.REQ)
        assert plain == tuple(getattr(self.REQ, f.name)
                              for f in fields(HttpRequest))

    def test_round_trip(self):
        req = replace(self.REQ)
        req.path_parts()  # the router leaves its split on the request
        wire = _dumps(req)  # the fork engine's wire form
        assert b"_parts_cache" not in wire
        assert len(wire) < len(pickle.dumps(req))
        rebuilt = pickle.loads(wire)
        assert rebuilt == req
        assert rebuilt.path_parts() == ["app", "blog", "post"]

    def test_response_round_trip(self):
        from repro.labels import Label, Tag
        for label in (Label.EMPTY, Label([Tag(7, owner="alice")])):
            resp = HttpResponse(404, {"error": "x"}, {"A": "b"},
                                {SESSION_COOKIE: "tok"}, label)
            assert pickle.loads(_dumps([resp, resp])) == [resp, resp]
