"""Serving requests never imports networkx.

Only the functions that build a graph import it (code search's
dependency graph and the synthetic social and module worlds), so a
process that builds and serves a provider, or a fork router whose
children inherit its heap, does not carry the graph library's modules.
Each scenario runs in a fresh interpreter, since this test process has
imported networkx through other tests.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SERVE = """
from repro.apps import install_standard_apps
from repro.net import ExternalClient
from repro.net.http import HttpRequest

def serve(provider_like):
    install_standard_apps(provider_like)
    clients = []
    for u in ("alice", "bob", "carol", "dave"):
        c = ExternalClient(u, provider_like.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "blog"})
        assert c.get("/app/blog/post", title="t", body="b").ok
        clients.append(c)
    responses = provider_like.handle_batch([
        HttpRequest("GET", "/app/blog/list", cookies=dict(c.cookies))
        for c in clients])
    assert all(r.ok for r in responses)
"""

SCENARIOS = {
    "provider": SERVE + """
from repro.platform import Provider
serve(Provider())
""",
    "fork": SERVE + """
from repro.platform import ShardedProvider
sp = ShardedProvider(n_shards=2, engine="fork")
serve(sp)
assert sp.stats()["per_shard"][1]["gateway"]["exports_allowed"] > 0
sp.shutdown()
""",
    "w5system": """
from repro import W5System
w5 = W5System()
assert w5.add_user("alice", apps=["blog"]).get("/app/blog/list").ok
""",
}

REPORT = """
import sys
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_no_networkx_in_sys_modules(scenario):
    if scenario == "fork" and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c",
                           SCENARIOS[scenario] + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"

