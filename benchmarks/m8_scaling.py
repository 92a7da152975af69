"""M8 shared harness: per-request cost vs. deployment size.

Builds a W5 deployment with N signed-up users (every one of them has
enabled the blog app and granted the stock friends-only declassifier —
the state that makes the oracle plane's request path O(N)), then
measures the
per-request latency of a fully labeled read: authenticate → launch the
app with its commingled capabilities → labeled row read (taints the
process) → export-authority check at the gateway.

Used by both ``test_bench_m8_scaling.py`` (assertions + table) and
``record.py`` (BENCH_M8.json + the 3x regression guard), so the two
always measure the same thing.

Plain imports only: ``record.py`` runs as a script, so this module
must work without the package context.
"""

from __future__ import annotations

import time
from typing import Any

from repro import W5System
from repro.platform import ProviderConfig


def build_deployment(n_users: int, fast: bool,
                     tracing: bool = False) -> tuple[W5System, Any]:
    """A deployment with ``n_users`` accounts and one driving client.

    Accounts beyond the driver are created through the provider's
    form methods directly (not HTTP) so setup stays proportional to N
    while the *measured* path is the full pipeline.  ``tracing`` turns
    on the M11 span tracer (the M11 overhead bench reuses this exact
    deployment and request mix).
    """
    config = ProviderConfig.fast() if fast else ProviderConfig.oracle()
    w5 = W5System(name=f"m8-{config.plane}-{n_users}", config=config,
                  audit_max_events=20_000, tracing=tracing)
    driver = w5.add_user("user0", apps=("blog",))
    provider = w5.provider
    for i in range(1, n_users):
        name = f"user{i}"
        provider.signup(name, "pw")
        provider.enable_app(name, "blog")
        provider.grant_builtin_declassifier(
            name, "friends-only", {"friends": []})
    driver.get("/app/blog/post", title="t0", body="hello world")
    resp = driver.get("/app/blog/read", title="t0")
    assert resp.ok and resp.body["body"] == "hello world"
    return w5, driver


def measure_request_seconds(driver, n: int = 60, repeat: int = 3) -> float:
    """Mean seconds per labeled read (best of ``repeat`` loops)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(n):
            driver.get("/app/blog/read", title="t0")
        best = min(best, time.perf_counter() - t0)
    return best / n


def run_tier(n_users: int, fast: bool, n: int = 60,
             repeat: int = 3) -> dict[str, Any]:
    """One (size, mode) measurement with cache observability."""
    w5, driver = build_deployment(n_users, fast=fast)
    seconds = measure_request_seconds(driver, n=n, repeat=repeat)
    provider = w5.provider
    return {
        "users": n_users,
        "plane": provider.config.plane,
        "latency_us": round(seconds * 1e6, 2),
        "throughput_rps": round(1.0 / seconds, 1),
        "plans": provider.plans.stats(),
        "launch_caps": provider.capindex.stats(),
        "authority": provider.declass.authority_stats(),
        "pool": provider.kernel.pool.stats(),
        "audit_dropped": provider.kernel.audit.dropped,
    }
