"""M8 — request-plane scaling: per-request cost vs. deployment size.

The ROADMAP north star is heavy traffic from millions of users; the
mechanism claim of this milestone is that per-request work is
independent of how many accounts exist.  We measure the same fully
labeled read at 10 / 100 / 1,000 / 5,000 users on the fast plane, and
at 10 / 100 / 1,000 on the oracle plane (the seed behavior:
``launch_caps`` scans every account and ``authority_for`` every grant,
per request), and assert the shapes:

* **fast**: the cost curve is flat — 1,000 users costs ≤1.5× 10 users;
* **slow**: the cost clearly grows with users — the scan is real.
"""

import pytest

from .conftest import print_table
from .m8_scaling import run_tier

FAST_TIERS = (10, 100, 1_000, 5_000)
SLOW_TIERS = (10, 100, 1_000)


@pytest.fixture(scope="module")
def tiers():
    fast = {n: run_tier(n, fast=True) for n in FAST_TIERS}
    slow = {n: run_tier(n, fast=False, n=30) for n in SLOW_TIERS}
    print_table(
        "M8 request-plane scaling (per-request latency)",
        ["users", "fast µs", "fast rps", "slow µs", "slow rps"],
        [[n,
          fast[n]["latency_us"], fast[n]["throughput_rps"],
          slow[n]["latency_us"] if n in slow else "-",
          slow[n]["throughput_rps"] if n in slow else "-"]
         for n in FAST_TIERS])
    return fast, slow


def test_bench_m8_fast_plane_is_flat(tiers):
    fast, __ = tiers
    lat10 = fast[10]["latency_us"]
    lat1000 = fast[1_000]["latency_us"]
    assert lat1000 <= 1.5 * lat10, (
        f"per-request latency grew {lat1000 / lat10:.2f}x "
        f"from 10 to 1,000 users with the fast plane on")
    # the widest tier stays in the same ballpark too
    assert fast[5_000]["latency_us"] <= 2.0 * lat10


def test_bench_m8_slow_plane_grows(tiers):
    """The baseline really is O(users) — otherwise M8 proves nothing."""
    __, slow = tiers
    assert slow[1_000]["latency_us"] >= 3.0 * slow[10]["latency_us"]


def test_bench_m8_caches_are_working(tiers):
    fast, slow = tiers
    big = fast[1_000]
    # on the fast plane compiled plans answer the measured reads; the
    # launch-cap index and the authority refresh run only when a plan
    # compiles
    assert big["plans"]["hits"] > 0
    assert big["plans"]["misses"] + big["plans"]["invalidated"] \
        < big["plans"]["hits"]
    assert big["launch_caps"]["misses"] >= 1
    # on the oracle plane nothing is served from memo: it never
    # consults a plan, so its export authority is evaluated live
    assert slow[1_000]["launch_caps"]["hits"] == 0
    assert slow[1_000]["plans"]["hits"] == 0


def test_bench_m8_audit_ring_bounds_memory(tiers):
    fast, __ = tiers
    big = fast[5_000]
    # 5,000 signups + the measurement loops overflow a 20k ring
    assert big["audit_dropped"] > 0


def test_bench_m8_latency(benchmark):
    """pytest-benchmark point for the 1,000-user fast tier."""
    from .m8_scaling import build_deployment
    __, driver = build_deployment(1_000, fast=True)
    resp = benchmark(driver.get, "/app/blog/read", title="t0")
    assert resp.ok
