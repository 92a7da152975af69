"""M15 shared harness: delta federation sync vs. the naive reconciler.

Two questions, matching the ROADMAP item-2 claims:

1. **Sync cost is O(dirty), not O(corpus).**  A linked pair holds
   ``n_files`` in the user's home; each round dirties a fixed small
   set and syncs.  The naive content reconciler re-reads every file on
   both sides and re-selects every row, so its round cost grows with
   the corpus; the journal-cursor delta engine tails the journal and
   touches only the dirty set, so its round cost is ~flat.  Both run on
   the same fast-plane pair: the naive side times
   ``ProviderLink._naive_round`` (every round of a link with an
   oracle-plane side, and the fast plane's stale-cursor fallback), so
   the ratio isolates the one feature, not the plane.  The guard
   tier (1,000 files / 1% dirty) must show ≥5× — measured far higher
   on the reference box, the floor just catches the optimization
   silently dying.

2. **The fabric routes in O(1) as providers multiply.**  A
   ``FederationFabric`` of N ∈ {2, 16, 64, 256} providers serves
   cross-provider reads routed through the consistent-hash directory;
   per-read latency must stay flat as N grows (placement is a ring
   lookup, not a scan).

Measurement uses min-of-reps floors (the M8/M11 convention): each rep
re-dirties the same file set and times one sync round, and
the floor is the repeatable cost of that round with cache/allocator
luck stripped.

Used by both ``test_bench_m15_federation.py`` (assertions + tables)
and ``record.py`` (BENCH_M15.json + the ≥5× regression guard), so the
two always measure the same thing.

Plain imports only: ``record.py`` runs this as a script, outside the
package context.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Optional

from repro.federation import FederationFabric, ProviderLink
from repro.fs import FsView
from repro.platform import Provider, ProviderConfig

#: The CI bar for the guard tier (1,000 files, 1% dirty): delta sync
#: must beat the naive reconciler by at least this factor.  Measured
#: ~two orders of magnitude on the reference box; 5× is the floor at
#: which the delta path has clearly stopped being a delta path.
M15_MIN_SPEEDUP = 5.0
#: Corpus sizes for the flatness curve (dirty set fixed at 10 files).
M15_TIERS = (250, 1000, 4000)
#: Provider counts for the fabric routing curve.
M15_FLEETS = (2, 16, 64, 256)

#: Journals big enough that a benchmark round never triggers
#: compaction mid-measurement (compaction = checkpoint = cursor reset,
#: which would charge one full recon to a random rep).
_BENCH_CONFIG = ProviderConfig(journal_compact_bytes=1 << 28)


def build_pair(n_files: int) -> tuple[Provider, Provider, ProviderLink]:
    """A linked, granted, primed pair with ``n_files`` already
    mirrored — the steady state both engines start a round from."""
    a = Provider(name="m15-a", config=_BENCH_CONFIG)
    b = Provider(name="m15-b", config=_BENCH_CONFIG)
    for p in (a, b):
        p.signup("bob", "pw")
    link = ProviderLink(a, b)
    link.link_account("bob")
    link.grant_sync("bob")
    agent = a._user_agent(a.account("bob"))
    fs = FsView(a.fs, agent)
    for i in range(n_files):
        fs.create(f"/users/bob/f{i}", f"v0-{i}")
    a.kernel.exit(agent)
    link.sync_user("bob")  # prime: mirror everything, attach cursors
    return a, b, link


def dirty_files(provider: Provider, n_dirty: int, stamp: str) -> None:
    """Rewrite the first ``n_dirty`` files with fresh content."""
    agent = provider._user_agent(provider.account("bob"))
    fs = FsView(provider.fs, agent)
    for i in range(n_dirty):
        fs.write(f"/users/bob/f{i}", f"{stamp}-{i}")
    provider.kernel.exit(agent)


def measure_sync_seconds(n_files: int, n_dirty: int, delta: bool,
                         reps: int = 5) -> dict[str, Any]:
    """Floor cost of one sync round at a fixed dirty set."""
    a, __, link = build_pair(n_files)
    state = link.state_of("bob")

    def sync_round() -> int:
        return link.sync_user("bob") if delta else link._naive_round(state)

    times = []
    for rep in range(reps):
        dirty_files(a, n_dirty, f"r{rep}")
        t0 = perf_counter()
        moved = sync_round()
        times.append(perf_counter() - t0)
        assert moved == n_dirty, (moved, n_dirty)
    assert sync_round() == 0  # converged
    return {
        "n_files": n_files,
        "n_dirty": n_dirty,
        "engine": "delta" if delta else "naive",
        "floor_ms": round(min(times) * 1e3, 3),
        "mean_ms": round(sum(times) / len(times) * 1e3, 3),
    }


def run_sync_scaling(tiers=M15_TIERS, n_dirty: int = 10,
                     reps: int = 5) -> dict[str, Any]:
    """The headline table: both engines across corpus sizes at a
    fixed dirty set, plus the guard-tier speedup."""
    rows = []
    for n_files in tiers:
        for delta in (False, True):
            rows.append(measure_sync_seconds(n_files, n_dirty, delta,
                                             reps=reps))
    by = {(r["n_files"], r["engine"]): r for r in rows}
    guard_tier = 1000 if 1000 in tiers else tiers[-1]
    speedup = (by[(guard_tier, "naive")]["floor_ms"]
               / max(by[(guard_tier, "delta")]["floor_ms"], 1e-9))
    delta_floors = [by[(t, "delta")]["floor_ms"] for t in tiers]
    naive_floors = [by[(t, "naive")]["floor_ms"] for t in tiers]
    return {
        "tiers": list(tiers),
        "n_dirty": n_dirty,
        "rows": rows,
        "guard_tier": guard_tier,
        "speedup": round(speedup, 2),
        "min_speedup": M15_MIN_SPEEDUP,
        "delta_flatness": round(max(delta_floors) / max(min(delta_floors),
                                                        1e-9), 2),
        "naive_growth": round(max(naive_floors) / max(min(naive_floors),
                                                      1e-9), 2),
        "regression": speedup < M15_MIN_SPEEDUP,
    }


def measure_fabric_latency(n_providers: int, n_users: int = 24,
                           n_reads: int = 200) -> dict[str, Any]:
    """Routed-read latency through a fabric of ``n_providers``."""
    t0 = perf_counter()
    fabric = FederationFabric(n_providers, provider_config=_BENCH_CONFIG)
    build_s = perf_counter() - t0
    users = [f"user{i}" for i in range(n_users)]
    for user in users:
        fabric.signup(user, "pw")
        fabric.store_user_data(user, "profile", f"profile-of-{user}")
    # warmup + measurement: round-robin cross-provider reads
    for user in users:
        assert fabric.read_user_data(
            user, "profile") == f"profile-of-{user}"
    t0 = perf_counter()
    for i in range(n_reads):
        fabric.read_user_data(users[i % n_users], "profile")
    total = perf_counter() - t0
    homes = {fabric.home_of(u) for u in users}
    return {
        "providers": n_providers,
        "distinct_homes": len(homes),
        "build_s": round(build_s, 3),
        "read_latency_us": round(total / n_reads * 1e6, 2),
    }


def run_latency_curve(fleets=M15_FLEETS) -> list[dict[str, Any]]:
    return [measure_fabric_latency(n) for n in fleets]
