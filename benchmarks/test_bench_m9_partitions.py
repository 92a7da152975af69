"""M9 — data-plane scaling: query cost vs. distinct labels.

The tentpole claim: a label-filtered query's visibility cost scales
with *distinct label pairs*, not rows.  We build a 10k-row table (and
a matching per-user directory tree) at 2 / 16 / 128 distinct labels
and measure select/count/update/walk on the partitioned engine against
the naive per-row engine, asserting the shapes:

* **partitioned** beats naive at every diversity, decisively at 128
  labels (where the viewer sees ~1/128th of the table);
* the partitioned engine really skips: its stats report invisible
  partitions pruned wholesale;
* the two engines return identical results (spot check — the full
  equivalence proof is ``tests/db/test_partition_differential.py``).
"""

import pytest

from .conftest import print_table
from .m9_partitions import build_data_plane, run_tier

N_ROWS = 10_000
LABEL_TIERS = (2, 16, 128)


@pytest.fixture(scope="module")
def tiers():
    part = {k: run_tier(N_ROWS, k, plane="fast") for k in LABEL_TIERS}
    naive = {k: run_tier(N_ROWS, k, plane="oracle", n=5)
             for k in LABEL_TIERS}
    print_table(
        "M9 data-plane scaling (per-query latency, 10k rows)",
        ["labels", "part sel µs", "naive sel µs", "part walk µs",
         "naive walk µs"],
        [[k,
          part[k]["select_us"], naive[k]["select_us"],
          part[k]["walk_us"], naive[k]["walk_us"]]
         for k in LABEL_TIERS])
    return part, naive


def test_bench_m9_partitioned_select_wins_big_at_high_diversity(tiers):
    part, naive = tiers
    speedup = naive[128]["select_us"] / part[128]["select_us"]
    assert speedup >= 3.0, (
        f"partitioned select only {speedup:.2f}x faster than naive "
        f"at 128 labels (need >= 3x)")


def test_bench_m9_partitioned_never_loses(tiers):
    part, naive = tiers
    for k in LABEL_TIERS:
        for op in ("select_us", "count_us", "walk_us"):
            assert part[k][op] <= naive[k][op] * 1.5, (
                f"partitioned {op} slower than naive at {k} labels")


def test_bench_m9_partitions_really_skipped(tiers):
    part, __ = tiers
    assert part[128]["plane"] == "fast"
    stats = part[128]["db_stats"]
    assert stats["partitions_skipped"] > stats["partitions_visible"]
    assert stats["rows_skipped"] > 0
    assert part[128]["fs_stats"]["subtrees_pruned"] > 0


def test_bench_m9_engines_agree_on_results():
    __, store_p, fs_p, viewer_p = build_data_plane(500, 16, "fast")
    __, store_n, fs_n, viewer_n = build_data_plane(500, 16, "oracle")
    assert store_p.select(viewer_p, "items", where={"k": 3}) == \
        store_n.select(viewer_n, "items", where={"k": 3})
    assert store_p.count(viewer_p, "items") == \
        store_n.count(viewer_n, "items")
    assert [p for p, _ in fs_p.walk(viewer_p)] == \
        [p for p, _ in fs_n.walk(viewer_n)]


def test_bench_m9_select_latency(benchmark):
    """pytest-benchmark point for the 128-label partitioned select."""
    __, store, __, viewer = build_data_plane(N_ROWS, 128, "fast")
    # the viewer's visible rows are multiples of 128, so k = i%16 = 0
    rows = benchmark(store.select, viewer, "items", where={"k": 0})
    assert rows
