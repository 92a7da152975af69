"""M9 shared harness: data-plane cost vs. distinct labels.

Builds a table with ``n_rows`` rows spread over ``n_labels`` distinct
``(slabel, ilabel)`` partitions (one secrecy tag per user contract —
the structure W5 deployments actually have), plus a filesystem tree
with the same label diversity, then measures label-filtered ``select``,
``update``, and ``walk`` on the partitioned engine against the naive
per-row/per-node engine.

The viewer is tainted with exactly one of the tags, so it sees the
public partition plus one secret partition — the everyday W5 query
shape where almost all rows are invisible.  Naive cost is O(rows);
partitioned cost is O(visible rows + distinct labels).

Used by both ``test_bench_m9_partitions.py`` (assertions + table) and
``record.py`` (BENCH_M9.json + the 3x regression guard), so the two
always measure the same thing.

Plain imports only: ``record.py`` runs as a script, so this module
must work without the package context.
"""

from __future__ import annotations

import time
from typing import Any

from repro.db import LabeledStore
from repro.fs import LabeledFileSystem
from repro.kernel import Kernel
from repro.labels import Label
from repro.resources import ResourceManager


def build_data_plane(n_rows: int, n_labels: int, plane: str):
    """A store + filesystem with ``n_rows`` rows/files spread evenly
    over ``n_labels`` distinct secrecy labels, and a viewer tainted
    with exactly one of them, on a kernel of ``plane`` (``"fast"`` for
    the partitioned engine, ``"oracle"`` for the naive one)."""
    kernel = Kernel(namespace=f"m9-{plane}-{n_labels}",
                    resources=ResourceManager(), plane=plane)
    store = LabeledStore(kernel)
    fs = LabeledFileSystem(kernel)
    provider = kernel.spawn_trusted("provider")
    tags = [kernel.create_tag(provider, purpose=f"user{i}")
            for i in range(n_labels)]
    writers = [kernel.spawn_trusted(f"writer{i}", slabel=Label([tags[i]]))
               for i in range(n_labels)]
    viewer = kernel.spawn_trusted("viewer", slabel=Label([tags[0]]))

    store.create_table(provider, "items", indexes=("k",))
    for i in range(n_rows):
        store.insert(writers[i % n_labels], "items",
                     {"k": i % 16, "n": i})

    # one directory per label, files inside — the per-user home layout
    for j, tag in enumerate(tags):
        fs.mkdir(provider, f"/u{j}", slabel=Label([tag]))
        for i in range(max(1, min(8, n_rows // max(n_labels, 1) // 4))):
            fs.create(writers[j], f"/u{j}/f{i}", i)
    return kernel, store, fs, viewer


def _seconds_per_op(fn, *, n: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def run_tier(n_rows: int, n_labels: int, plane: str,
             n: int = 20, repeat: int = 3) -> dict[str, Any]:
    """One (labels, engine) measurement with partition observability."""
    kernel, store, fs, viewer = build_data_plane(n_rows, n_labels, plane)
    select_s = _seconds_per_op(
        lambda: store.select(viewer, "items",
                             predicate=lambda v: v["n"] % 7 == 0),
        n=n, repeat=repeat)
    count_s = _seconds_per_op(
        lambda: store.count(viewer, "items", where={"k": 3}),
        n=n, repeat=repeat)
    update_s = _seconds_per_op(
        lambda: store.update(viewer, "items", where={"k": 3},
                             changes={"n": 0}),
        n=n, repeat=repeat)
    walk_s = _seconds_per_op(
        lambda: sum(1 for _ in fs.walk(viewer)), n=n, repeat=repeat)
    return {
        "rows": n_rows,
        "labels": n_labels,
        "plane": plane,
        "select_us": round(select_s * 1e6, 2),
        "count_us": round(count_s * 1e6, 2),
        "update_us": round(update_s * 1e6, 2),
        "walk_us": round(walk_s * 1e6, 2),
        "db_stats": store.stats(),
        "fs_stats": fs.stats(),
    }
