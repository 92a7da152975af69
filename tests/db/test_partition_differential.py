"""Differential property test: the partitioned engine changes nothing.

Two stores — one label-partitioned (the default), one naive per-row
(the oracle) — are driven through the *same* randomly generated query
history by subjects with graded privilege.  Every operation must agree:
same results, same exception type and message, same audit stream, same
resource-charge totals.  Hypothesis shrinks any divergence to a minimal
witness.

Known, accepted divergence (not exercised here): under a finite
``db_rows_scanned`` quota the partitioned engine charges per partition,
so on quota exhaustion the *partially recorded* usage can differ from
the naive engine's row-at-a-time accounting; the exception type is
identical either way.  Quota-free runs — this test — are byte-equal.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import LabeledStore
from repro.db.errors import DbError
from repro.errors import W5Error
from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, minus, plus
from repro.resources import ResourceManager

#: Deterministic predicate choices (index into this tuple travels in
#: the op stream, so both engines run the identical callable).
PREDICATES = (None,
              lambda vals: vals.get("n", 0) % 2 == 0,
              lambda vals: vals.get("n", 0) > 5)


def build_world(plane):
    """A kernel + store + subjects spanning the interesting verdicts."""
    resources = ResourceManager()
    kernel = Kernel(namespace=f"part-{plane}", resources=resources,
                    plane=plane)
    store = LabeledStore(kernel)
    root = kernel.spawn_trusted("root")
    t1 = kernel.create_tag(root, purpose="s1")
    t2 = kernel.create_tag(root, purpose="s2")
    labels = (Label.EMPTY, Label([t1]), Label([t2]), Label([t1, t2]))
    procs = [
        kernel.spawn_trusted("clean"),                       # public only
        kernel.spawn_trusted("taint1", slabel=Label([t1])),  # sees t1
        kernel.spawn_trusted("taint2", slabel=Label([t2])),
        kernel.spawn_trusted("both", slabel=Label([t1, t2])),
        # tainted but holding t1-: may write down (declassifier-ish)
        kernel.spawn_trusted("declass", slabel=Label([t1]),
                             caps=CapabilitySet([minus(t1)])),
        # clean but owns t2: owned-tag read extension, no taint
        kernel.spawn_trusted("owner2",
                             caps=CapabilitySet([plus(t2), minus(t2)])),
    ]
    store.create_table(procs[0], "rows", indexes=("k",))
    store.create_table(procs[0], "padded", indexes=(), pad_scan_to=25)
    return kernel, store, procs, labels


def mask(text):
    """Row/tag ids differ only in formatting noise, never here — but
    keep the kernel-test convention of comparing shapes."""
    return re.sub(r"#?\d+", "#", text)


def apply_op(store, procs, labels, op):
    kind = op[0]
    p = procs[op[1] % len(procs)]
    try:
        if kind == "insert":
            _, _, ti, k, n, li = op
            table = "rows" if ti else "padded"
            rid = store.insert(p, table, {"k": k % 4, "n": n},
                               slabel=labels[li % len(labels)])
            return ("inserted", rid)
        if kind == "select":
            _, _, ti, wk, use_where, pi, limit = op
            table = "rows" if ti else "padded"
            where = {"k": wk % 4} if use_where else None
            rows = store.select(p, table, where=where,
                                predicate=PREDICATES[pi % len(PREDICATES)],
                                limit=limit)
            return ("rows", rows)
        if kind == "count":
            _, _, ti, wk, use_where, pi = op
            table = "rows" if ti else "padded"
            where = {"k": wk % 4} if use_where else None
            return ("count", store.count(
                p, table, where=where,
                predicate=PREDICATES[pi % len(PREDICATES)]))
        if kind == "update":
            _, _, ti, wk, use_where, n, nested = op
            table = "rows" if ti else "padded"
            where = {"k": wk % 4} if use_where else None
            changes = {"n": n, "extra": [n]} if nested else {"n": n}
            return ("updated", store.update(p, table, where=where,
                                            changes=changes))
        if kind == "delete":
            _, _, ti, wk = op
            table = "rows" if ti else "padded"
            return ("deleted", store.delete(p, table, where={"k": wk % 4}))
        if kind == "get":
            _, _, ti, rid = op
            table = "rows" if ti else "padded"
            return ("got", store.get(p, table, rid % 40 + 1))
        return ("noop",)
    except (W5Error, DbError) as e:
        return ("error", type(e).__name__, mask(str(e)))


def ops():
    pi = st.integers(0, 5)
    insert = st.tuples(st.just("insert"), pi, st.booleans(),
                       st.integers(0, 3), st.integers(0, 9),
                       st.integers(0, 3))
    select = st.tuples(st.just("select"), pi, st.booleans(),
                       st.integers(0, 3), st.booleans(), st.integers(0, 2),
                       st.none() | st.integers(0, 5))
    count = st.tuples(st.just("count"), pi, st.booleans(),
                      st.integers(0, 3), st.booleans(), st.integers(0, 2))
    update = st.tuples(st.just("update"), pi, st.booleans(),
                       st.integers(0, 3), st.booleans(), st.integers(0, 9),
                       st.booleans())
    delete = st.tuples(st.just("delete"), pi, st.booleans(),
                       st.integers(0, 3))
    get = st.tuples(st.just("get"), pi, st.booleans(), st.integers(0, 39))
    return st.lists(st.one_of(insert, select, count, update, delete, get),
                    max_size=60)


def final_state(store):
    out = {}
    for name in store.tables():
        table = store.table(name)
        out[name] = {rid: (row.values, row.slabel, row.ilabel, row.version)
                     for rid, row in table.rows.items()}
    return out


class TestPartitionedStoreIsEquivalent:
    @settings(max_examples=100, deadline=None)
    @given(ops())
    def test_identical_histories_identical_outcomes(self, seed_ops):
        kp, sp, procs_p, labels_p = build_world("fast")
        kn, sn, procs_n, labels_n = build_world("oracle")
        assert sp.partitioned and not sn.partitioned

        for op in seed_ops:
            out_p = apply_op(sp, procs_p, labels_p, op)
            out_n = apply_op(sn, procs_n, labels_n, op)
            assert out_p == out_n, f"divergence on {op}"

        # final table contents agree (values, labels, versions)
        assert final_state(sp) == final_state(sn)

        # audit streams agree record for record
        audit_p = [(e.category, e.allowed, e.subject, e.detail)
                   for e in kp.audit]
        audit_n = [(e.category, e.allowed, e.subject, e.detail)
                   for e in kn.audit]
        assert audit_p == audit_n

        # resource-charge totals agree for every db kind and subject
        for kind in ("db_queries", "db_rows", "db_rows_scanned"):
            for p, n in zip(procs_p, procs_n):
                assert kp.resources.usage_of(p).get(kind) == \
                    kn.resources.usage_of(n).get(kind), \
                    f"{kind} charges diverge for {p.name}"

    def test_partition_bookkeeping_matches_rows(self):
        """After a random-ish workload the partition dicts are exactly
        a re-grouping of ``table.rows`` (no stale or lost members)."""
        kernel, sp, procs, labels = build_world("fast")
        # sees everything and may write down into any partition
        admin = kernel.spawn_trusted(
            "admin", slabel=labels[3],
            caps=CapabilitySet([minus(t) for t in labels[3]]))
        for i in range(40):
            sp.insert(procs[i % 4], "rows", {"k": i % 4, "n": i},
                      slabel=labels[i % 4])
        sp.update(admin, "rows", where={"k": 1}, changes={"n": 99})
        sp.delete(admin, "rows", where={"k": 2})
        table = sp.table("rows")
        regrouped = {}
        for row in table.rows.values():
            regrouped.setdefault((row.slabel, row.ilabel), {})[
                row.row_id] = row
        assert table.partitions == regrouped
        for col, idx in table.indexes.items():
            for value, bucket in idx.items():
                for pkey, ids in bucket.items():
                    assert ids, "empty id set left behind"
                    for rid in ids:
                        row = table.rows[rid]
                        assert row.values[col] == value
                        assert (row.slabel, row.ilabel) == pkey
