"""Grouped walk vs naive walk: identical traversal, identical audit.

The grouped engine batches one read verdict per distinct child label
pair and prunes unreadable subtrees without re-deriving violations;
everything a caller (or auditor) can observe must match the naive
one-check-per-node traversal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import LabeledFileSystem
from repro.kernel import Kernel
from repro.labels import CapabilitySet, Label, minus, plus


def build_fs(plane, tree_ops):
    """Deterministically grow a labeled tree from the op list."""
    kernel = Kernel(namespace=f"walk-{plane}", plane=plane)
    fs = LabeledFileSystem(kernel)
    root = kernel.spawn_trusted("root")
    t1 = kernel.create_tag(root, purpose="s1")
    t2 = kernel.create_tag(root, purpose="s2")
    labels = (Label.EMPTY, Label([t1]), Label([t2]), Label([t1, t2]))
    # a writer that can read everything and write down anywhere
    builder = kernel.spawn_trusted(
        "builder", slabel=Label([t1, t2]),
        caps=CapabilitySet([minus(t1), minus(t2)]))
    viewers = [
        kernel.spawn_trusted("clean"),
        kernel.spawn_trusted("taint1", slabel=Label([t1])),
        kernel.spawn_trusted("both", slabel=Label([t1, t2])),
        kernel.spawn_trusted("owner2",
                             caps=CapabilitySet([plus(t2), minus(t2)])),
    ]
    dirs = ["/"]
    for kind, parent_i, name_i, label_i in tree_ops:
        parent = dirs[parent_i % len(dirs)]
        path = f"{parent.rstrip('/')}/{kind}{name_i}"
        label = labels[label_i % len(labels)]
        try:
            if kind == "d":
                fs.mkdir(builder, path, slabel=label)
                dirs.append(path)
            else:
                fs.create(builder, path, f"data-{name_i}", slabel=label)
        except Exception:
            pass  # duplicate path etc. — same on both sides
    return kernel, fs, viewers


def tree_ops():
    return st.lists(
        st.tuples(st.sampled_from(["d", "f"]), st.integers(0, 5),
                  st.integers(0, 6), st.integers(0, 3)),
        max_size=30)


class TestGroupedWalkIsEquivalent:
    @settings(max_examples=60, deadline=None)
    @given(tree_ops())
    def test_identical_walks_identical_audit(self, ops):
        kg, fsg, viewers_g = build_fs("fast", ops)
        kn, fsn, viewers_n = build_fs("oracle", ops)
        for vg, vn in zip(viewers_g, viewers_n):
            walked_g = [(p, n.name, n.slabel, n.ilabel)
                        for p, n in fsg.walk(vg)]
            walked_n = [(p, n.name, n.slabel, n.ilabel)
                        for p, n in fsn.walk(vn)]
            assert walked_g == walked_n, f"walk diverges for {vg.name}"
        audit_g = [(e.category, e.allowed, e.subject, e.detail)
                   for e in kg.audit]
        audit_n = [(e.category, e.allowed, e.subject, e.detail)
                   for e in kn.audit]
        assert audit_g == audit_n


class TestWalkPruning:
    def test_unreadable_subtree_pruned_with_one_refusal(self):
        kernel = Kernel()
        fs = LabeledFileSystem(kernel)
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="secret")
        tainted = kernel.spawn_trusted("tainted", slabel=Label([t]))
        clean = kernel.spawn_trusted("clean")
        fs.mkdir(root, "/pub")
        fs.mkdir(root, "/secret", slabel=Label([t]))
        for i in range(5):
            fs.create(tainted, f"/secret/f{i}", i)
        paths = [p for p, _ in fs.walk(clean)]
        assert paths == ["/", "/pub"]
        # one refusal for the directory, none for its children
        refusals = [e for e in kernel.audit
                    if not e.allowed and "refused" in e.detail]
        assert len(refusals) == 1
        assert fs.stats()["subtrees_pruned"] == 1
        assert fs.stats()["label_batches"] >= 1

    def test_stats_flag_reports_engine(self):
        assert LabeledFileSystem(Kernel()).grouped_walk is True
        assert LabeledFileSystem(
            Kernel(plane="oracle")).grouped_walk is False
