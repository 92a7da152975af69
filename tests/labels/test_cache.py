"""Interning and the FlowCache memoization layer.

Covers the two pillars of the fast-path label engine: (1) ``Label`` and
``CapabilitySet`` intern, so equal values are the *same object* and the
cache may key on them forever; (2) ``FlowCache`` returns exactly what
the uncached decision procedure returns, while counting hits, misses,
and invalidations.  Storage verdicts key on the subject's label state,
so they need no per-process invalidation.
"""

import copy
import pickle

import pytest

from repro.labels import (CapabilitySet, FlowCache, Label, SecrecyViolation,
                          TagRegistry, can_flow, exportable_tags, minus, plus)
from repro.labels import cache as cache_module
from repro.labels import flow
from repro.labels.cache import MAX_STATES


@pytest.fixture
def reg():
    return TagRegistry(namespace="cache-test")


class TestLabelInterning:
    def test_equal_labels_are_identical(self, reg):
        t, u = reg.create(), reg.create()
        assert Label([t, u]) is Label([u, t])

    def test_empty_label_is_the_shared_empty(self):
        assert Label() is Label.EMPTY
        assert Label([]) is Label.EMPTY

    def test_operations_return_interned_results(self, reg):
        t, u = reg.create(), reg.create()
        a, b = Label([t]), Label([u])
        assert (a | b) is Label([t, u])
        assert (a - a) is Label.EMPTY
        assert (a & b) is Label.EMPTY
        assert ((a | b) - b) is a

    def test_pickle_round_trip_reinterns(self, reg):
        t = reg.create()
        lab = Label([t])
        assert pickle.loads(pickle.dumps(lab)) is lab

    def test_deepcopy_reinterns(self, reg):
        t = reg.create()
        lab = Label([t])
        assert copy.deepcopy(lab) is lab

    def test_same_tag_id_different_owner_not_merged(self, reg):
        """Tags compare by id, but interning must not substitute one
        registry's tag metadata for another's (see test_serial's
        cross-registry import)."""
        other = TagRegistry(namespace="cache-test-b")
        t1 = reg.create(owner="alice")
        t2 = other.create(owner="bob")
        assert t1 == t2  # same id: equal by the tag contract
        l1, l2 = Label([t1]), Label([t2])
        assert l1 is not l2
        assert next(iter(l1)).owner == "alice"
        assert next(iter(l2)).owner == "bob"


class TestCapabilitySetInterning:
    def test_equal_sets_are_identical(self, reg):
        t = reg.create()
        assert CapabilitySet([plus(t), minus(t)]) is CapabilitySet.owning(t)

    def test_empty_is_shared(self):
        assert CapabilitySet() is CapabilitySet.EMPTY

    def test_pickle_round_trip_reinterns(self, reg):
        t = reg.create()
        caps = CapabilitySet([plus(t)])
        assert pickle.loads(pickle.dumps(caps)) is caps

    def test_derived_labels_precomputed_and_interned(self, reg):
        t, u = reg.create(), reg.create()
        caps = CapabilitySet([plus(t), minus(u)])
        assert caps.plus_tags is Label([t])
        assert caps.minus_tags is Label([u])


class _FakeSubject:
    """Minimal duck-typed Subject for the verdict layer."""

    def __init__(self, pid, slabel, ilabel, caps):
        self.pid = pid
        self.slabel = slabel
        self.ilabel = ilabel
        self.caps = caps


class TestFlowCacheMemos:
    def test_agrees_with_uncached_and_counts(self, reg):
        t = reg.create()
        cache = FlowCache()
        tainted, clean = Label([t]), Label.EMPTY
        for _ in range(3):
            assert cache.can_flow(tainted, clean, clean, clean) is \
                can_flow(tainted, clean, clean, clean)
            assert cache.can_flow(clean, clean, tainted, clean) is \
                can_flow(clean, clean, tainted, clean)
        s = cache.stats()
        assert s["miss_total"] == 2 and s["hit_total"] == 4
        assert 0 < cache.hit_rate() < 1

    def test_disabled_cache_is_pass_through(self, reg):
        t = reg.create()
        cache = FlowCache(enabled=False)
        for _ in range(5):
            cache.can_flow(Label([t]), Label.EMPTY, Label.EMPTY, Label.EMPTY)
        s = cache.stats()
        assert s["hit_total"] == 0 and s["miss_total"] == 0
        assert s["entries"] == 0 and s["enabled"] is False
        # a path walk's table is a fresh empty dict: every probe misses
        subj = _FakeSubject(1, Label.EMPTY, Label.EMPTY, CapabilitySet.EMPTY)
        table = cache.read_table(subj)
        assert table == {}
        table[(Label([t]), Label.EMPTY)] = True
        assert cache.read_table(subj) == {}

    def test_check_flow_denial_matches_uncached_diagnostics(self, reg):
        t = reg.create(purpose="secret")
        cache = FlowCache()
        args = (Label([t]), Label.EMPTY, Label.EMPTY, Label.EMPTY)
        with pytest.raises(SecrecyViolation) as cached_err:
            cache.check_flow(*args, what="unit")
        with pytest.raises(SecrecyViolation) as uncached_err:
            flow.check_flow(*args, what="unit")
        assert str(cached_err.value) == str(uncached_err.value)
        # the deny itself is also served from the memo the second time
        with pytest.raises(SecrecyViolation):
            cache.check_flow(*args, what="unit")
        assert cache.stats()["hits"].get("ipc", 0) >= 1

    def test_exportable_residue_memoized(self, reg):
        t, u = reg.create(), reg.create()
        cache = FlowCache()
        lab, caps = Label([t, u]), CapabilitySet([minus(t)])
        for _ in range(3):
            assert cache.exportable_residue(lab, caps) is \
                exportable_tags(lab, caps)
        assert cache.stats()["hits"]["export"] == 2

    def test_eviction_bounds_the_tables(self, reg, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 4)
        cache = FlowCache()
        labels = [Label([reg.create()]) for _ in range(10)]
        for lab in labels:
            cache.can_flow_secrecy(lab, lab)
        s = cache.stats()
        assert s["evictions"] >= 1
        assert len(cache._secrecy) <= 4


class TestSubjectVerdicts:
    def test_scan_hits_after_first_row(self, reg):
        t = reg.create()
        subj = _FakeSubject(1, Label.EMPTY, Label.EMPTY, CapabilitySet.EMPTY)
        cache = FlowCache()
        row_label = Label([t])
        verdicts = [cache.readable(subj, row_label, Label.EMPTY)
                    for _ in range(50)]
        assert verdicts == [False] * 50
        s = cache.stats()
        assert s["misses"]["read"] == 1 and s["hits"]["read"] == 49

    def test_state_verdicts_serve_a_fresh_process(self, reg):
        t = reg.create()
        state = (Label([t]), Label.EMPTY, CapabilitySet.EMPTY)
        cache = FlowCache()
        first = _FakeSubject(1, *state)
        assert cache.readable(first, Label([t]), Label.EMPTY) is True
        assert cache.writable(first, Label.EMPTY, Label.EMPTY) is False
        # a fresh process (new pid) in the same label state
        fresh = _FakeSubject(2, *state)
        assert cache.readable(fresh, Label([t]), Label.EMPTY) is True
        assert cache.writable(fresh, Label.EMPTY, Label.EMPTY) is False
        s = cache.stats()
        assert s["misses"] == {"read": 1, "write": 1}
        assert s["hits"] == {"read": 1, "write": 1}

    def test_label_change_reaches_a_different_entry(self, reg):
        t = reg.create()
        subj = _FakeSubject(1, Label.EMPTY, Label.EMPTY, CapabilitySet.EMPTY)
        cache = FlowCache()
        assert cache.readable(subj, Label([t]), Label.EMPTY) is False
        # trusted code assigns the label without a kernel syscall: the
        # new state is a new key, so nothing stale can be served
        subj.slabel = Label([t])
        assert cache.readable(subj, Label([t]), Label.EMPTY) is True
        subj.caps = CapabilitySet.owning(t)
        subj.slabel = Label.EMPTY
        assert cache.readable(subj, Label([t]), Label.EMPTY) is True
        assert cache.stats()["misses"]["read"] == 3
        # back in the first state, its verdict is served again
        subj.caps = CapabilitySet.EMPTY
        assert cache.readable(subj, Label([t]), Label.EMPTY) is False
        assert cache.stats()["hits"]["read"] == 1

    def test_table_never_exceeds_the_bound(self, reg):
        cache = FlowCache()
        obj = Label([reg.create()])
        for _ in range(3 * MAX_STATES + 1):
            subj = _FakeSubject(1, Label([reg.create()]), Label.EMPTY,
                                CapabilitySet.EMPTY)
            cache.readable(subj, obj, Label.EMPTY)
            cache.read_table(subj)
            assert len(cache._subjects) <= MAX_STATES
        assert cache.stats()["evictions"] == 2 * MAX_STATES + 1

    def test_invalidate_all_clears_everything(self, reg):
        t = reg.create()
        cache = FlowCache()
        cache.can_flow_secrecy(Label([t]), Label.EMPTY)
        subj = _FakeSubject(1, Label.EMPTY, Label.EMPTY, CapabilitySet.EMPTY)
        cache.readable(subj, Label([t]), Label.EMPTY)
        assert cache.stats()["entries"] > 0
        cache.invalidate_all(reason="registry-restore")
        s = cache.stats()
        assert s["entries"] == 0
        assert s["invalidations"]["registry-restore"] == 1
