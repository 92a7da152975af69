"""The audit ring's queries equal a brute-force list model.

``AuditLog`` keeps one bounded ring of rows, derives each row's
``seq`` from its position, answers ``events()``/``count()`` by
scanning the ring and ``dropped`` by arithmetic.  These tests run the
log and :class:`ListModel` — every record kept in a plain list, the
retained window sliced off it — through the same streams and require
identical answers, eviction and ``clear()`` included.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.audit import AuditLog

CATEGORIES = ["spawn", "send", "file_read", "db_query", "export"]
SUBJECTS = ["app:blog", "app:social", "gateway", "provider"]


class ListModel:
    """The audit log's contract, brute force: every record in a list."""

    def __init__(self, max_events=None):
        self.max_events = max_events
        self.records = []   # (seq, category, allowed, subject, detail)
        self.retained = []
        self.evicted = 0

    def record(self, category, allowed, subject, detail):
        rec = (len(self.records) + 1, category, allowed, subject, detail)
        self.records.append(rec)
        self.retained.append(rec)
        if (self.max_events is not None
                and len(self.retained) > self.max_events):
            del self.retained[0]
            self.evicted += 1

    def clear(self):
        self.retained = []

    def events(self, category=None, subject=None, allowed=None):
        return [r for r in self.retained
                if (category is None or r[1] == category)
                and (allowed is None or r[2] == allowed)
                and (subject is None or r[3] == subject)]

    def lifetime_counts(self):
        return Counter((r[1], r[2]) for r in self.records)


def _rows(events):
    return [(e.seq, e.category, e.allowed, e.subject, e.detail)
            for e in events]


def _drive(logs, n, seed, *, ring=False):
    """Feed the same random stream to every log in ``logs``."""
    rng = random.Random(seed)
    for i in range(n):
        cat = rng.choice(CATEGORIES)
        subj = rng.choice(SUBJECTS)
        allowed = rng.random() < 0.8
        for log in logs:
            log.record(cat, allowed, subj, f"event {i}")


def _assert_identical(log, model):
    assert _rows(log) == model.retained
    for cat in CATEGORIES + ["never_recorded", None]:
        for allowed in (None, True, False):
            for subj in SUBJECTS + [None]:
                assert (_rows(log.events(category=cat, subject=subj,
                                         allowed=allowed))
                        == model.events(category=cat, subject=subj,
                                        allowed=allowed))


class TestIndexEquivalence:
    """Filtered queries scan the ring; the list model is the oracle."""

    def test_unbounded_log(self):
        log, model = AuditLog(), ListModel()
        _drive([log, model], 300, seed=1)
        _assert_identical(log, model)

    @pytest.mark.parametrize("capacity", [1, 7, 50])
    def test_ring_eviction(self, capacity):
        """Global-FIFO eviction keeps every query exact at any bound."""
        log, model = AuditLog(max_events=capacity), ListModel(capacity)
        _drive([log, model], 300, seed=2)
        assert log.dropped == model.evicted == 300 - capacity
        _assert_identical(log, model)

    def test_skewed_stream_single_hot_category(self):
        """One category dominating the ring evicts mostly from itself."""
        log, model = AuditLog(max_events=10), ListModel(10)
        for i in range(100):
            cat = "send" if i % 10 else "export"
            for target in (log, model):
                target.record(cat, True, "app:blog", f"e{i}")
        _assert_identical(log, model)

    def test_clear_resets_index(self):
        log = AuditLog(max_events=5)
        _drive([log], 20, seed=3)
        log.clear()
        assert log.events(category="send") == []
        log.record("send", True, "app:blog", "after clear")
        assert len(log.events(category="send")) == 1

    def test_unfiltered_queries_unaffected(self):
        log, model = AuditLog(max_events=20), ListModel(20)
        _drive([log, model], 100, seed=4)
        assert _rows(log) == _rows(log.events()) == model.retained
        assert log.count() == len(model.retained)
        assert log.last().seq == log.total_recorded == 100


_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(CATEGORIES), st.booleans(),
                  st.sampled_from(SUBJECTS), st.booleans()),
        st.just("clear")),
    max_size=150)


class TestListModel:
    @pytest.mark.parametrize("capacity", [1, 7, 50])
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_random_records_evictions_and_clears(self, capacity, ops):
        log, model = AuditLog(max_events=capacity), ListModel(capacity)
        for i, op in enumerate(ops):
            if op == "clear":
                log.clear()
                model.clear()
                continue
            cat, allowed, subj, lazy = op
            if lazy:
                log.record_lazy(cat, allowed, subj, "event %d", (i,))
            else:
                log.record(cat, allowed, subj, f"event {i}")
            model.record(cat, allowed, subj, f"event {i}")
        seqs = [e.seq for e in log]
        # seqs stay contiguous and end at the newest record
        assert seqs == list(range(log.total_recorded - len(seqs) + 1,
                                  log.total_recorded + 1))
        assert log.total_recorded == len(model.records)
        # dropped counts evictions, never clears
        assert log.dropped == model.evicted
        assert log.lifetime_counts() == model.lifetime_counts()
        for cat in CATEGORIES + [None]:
            for allowed in (None, True, False):
                assert (log.count(cat, allowed)
                        == len(log.events(cat, allowed=allowed))
                        == len(model.events(cat, allowed=allowed)))
        _assert_identical(log, model)


class TestCountEquivalence:
    """count() filters the ring; the scan is the oracle."""

    def _assert_counts(self, log):
        for cat in CATEGORIES + ["never_recorded", None]:
            for allowed in (None, True, False):
                assert (log.count(category=cat, allowed=allowed)
                        == len(log.events(category=cat, allowed=allowed))), \
                    (cat, allowed)

    def test_unbounded(self):
        log = AuditLog()
        _drive([log], 300, seed=11)
        self._assert_counts(log)

    @pytest.mark.parametrize("capacity", [1, 7, 50])
    def test_ring_eviction_decrements(self, capacity):
        log = AuditLog(max_events=capacity)
        _drive([log], 300, seed=12)
        assert log.dropped == 300 - capacity
        self._assert_counts(log)

    def test_unindexed_log_counts_identically(self):
        log = AuditLog(max_events=25)
        _drive([log], 200, seed=13)
        self._assert_counts(log)

    def test_clear_resets_counters(self):
        log = AuditLog(max_events=10)
        _drive([log], 50, seed=14)
        log.clear()
        assert log.count() == 0
        assert log.count(category="send") == 0
        assert log.count(allowed=False) == 0
        log.record("send", False, "app:blog", "after clear")
        assert log.count(category="send", allowed=False) == 1
        self._assert_counts(log)

    def test_lazy_records_counted(self):
        log = AuditLog(max_events=8)
        for i in range(40):
            log.record_lazy("db_query", i % 3 != 0, "app:blog",
                            "select %s (%d rows)", ("posts", i))
        self._assert_counts(log)


class TestLazyDetail:
    """Deferred rendering is byte-identical to eager formatting."""

    def test_rendered_on_access(self):
        log = AuditLog()
        log.record_lazy("spawn", True, "provider",
                        "trusted spawn %r pid=%d", ("app:blog", 17))
        e = log.last()
        assert e.detail == "trusted spawn 'app:blog' pid=17"
        # second access returns the cached render
        assert e.detail == "trusted spawn 'app:blog' pid=17"

    def test_plain_template_needs_no_args(self):
        log = AuditLog()
        log.record_lazy("export", True, "gateway", "ok")
        e = log.last()
        assert e.detail == "ok"

    def test_eager_opt_out_is_identical(self):
        lazy = AuditLog(lazy=True)
        eager = AuditLog(lazy=False)
        for log in (lazy, eager):
            log.record_lazy("db_query", True, "app:blog",
                            "select %s (%d rows)", ("posts", 3))
        assert lazy.events() == eager.events()
        assert lazy.last().detail == eager.last().detail

    def test_equality_and_hash_force_render(self):
        a = AuditLog()
        b = AuditLog()
        a.record_lazy("exit", True, "app:blog", "exit pid=%d", (5,))
        b.record("exit", True, "app:blog", "exit pid=5")
        ea, eb = a.last(), b.last()
        assert ea == eb
        assert hash(ea) == hash(eb)

    def test_extra_allocated_on_demand(self):
        log = AuditLog()
        log.record_lazy("exit", True, "app:blog", "exit pid=%d", (5,))
        e = log.last()
        assert e._extra is None  # no dict until someone asks
        assert e.extra == {}
        e.extra["k"] = 1
        assert e.extra["k"] == 1  # the lazily-created dict persists


class _StubTrace:
    def __init__(self, trace_id):
        self.trace_id = trace_id


class _StubSpan:
    def __init__(self, trace_id, span_id):
        self.trace = _StubTrace(trace_id)
        self.span_id = span_id


class _StubTracer:
    """The trace_source protocol: an object with a ``current`` span."""

    def __init__(self, current=None):
        self.current = current


class TestTraceStamping:
    def test_trace_source_stamps_extra(self):
        log = AuditLog()
        log.trace_source = _StubTracer(_StubSpan("deadbeef", 7))
        log.record("export", True, "gateway", "ok")
        e = log.last()
        assert e.extra["trace_id"] == "deadbeef"
        assert e.extra["span_id"] == 7

    def test_no_active_trace_leaves_extra_clean(self):
        log = AuditLog()
        log.trace_source = _StubTracer(None)
        log.record("export", True, "gateway", "ok")
        e = log.last()
        assert "trace_id" not in e.extra

    def test_default_log_has_no_source(self):
        log = AuditLog()
        log.record("spawn", True, "provider", "boot")
        e = log.last()
        assert "trace_id" not in e.extra
