"""Unit tests for the audit log."""

import pytest

from repro.kernel import AuditLog


class TestAuditLog:
    def test_record_and_len(self):
        log = AuditLog()
        log.record("send", True, "a", "x")
        log.record("send", False, "b", "y")
        assert len(log) == 2

    def test_sequence_numbers_increase(self):
        log = AuditLog()
        log.record("send", True, "a", "x")
        e1 = log.last()
        log.record("send", True, "a", "y")
        e2 = log.last()
        assert e2.seq == e1.seq + 1

    def test_filter_by_category(self):
        log = AuditLog()
        log.record("send", True, "a", "x")
        log.record("export", False, "gw", "y")
        assert len(log.events(category="export")) == 1

    def test_filter_by_subject_and_allowed(self):
        log = AuditLog()
        log.record("send", True, "a", "x")
        log.record("send", False, "a", "y")
        log.record("send", False, "b", "z")
        assert len(log.events(subject="a", allowed=False)) == 1

    def test_denials_helper(self):
        log = AuditLog()
        log.record("send", True, "a", "x")
        log.record("send", False, "a", "y")
        assert [e.detail for e in log.denials()] == ["y"]

    def test_count(self):
        log = AuditLog()
        for __ in range(3):
            log.record("send", True, "a", "x")
        assert log.count(category="send") == 3
        assert log.count(category="send", allowed=False) == 0

    def test_last_and_clear(self):
        log = AuditLog()
        assert log.last() is None
        log.record("send", True, "a", "x")
        assert log.last().detail == "x"
        log.clear()
        assert len(log) == 0

    def test_capacity_bound(self):
        log = AuditLog(max_events=3)
        for i in range(10):
            log.record("send", True, "a", str(i))
        assert len(log) == 3
        assert [e.detail for e in log] == ["7", "8", "9"]

    def test_max_events_ring_counts_drops(self):
        log = AuditLog(max_events=3)
        assert log.max_events == 3
        for i in range(10):
            log.record("send", True, "a", str(i))
        assert len(log) == 3
        assert log.dropped == 7
        assert log.total_recorded == 10
        assert [e.detail for e in log] == ["7", "8", "9"]

    def test_unbounded_log_never_drops(self):
        log = AuditLog()
        for i in range(100):
            log.record("send", True, "a", str(i))
        assert len(log) == 100
        assert log.dropped == 0

    def test_ring_keeps_counters_whole(self):
        log = AuditLog(max_events=2)
        for i in range(5):
            log.record("send", i % 2 == 0, "a", str(i))
        # count() reflects only the retained window, by design
        assert log.count(category="send") == 2

    def test_extra_kwargs_stored(self):
        log = AuditLog()
        log.record("send", True, "a", "x", message_id=7)
        e = log.last()
        assert e.extra["message_id"] == 7
