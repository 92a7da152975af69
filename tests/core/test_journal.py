"""Unit tests for the write-ahead journal (PR 4 tentpole core)."""

import json
import zlib

import pytest

from repro.core.journal import (Journal, JournalCursor, decode_payload,
                                encode_payload)


class TestAppendRecover:
    def test_round_trip(self):
        j = Journal()
        j.append("a.one", {"x": 1})
        j.append("a.two", {"y": [1, 2]})
        records, report = Journal.recover(j.raw_bytes())
        assert [(r.seq, r.op, r.data) for r in records] == [
            (1, "a.one", {"x": 1}), (2, "a.two", {"y": [1, 2]})]
        assert report.truncated_bytes == 0
        assert report.truncation_reason == ""

    def test_empty_journal(self):
        records, report = Journal.recover(b"")
        assert records == [] and report.records == 0

    def test_seq_is_monotone_and_resets(self):
        j = Journal()
        j.append("op", {})
        j.append("op", {})
        assert j.seq == 2
        j.reset()
        assert j.seq == 0 and j.size_bytes == 0
        j.append("op", {})
        records, __ = Journal.recover(j.raw_bytes())
        assert [r.seq for r in records] == [1]

    def test_records_are_one_json_line_each(self):
        j = Journal()
        j.append("op", {"k": "v"})
        raw = bytes(j.raw_bytes())
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        parsed = json.loads(raw)
        assert set(parsed) == {"crc", "data", "op", "seq"}


class TestTornTail:
    def _journal(self):
        j = Journal()
        j.append("a", {"n": 1})
        j.append("b", {"n": 2})
        j.append("c", {"n": 3})
        return bytes(j.raw_bytes())

    def test_truncation_at_every_byte_offset(self):
        raw = self._journal()
        line_ends = [0]
        pos = 0
        for line in raw.splitlines(keepends=True):
            pos += len(line)
            line_ends.append(pos)
        for cut in range(len(raw) + 1):
            records, report = Journal.recover(raw[:cut])
            complete = max(e for e in line_ends if e <= cut)
            expected = sum(1 for e in line_ends[1:] if e <= cut)
            assert len(records) == expected, f"cut={cut}"
            assert report.truncated_bytes == cut - complete

    def test_bitflip_truncates_from_damage(self):
        raw = bytearray(self._journal())
        # flip a byte inside the second record's payload
        first_end = raw.index(b"\n") + 1
        target = raw.index(b'"n": 2') if b'"n": 2' in raw \
            else first_end + 20
        raw[target + 5] ^= 0x01
        records, report = Journal.recover(bytes(raw))
        assert len(records) == 1  # only the first record survives
        assert report.truncated_bytes > 0
        assert report.truncation_reason in ("checksum mismatch",
                                            "unparseable record")

    def test_garbage_line_truncates(self):
        raw = self._journal() + b"this is not json\n"
        records, report = Journal.recover(raw)
        assert len(records) == 3
        assert report.truncation_reason == "unparseable record"

    def test_sequence_gap_truncates(self):
        j = Journal()
        j.append("a", {})
        j.append("b", {})
        lines = bytes(j.raw_bytes()).splitlines(keepends=True)
        records, report = Journal.recover(lines[0] + lines[1] + lines[1])
        assert len(records) == 2
        assert "sequence gap" in report.truncation_reason

    def test_recovery_never_raises(self):
        for junk in (b"\x00\xff\n", b"{}\n", b'{"crc":"0"}\n',
                     b"\n\n\n", self._journal()[:-1] + b"\xf0"):
            Journal.recover(junk)  # must not raise


class TestPayloadTransport:
    def test_bytes_round_trip(self):
        blob = b"\x00\x01\xffbinary"
        encoded = encode_payload({"data": blob})
        json.dumps(encoded)  # journal lines must be pure JSON
        assert decode_payload(encoded) == {"data": blob}

    def test_nested_and_tuples(self):
        payload = {"a": [b"x", {"b": (1, 2)}]}
        out = decode_payload(encode_payload(payload))
        assert out == {"a": [b"x", {"b": [1, 2]}]}

    def test_unserializable_becomes_opaque_record(self):
        j = Journal()
        j.append("custom.op", {"fn": lambda: None})
        records, report = Journal.recover(j.raw_bytes())
        assert records[0].op == "journal.opaque"
        assert records[0].data["op"] == "custom.op"
        assert report.opaque_records == 1
        assert j.stats()["opaque_appends"] == 1


class TestStats:
    def test_counters(self):
        j = Journal(compact_threshold=64)
        assert not j.needs_compaction()
        j.append("op", {"payload": "x" * 100})
        assert j.needs_compaction()
        stats = j.stats()
        assert stats["appends"] == 1
        assert stats["bytes_written"] == j.size_bytes > 64
        j.reset()
        assert j.stats()["resets"] == 1
        assert not j.needs_compaction()

    def test_crc_is_crc32_of_line_minus_prefix(self):
        """The checksum covers the record exactly as written: the line
        bytes with the fixed-width crc prefix replaced by ``{``."""
        j = Journal()
        j.append("op", {"k": 1})
        raw = bytes(j.raw_bytes()).rstrip(b"\n")
        prefix = b'{"crc":"'
        assert raw.startswith(prefix)
        crc_hex = raw[len(prefix):len(prefix) + 8].decode()
        body = b"{" + raw[len(prefix) + 8 + 2:]  # skip '",' too
        assert crc_hex == format(zlib.crc32(body) & 0xFFFFFFFF, "08x")
        assert json.loads(raw)["crc"] == crc_hex


class TestCursorTailing:
    """The M15 tailing API: position/tail_from and cursor staleness."""

    def test_tail_from_current_position_is_empty(self):
        j = Journal()
        j.append("op", {"x": 1})
        cursor = j.position()
        assert j.tail_from(cursor) == []

    def test_tail_returns_only_records_past_cursor(self):
        j = Journal()
        j.append("a", {"n": 1})
        cursor = j.position()
        j.append("b", {"n": 2})
        j.append("c", {"n": 3})
        tail = j.tail_from(cursor)
        assert [(r.seq, r.op, r.data) for r in tail] == [
            (2, "b", {"n": 2}), (3, "c", {"n": 3})]

    def test_none_cursor_is_stale(self):
        j = Journal()
        assert j.tail_from(None) is None

    def test_one_reset_keeps_cursor_valid(self):
        """The epoch a cursor was minted in survives one reset: its
        tail is that epoch's remaining records, then the new epoch's."""
        j = Journal()
        j.append("a", {"n": 1})
        cursor = j.position()
        j.append("b", {"n": 2})
        j.reset()
        j.append("c", {"n": 3})
        assert j.lag(cursor) == 2
        tail = j.tail_from(cursor)
        assert [(r.seq, r.op, r.data) for r in tail] == [
            (2, "b", {"n": 2}), (1, "c", {"n": 3})]
        assert j.stats()["retained_bytes"] > 0
        # a cursor past the end of the kept epoch is still stale
        past = JournalCursor(j.journal_id, cursor.epoch, 3)
        assert j.tail_from(past) is None and j.lag(past) is None

    def test_two_resets_make_cursor_stale(self):
        j = Journal()
        j.append("a", {})
        cursor = j.position()
        j.reset()
        j.position()  # a cursor minted in the new epoch keeps it
        j.reset()
        assert j.tail_from(cursor) is None
        assert j.lag(cursor) is None
        # a fresh cursor works again
        j.append("b", {})
        assert j.tail_from(j.position()) == []

    def test_unread_epoch_is_not_kept(self):
        j = Journal()
        j.append("a", {"payload": "x" * 100})
        cursor = JournalCursor(j.journal_id, j.epoch, 0)
        j.reset()  # position() was never called in epoch 0
        assert j.stats()["retained_bytes"] == 0
        assert j.tail_from(cursor) is None

    def test_image_and_recovery_see_only_current_epoch(self):
        j = Journal(compact_threshold=64)
        j.append("a", {"payload": "x" * 100})
        j.position()
        j.reset()
        j.append("b", {"n": 1})
        assert j.stats()["retained_bytes"] > j.size_bytes
        assert j.size_bytes == len(j.raw_bytes())
        assert not j.needs_compaction()
        records, report = Journal.recover(j.raw_bytes())
        assert [(r.seq, r.op) for r in records] == [(1, "b")]
        assert report.truncated_bytes == 0

    def test_cursor_from_another_journal_is_stale(self):
        j1, j2 = Journal(), Journal()
        j1.append("a", {})
        j2.append("a", {})
        assert j2.tail_from(j1.position()) is None

    def test_future_cursor_is_stale(self):
        j = Journal()
        j.append("a", {})
        cursor = j.position()
        j2 = Journal()  # simulate a cursor from a longer history
        assert j2.tail_from(cursor) is None

    def test_tail_survives_payload_coercion(self):
        """Tail records decode exactly like recovered records do."""
        j = Journal()
        j.append("a", {"t": (1, 2)})
        cursor0 = JournalCursor(j.journal_id, j.epoch, 0)
        tail = j.tail_from(cursor0)
        recovered, __ = Journal.recover(j.raw_bytes())
        assert [(r.op, r.data) for r in tail] == \
            [(r.op, r.data) for r in recovered]
