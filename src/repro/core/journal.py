"""The durability journal: checksummed JSON-lines, replayable.

A W5 provider that snapshots its whole deployment on every deploy pays
O(total state) per snapshot — the trap the M10 experiment measures.
The journal makes durability **incremental**: every durable mutation
(account lifecycle, policy grants, fs and db writes, tag creation)
appends one record here, and recovery becomes *base snapshot + replay*
instead of *latest full snapshot*.  The journal is also the only
incremental artifact: the operator's delta snapshot
(``Provider.snapshot_incremental``) is this image since the last
checkpoint, and federation cursors tail the same records.

Record format (one record per line, pure JSON)::

    {"crc": "9a2b3c4d", "data": {...}, "op": "fs.write", "seq": 17}\n

An epoch that extends a checkpoint starts with one header line naming
it, checksummed the same way::

    {"crc": "0c1d2e3f", "base": "5f0e...c4"}\n

so the journal bytes themselves say which full snapshot they extend,
and a fold over any other one is refused (``recover_provider``).

* ``seq`` is a monotone sequence number starting at 1 after each
  compaction; a gap or regression means corruption and truncates the
  journal there.
* ``crc`` is the CRC-32 (zlib, 8 hex digits) of the line bytes with
  the fixed-width ``{"crc":"xxxxxxxx",`` prefix replaced by ``{`` —
  i.e. of the record exactly as serialized, minus the checksum field
  itself.  Verification is a byte slice + crc32, never a
  re-serialization, so a flipped byte or a torn write is detected
  without trusting the line to parse at all.
* ``data`` is op-specific and must be JSON-representable; binary
  payloads are transported via :func:`encode_payload` (base64-tagged),
  and anything beyond that degrades to an ``journal.opaque`` marker
  (counted, reported at recovery) rather than poisoning the log.

**Torn-tail semantics**: :meth:`Journal.recover` reads records until
the first line that is incomplete (no trailing newline), unparseable,
checksum-mismatched, or out of sequence, *truncates there*, and
returns everything before it.  A crash mid-``append`` therefore loses
at most the record being written — never a prefix, never a suffix
re-ordering — which is what makes base+replay reproduce a full restore
byte for byte (``tests/platform/test_journal_replay.py``).

The journal is storage-agnostic: it maintains its byte image in
memory (``raw_bytes``), exactly what a real deployment would ``write``
+ ``fsync`` per record; tests crash it by slicing that image at every
offset.
"""

from __future__ import annotations

import base64
import itertools
import json
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import W5Error

__all__ = ["Journal", "JournalCursor", "JournalError", "JournalRecord",
           "ReplayReport", "encode_payload", "decode_payload"]


class JournalError(W5Error):
    """A journal invariant was violated (not a recoverable torn tail)."""


#: Byte length of the fixed-width line prefix ``{"crc":"xxxxxxxx",``.
_CRC_PREFIX_LEN = len(b'{"crc":"00000000",')


#: One compact encoder for every record: ``json.dumps`` with
#: non-default separators builds a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _body(seq: int, op: str, data: dict[str, Any]) -> str:
    return _encode({"seq": seq, "op": op, "data": data})


def _line(raw: bytes) -> bytes:
    """One journal line: ``raw`` (a JSON object) with its CRC-32
    spliced in as the fixed-width first field."""
    return b'{"crc":"%08x",' % (zlib.crc32(raw) & 0xFFFFFFFF) \
        + raw[1:] + b"\n"


@dataclass(frozen=True)
class JournalRecord:
    """One verified durable mutation."""

    seq: int
    op: str
    data: dict[str, Any]


@dataclass(frozen=True)
class JournalCursor:
    """A resumable position in one journal's history (M15).

    Consumers that *tail* the journal — the federation delta-sync
    plane — hold one of these per (user, peer) and ask for
    :meth:`Journal.tail_from` it.  A cursor is only meaningful against
    the exact journal instance it was minted from, and only for one
    compaction:

    * ``journal_id`` is a process-unique instance id, so a cursor
      taken against a provider that has since been rebuilt (crash
      recovery replaces the Journal object) can never silently alias
      the new journal's sequence numbers;
    * ``epoch`` counts :meth:`Journal.reset` calls — every compaction
      or checkpoint folds the journaled history into the base
      snapshot and restarts ``seq`` at 0.  The journal keeps the
      epoch that just ended as a read-only segment when a cursor was
      minted in it, so a cursor from the previous epoch still tails;
      one from two or more epochs back points at history that no
      longer exists as records.

    ``Journal.tail_from`` returns ``None`` for a stale cursor instead
    of guessing; the consumer must fall back to a full resync (the
    federation plane's content-based reconciler) and mint a fresh
    cursor.  That is what makes cursor reattachment after provider
    failure *safe* rather than merely optimistic.
    """

    journal_id: int
    epoch: int
    seq: int


@dataclass
class ReplayReport:
    """What :meth:`Journal.recover` found in a raw journal image."""

    records: int = 0
    #: Bytes dropped from the tail (0 on a clean shutdown).
    truncated_bytes: int = 0
    #: Why the tail was truncated ("" when it was not).
    truncation_reason: str = ""
    #: ``journal.opaque`` markers seen (mutations whose payload could
    #: not be journaled; their state is only in full snapshots).
    opaque_records: int = 0
    #: The checkpoint id the header names (``None`` when the image
    #: has no complete header).
    base: Optional[str] = None


# -- payload transport ------------------------------------------------------

#: JSON-native leaf types that pass through untouched.
_NATIVE = (type(None), bool, int, float, str)


def encode_payload(value: Any) -> Any:
    """Make ``value`` JSON-representable, reversibly.

    ``bytes``/``bytearray`` become ``{"__w5b64__": "..."}``; tuples
    become lists (the same coercion a snapshot→JSON→restore round trip
    applies); dicts and lists recurse.  Anything else raises
    ``TypeError`` — the caller downgrades the record to an opaque
    marker rather than losing the whole journal.
    """
    if isinstance(value, _NATIVE):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__w5b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            if k == "__w5b64__":
                raise TypeError("reserved key __w5b64__")
            out[k] = encode_payload(v)
        return out
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    raise TypeError(f"unjournalable payload of type {type(value).__name__}")


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload` (tuples come back as lists)."""
    if isinstance(value, dict):
        if set(value) == {"__w5b64__"}:
            return base64.b64decode(value["__w5b64__"])
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


def _parse_tail(buf: bytearray, offsets: list[int],
                seq: int) -> list[JournalRecord]:
    """Parse the records after ``seq`` out of one epoch's image.  The
    slice is decoded straight from a view, so it is copied once."""
    if seq == len(offsets):
        return []
    with memoryview(buf) as view:
        text = str(view[offsets[seq]:], "utf-8")
    records = []
    for line in text.splitlines():
        obj = json.loads(line)
        records.append(JournalRecord(seq=obj["seq"], op=obj["op"],
                                     data=obj["data"]))
    return records


class Journal:
    """An append-only, checksummed, replayable mutation log."""

    #: Process-unique instance ids (see :class:`JournalCursor`).
    _ids = itertools.count(1)

    def __init__(self, compact_threshold: int = 1 << 20) -> None:
        #: Compaction trigger: once the image exceeds this many bytes,
        #: the next incremental snapshot escalates to a full one and
        #: resets the journal (see DurabilityManager).
        self.compact_threshold = compact_threshold
        #: Identity for cursors: never reused within a process.
        self.journal_id = next(Journal._ids)
        #: Bumped on every :meth:`reset`; cursors from before the
        #: previous epoch are stale (their history was folded into the
        #: base snapshot and no segment of it is kept).
        self.epoch = 0
        self._buf = bytearray()
        #: Bytes of the header line at the front of ``_buf``.
        self._head_len = 0
        self._seq = 0
        #: Byte offset where each record's line starts:
        #: ``_offsets[k]`` is the offset of the record with seq
        #: ``k + 1``.  One int per record, so tailing is an O(new
        #: records) parse — never a rescan of the whole image.
        self._offsets: list[int] = []
        #: Whether :meth:`position` minted a cursor this epoch; only
        #: then does :meth:`reset` keep the epoch for tailing.
        self._cursor_minted = False
        #: The previous epoch as a read-only ``(epoch, buf, offsets)``
        #: segment, kept for cursors minted in it.  Never part of the
        #: recoverable image: ``raw_bytes``, ``size_bytes`` and
        #: ``needs_compaction`` see the current epoch only.
        self._kept: Optional[tuple[int, bytearray, list[int]]] = None
        self._stats = {"appends": 0, "bytes_written": 0,
                       "opaque_appends": 0, "resets": 0}
        #: ``journal.opaque`` records in the current epoch.
        self.epoch_opaque = 0

    # -- writing -----------------------------------------------------------

    def append(self, op: str, data: dict[str, Any]) -> None:
        """Append one durable mutation.

        ``data`` is encoded via :func:`encode_payload`; a payload that
        cannot be encoded is replaced by a ``journal.opaque`` marker
        (op preserved inside) so the log structure survives — recovery
        reports it and the state it covered lives only in snapshots.
        """
        seq = self._seq + 1
        try:
            # Fast path: most payloads are already JSON-native, so one
            # encode call both validates and serializes them.  Tuples
            # serialize as lists here, matching encode_payload.
            body = _body(seq, op, data)
        except (TypeError, ValueError):
            try:
                encoded = encode_payload(data)
            except TypeError as exc:
                self._stats["opaque_appends"] += 1
                self.epoch_opaque += 1
                encoded = {"op": op, "why": str(exc)}
                op = "journal.opaque"
            body = _body(seq, op, encoded)
        self._seq = seq
        line = _line(body.encode("utf-8"))
        self._offsets.append(len(self._buf))
        self._buf += line
        self._stats["appends"] += 1
        self._stats["bytes_written"] += len(line)

    def reset(self, base: Optional[str] = None) -> None:
        """Start a fresh epoch (at a checkpoint: everything the journal
        recorded is now in the base).  With ``base``, the epoch's
        image starts with a header naming that checkpoint.  The
        ending epoch is kept for tailing if a cursor was minted in it,
        replacing any older kept epoch, so cursors minted before the
        reset stay valid for exactly one reset."""
        self._kept = (self.epoch, self._buf, self._offsets) \
            if self._cursor_minted else None
        self._cursor_minted = False
        self._buf = bytearray() if base is None else bytearray(
            _line(_encode({"base": base}).encode("ascii")))
        self._head_len = len(self._buf)
        self._stats["bytes_written"] += self._head_len
        self._seq = 0
        self._offsets = []
        self.epoch_opaque = 0
        self.epoch += 1
        self._stats["resets"] += 1

    # -- reading -----------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def needs_compaction(self) -> bool:
        """Whether the epoch's records (its header aside) outgrew the
        compaction threshold."""
        return len(self._buf) - self._head_len > self.compact_threshold

    def raw_bytes(self) -> bytes:
        """The byte image a real deployment would have on disk."""
        return bytes(self._buf)

    def text(self) -> str:
        """The same image as text.  Every line is ASCII (JSON escapes
        any other character), so ``text().encode("ascii")`` equals
        :meth:`raw_bytes`."""
        return self._buf.decode("ascii")

    # -- tailing (M15: incremental consumers) ------------------------------

    def position(self) -> JournalCursor:
        """The current end-of-log cursor: ``tail_from(position())`` is
        empty until the next append."""
        self._cursor_minted = True
        return JournalCursor(self.journal_id, self.epoch, self._seq)

    def _segments(self, cursor: Optional[JournalCursor]
                  ) -> Optional[list[tuple[bytearray, list[int], int]]]:
        """The ``(buf, offsets, seq)`` segments holding the records
        after ``cursor``, oldest first, or ``None`` if it is stale.
        The one staleness rule behind :meth:`tail_from` and
        :meth:`lag`."""
        if cursor is None or cursor.journal_id != self.journal_id:
            return None
        if cursor.epoch == self.epoch:
            segments = [(self._buf, self._offsets, cursor.seq)]
        elif self._kept is not None and cursor.epoch == self._kept[0]:
            __, buf, offsets = self._kept
            segments = [(buf, offsets, cursor.seq),
                        (self._buf, self._offsets, 0)]
        else:
            return None
        if cursor.seq > len(segments[0][1]):
            return None  # past the end of its epoch
        return segments

    def tail_from(self, cursor: Optional[JournalCursor]
                  ) -> Optional[list[JournalRecord]]:
        """Every record appended after ``cursor``, in append order, or
        ``None`` if the cursor is stale: a different journal instance,
        an epoch two or more resets back (or one back whose segment
        was not kept), or a seq its epoch never reached — any of which
        means the history the cursor points into no longer exists as
        records and the consumer must fall back to a full resync.
        A cursor from the kept previous epoch gets that epoch's
        records past it, then every record of the current epoch.

        Cost is O(records past the cursor): the per-record offset
        index turns the tail into one byte-slice parse per segment.
        Records come back with their journaled (JSON-coerced)
        payloads; consumers that need live objects treat them as
        *pointers* into current state, not as the state itself.
        """
        segments = self._segments(cursor)
        if segments is None:
            return None
        records: list[JournalRecord] = []
        for buf, offsets, seq in segments:
            records += _parse_tail(buf, offsets, seq)
        return records

    def lag(self, cursor: Optional[JournalCursor]) -> Optional[int]:
        """How many records :meth:`tail_from` would return for
        ``cursor`` (``None`` exactly when it would return ``None``),
        without parsing them."""
        segments = self._segments(cursor)
        if segments is None:
            return None
        return sum(len(offsets) - seq for __, offsets, seq in segments)

    def stats(self) -> dict[str, int]:
        return {**self._stats, "seq": self._seq,
                "size_bytes": len(self._buf),
                "retained_bytes": 0 if self._kept is None
                else len(self._kept[1]),
                "compact_threshold": self.compact_threshold}

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def recover(raw: bytes) -> tuple[list[JournalRecord], ReplayReport]:
        """Parse a (possibly torn) journal image.

        Returns every verified record before the first sign of damage,
        plus a report saying how many tail bytes were dropped and why,
        and the checkpoint id a complete header names.  Damage never
        raises: a journal is exactly as good as its longest verifiable
        prefix.
        """
        records: list[JournalRecord] = []
        report = ReplayReport()
        offset = 0
        expect = 1
        while offset < len(raw):
            nl = raw.find(b"\n", offset)
            if nl < 0:
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "torn record (no newline)"
                break
            line = raw[offset:nl]
            try:
                obj = json.loads(line)
                crc = obj.pop("crc")
                header = offset == 0 and obj.keys() == {"base"}
                if header:
                    if not isinstance(obj["base"], str):
                        raise ValueError("bad header")
                else:
                    seq, op, data = obj["seq"], obj["op"], obj["data"]
                    if not isinstance(seq, int) \
                            or not isinstance(op, str) \
                            or not isinstance(data, dict):
                        raise ValueError("bad field types")
            except (ValueError, KeyError, UnicodeDecodeError):
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "unparseable record"
                break
            body = b"{" + line[_CRC_PREFIX_LEN:]
            if not line.startswith(b'{"crc":"') or crc != format(
                    zlib.crc32(body) & 0xFFFFFFFF, "08x"):
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "checksum mismatch"
                break
            if header:
                report.base = obj["base"]
                offset = nl + 1
                continue
            if seq != expect:
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = (
                    f"sequence gap (expected {expect}, found {seq})")
                break
            if op == "journal.opaque":
                report.opaque_records += 1
            records.append(JournalRecord(seq=seq, op=op, data=data))
            report.records += 1
            expect += 1
            offset = nl + 1
        return records, report
