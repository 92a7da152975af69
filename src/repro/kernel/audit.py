"""Audit log: the kernel's append-only record of security decisions.

W5 argues (§2) that users must be able to hold the provider to account;
the audit log is the mechanism.  Every flow decision, label change,
spawn, grant, and export attempt is recorded — allowed or denied — so
tests and benchmarks can assert not just on outcomes but on the
decisions that produced them.

A record is one plain row, ``(category, allowed, subject, template,
args, extra)``, appended to one bounded ring; nothing else is kept per
record but a lifetime ``(category, allowed)`` counter.  There is no
per-category index: a filtered query scans the ring.  Readers get
:class:`AuditEvent` views built from rows when they read, so the
request path allocates no event object.

The log is deliberately outside the label system: audit records are
provider-private and never flow back to applications.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Iterator, Optional

#: Event categories, used for filtering.
SPAWN = "spawn"
EXIT = "exit"
SEND = "send"
RECEIVE = "receive"
LABEL_CHANGE = "label_change"
GRANT = "grant"
TAG_CREATE = "tag_create"
ENDPOINT = "endpoint"
FILE_READ = "file_read"
FILE_WRITE = "file_write"
DB_QUERY = "db_query"
EXPORT = "export"
DECLASSIFY = "declassify"
RESOURCE = "resource"


class AuditEvent:
    """One security decision, as read from the log.

    The log stores rows, not events; an ``AuditEvent`` is a view built
    from a row (and its position, which gives ``seq``) each time the
    log is read.  Two reads of the same record return equal, distinct
    views.  Equality ignores ``extra`` (diagnostic payload, not
    identity).

    ``detail`` may arrive in deferred form: an interned %-template plus
    an ``args`` tuple of immutable values (strings, ints, interned
    labels).  The rendered string is produced on first access and
    cached in the view — equality, hashing, and ``repr`` all force it,
    so observable bytes are identical to eager formatting.  ``extra``
    is the row's dict when the record carried one; otherwise an empty
    dict is allocated on first access, local to the view.
    """

    __slots__ = ("seq", "category", "allowed", "subject",
                 "_detail", "_args", "_extra")

    def __init__(self, seq: int, category: str, allowed: bool,
                 subject: str, detail: str,
                 extra: Optional[dict[str, Any]] = None,
                 args: Optional[tuple] = None) -> None:
        self.seq = seq
        self.category = category
        self.allowed = allowed
        self.subject = subject          # acting process name (or "gateway")
        self._detail = detail
        self._args = args
        self._extra = extra

    @property
    def detail(self) -> str:
        args = self._args
        if args is not None:
            self._detail = self._detail % args
            self._args = None
        return self._detail

    @property
    def extra(self) -> dict[str, Any]:
        extra = self._extra
        if extra is None:
            extra = self._extra = {}
        return extra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEvent):
            return NotImplemented
        return (self.seq == other.seq
                and self.category == other.category
                and self.allowed == other.allowed
                and self.subject == other.subject
                and self.detail == other.detail)

    def __hash__(self) -> int:
        return hash((self.seq, self.category, self.allowed,
                     self.subject, self.detail))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ALLOW" if self.allowed else "DENY"
        return f"[{self.seq}] {verdict} {self.category} {self.subject}: {self.detail}"


def _view(seq: int, row: tuple) -> AuditEvent:
    category, allowed, subject, template, args, extra = row
    return AuditEvent(seq, category, allowed, subject, template, extra, args)


class AuditLog:
    """Append-only log of rows in one ring, with query helpers.

    ``max_events`` bounds the ring: once it is full, each record
    evicts the oldest row, counted in :attr:`dropped`.  Rows are
    numbered contiguously, so a row's ``seq`` follows from its
    position (the newest row's is :attr:`total_recorded`).  Queries —
    :meth:`events`, iteration, :meth:`last`, :meth:`count` — scan the
    retained ring; :meth:`lifetime_counts` counts every record ever
    made, whatever the ring kept.

    ``trace_source``, when set (the provider installs its ``Tracer``
    in tracing mode), is any object exposing a ``current`` span
    attribute (``.trace.trace_id`` / ``.span_id``); every record made
    while a span is open stamps its ``trace_id``/``span_id`` into the
    row's ``extra`` — the correlation hook that ties audit lines to
    request span trees (see :mod:`repro.obs`).
    """

    def __init__(self, max_events: Optional[int] = None,
                 lazy: bool = True) -> None:
        self._rows: deque[tuple] = deque(maxlen=max_events)
        self._seq = 0
        #: Rows removed by :meth:`clear` (not evictions).
        self._cleared = 0
        self._counts: Counter[tuple[str, bool]] = Counter()
        #: When False, :meth:`record_lazy` renders templates eagerly —
        #: the oracle plane's path, byte-identical either way.
        self.lazy = lazy
        #: Optional tracer-like object whose ``current`` attribute is
        #: the active span (or None).
        self.trace_source: Optional[Any] = None

    @property
    def max_events(self) -> Optional[int]:
        """The ring bound (None = unbounded)."""
        return self._rows.maxlen

    def record(self, category: str, allowed: bool, subject: str,
               detail: str, **extra: Any) -> None:
        """Append an event with a rendered detail."""
        _record_row(self, category, allowed, subject, detail, None,
                    extra or None)

    def record_lazy(self, category: str, allowed: bool, subject: str,
                    template: str, args: Optional[tuple] = None,
                    extra: Optional[dict[str, Any]] = None) -> None:
        """Append an event whose detail is ``template % args``.

        The hot-path spelling of :meth:`record`: no kwargs dict, no
        ``%`` call, no ``extra`` unless a trace is active or the caller
        supplied one — one row append and one counter bump.  ``args``
        values must be immutable (or interned) so the deferred render
        is byte-identical to an eager one.  With :attr:`lazy` off the
        template is rendered here — the differential suites prove both
        spellings emit the same bytes.
        """
        if not self.lazy and args is not None:
            template = template % args
            args = None
        ts = self.trace_source
        if ts is not None:
            cur = ts.current
            if cur is not None:
                if extra is None:
                    extra = {"trace_id": cur.trace.trace_id,
                             "span_id": cur.span_id}
                else:
                    extra["trace_id"] = cur.trace.trace_id
                    extra["span_id"] = cur.span_id
        self._seq += 1
        self._rows.append((category, allowed, subject, template, args,
                           extra))
        self._counts[category, allowed] += 1

    # -- queries -----------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including any the ring discarded."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events the ring bound evicted (0 while unbounded)."""
        return self._seq - self._cleared - len(self._rows)

    def lifetime_counts(self) -> Counter[tuple[str, bool]]:
        """The live ``(category, allowed) -> records ever made``
        counter: evictions and :meth:`clear` do not decrement it."""
        return self._counts

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[AuditEvent]:
        return (_view(seq, row) for seq, row in self._numbered())

    def _numbered(self) -> Iterator[tuple[int, tuple]]:
        return enumerate(self._rows, self._seq - len(self._rows) + 1)

    def _matching(self, category: Optional[str], subject: Optional[str],
                  allowed: Optional[bool]) -> Iterator[tuple[int, tuple]]:
        for seq, row in self._numbered():
            if category is not None and row[0] != category:
                continue
            if allowed is not None and row[1] != allowed:
                continue
            if subject is not None and row[2] != subject:
                continue
            yield seq, row

    def events(self, category: Optional[str] = None,
               subject: Optional[str] = None,
               allowed: Optional[bool] = None) -> list[AuditEvent]:
        """Retained events matching every given filter."""
        return [_view(seq, row)
                for seq, row in self._matching(category, subject, allowed)]

    def denials(self, category: Optional[str] = None) -> list[AuditEvent]:
        """All denied events, optionally in one category."""
        return self.events(category=category, allowed=False)

    def count(self, category: Optional[str] = None,
              allowed: Optional[bool] = None) -> int:
        """``len(self.events(category=..., allowed=...))``, counted
        over the retained ring without building views."""
        if category is None and allowed is None:
            return len(self._rows)
        return sum(1 for __ in self._matching(category, None, allowed))

    def last(self) -> Optional[AuditEvent]:
        return _view(self._seq, self._rows[-1]) if self._rows else None

    def clear(self) -> None:
        """Drop all retained events (test convenience; providers would
        archive).  Sequence numbers and lifetime counts carry on."""
        self._cleared += len(self._rows)
        self._rows.clear()


#: ``record`` enters the one row-append body through the function, not
#: the attribute, so a wrapper installed on ``AuditLog.record_lazy``
#: (an outside-in timer) sees one call per record.
_record_row = AuditLog.record_lazy
