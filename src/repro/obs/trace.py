"""Request tracing: span trees with propagated context.

W5's accountability story (paper §2) needs more than the audit log's
flat stream of decisions: one ``Provider.handle_request`` call fans
out into dozens of flow checks, a pool checkout, IPC hops, db scans
and an export check, and nothing ties them back to the request that
caused them.  The classical fix (X-Trace, Dapper) is a per-request
**trace context** carried through every layer; this module is that
context for the in-process W5 stack.

* :class:`Span` — one timed operation (monotonic clock), with a name
  drawn from the span taxonomy (``gateway.admission``,
  ``kernel.checkout``, ``db.select``, …), key=value attributes, and
  child spans nested
  under it.  Spans are context managers; an exception propagating
  through one marks it ``status="error"`` and re-raises.
* :class:`Trace` — the tree for one request: root span, id, and a
  per-trace span budget so a pathological request can't balloon
  memory (overflow is counted, never silently lost).
* :class:`Tracer` — owns the active trace context, hands out child
  spans, aggregates per-span-name
  :class:`~repro.obs.histogram.LatencyHistogram` s, and feeds finished
  traces to an attached :class:`~repro.obs.recorder.FlightRecorder`.
  The active-trace state (open trace, innermost span, fold flag) is
  three plain tracer attributes: every provider, shard and router
  owns its own tracer and runs single-threaded, so the state needs
  no per-thread isolation and no locks.
* :class:`NullTracer` / :data:`NULL_TRACER` — the disabled path.  It
  shares the ``enabled`` flag protocol so hot code can guard with one
  attribute load, and every method returns a preallocated singleton —
  tracing off means **zero allocations** on the request path.

Correlation with the audit log: the provider installs the tracer
itself as ``AuditLog.trace_source``; the log reads ``tracer.current``
(one attribute load, no call) so every ``AuditEvent`` recorded inside
a traced request carries ``trace_id``/``span_id`` in ``extra``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .histogram import LatencyHistogram

#: Per-trace span budget.  A blog read needs ~10 spans; 512 is room
#: for the most fan-out-heavy request while bounding a runaway loop.
MAX_SPANS_PER_TRACE = 512

class TraceContext(NamedTuple):
    """The wire form of an open span: what crosses a shard or
    federation boundary (M16).

    Deliberately tiny and picklable — it rides the fork engine's pipe
    frames unchanged.  The remote side opens its own root trace under
    this context (:class:`repro.obs.fleet.RemoteCapture`); ``fold``
    pins the sampling decision so a detail-sampled request is
    detail-sampled on every shard it touches, and an unsampled one
    stays cheap everywhere.
    """

    #: The originating trace's id (unique per tracer, not globally;
    #: stitched exports qualify it with the origin name).
    trace_id: str
    #: The span the remote subtree re-parents under.
    span_id: int
    #: The origin's detail-sampling decision, inherited remotely.
    fold: bool


#: Default child-histogram sampling period: 1-in-16 traces fold their
#: child spans into the per-name latency histograms (root spans always
#: fold, so request-level percentiles stay exact).  Folding every span
#: of every trace costs a dict probe + histogram add per span — real
#: money on a ~70µs request; sampling keeps per-name shapes while
#: amortizing that to ~nothing (benchmarks/m11_tracing.py).
FOLD_EVERY = 16


class Span:
    """One timed operation inside a trace.

    Children attach at creation (so the tree exists even if rendering
    happens mid-request); timing happens in the context-manager
    protocol.  ``duration`` is ``None`` until the span closes.
    """

    __slots__ = ("name", "span_id", "trace", "_children", "attrs",
                 "start", "duration", "status", "_prev")

    def __init__(self, name: str, trace: "Trace",
                 parent: Optional["Span"], attrs: dict[str, Any]) -> None:
        self.name = name
        self.trace = trace
        # children hold the tree; no parent back-pointer is stored, so
        # a closed span tree is acyclic and dies by refcount instead
        # of waiting for the cycle collector.  The list itself is
        # lazy: most spans are leaves, and skipping the allocation is
        # measurable (benchmarks/m11_tracing.py)
        self._children: Optional[list[Span]] = None
        self.attrs = attrs
        self.duration: Optional[float] = None
        self.status = "ok"
        trace.n_spans = n = trace.n_spans + 1
        self.span_id = n
        self._prev = parent
        if parent is not None:
            pc = parent._children
            if pc is None:
                parent._children = [self]
            else:
                pc.append(self)
        # the span is born armed: the context switch and the clock
        # read happen here rather than in __enter__, saving a second
        # full method call's worth of work per span on the hot path
        trace.tracer.current = self
        self.start = perf_counter()

    @property
    def children(self) -> tuple["Span", ...]:
        """Child spans in creation order (empty for leaves)."""
        c = self._children
        return tuple(c) if c else ()

    def annotate(self, **attrs: Any) -> None:
        """Attach key=value attributes after the span opened."""
        self.attrs.update(attrs)

    def fail(self, reason: str) -> None:
        """Mark this span (and its trace) failed without an exception
        in flight — for denials handled inline, like an export refusal
        turned into a 403."""
        self.status = "error"
        self.attrs.setdefault("error", reason)
        self.trace.failed = True

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # the request-path hot spot: everything inlined (histogram
        # fold, root finalization) to keep enabled-tracing overhead
        # inside the M11 budget — see benchmarks/m11_tracing.py
        duration = perf_counter() - self.start
        self.duration = duration
        trace = self.trace
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
            trace.failed = True
        tracer = trace.tracer
        tracer.current = prev = self._prev
        self._prev = None  # drop the ancestor edge (GC, see __init__)
        # only the root span has no previous current span
        if prev is None and self is trace.root:
            # root spans always fold: request-level histograms stay
            # exact even when child folding is sampled
            hists = tracer._histograms
            hist = hists.get(self.name)
            if hist is None:
                hist = hists[self.name] = LatencyHistogram()
            hist.add(duration)
            tracer._trace = None
            tracer.traces_finished += 1
            sink = tracer.sink
            if sink is not None:
                sink(trace)
        else:
            if tracer._fold:
                hists = tracer._histograms
                hist = hists.get(self.name)
                if hist is None:
                    hist = hists[self.name] = LatencyHistogram()
                hist.add(duration)
            # closed non-root spans never need the up-edge again;
            # dropping it leaves root -> children as a pure tree
            self.trace = None  # type: ignore[assignment]
        # never suppress: tracing must not change control flow

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.duration * 1e6:.1f}us" if self.duration else "open"
        return f"Span({self.name!r}, {dur}, children={len(self.children)})"


class _NullSpan:
    """The do-nothing span.  One instance serves every disabled site."""

    __slots__ = ()
    name = "null"
    span_id = 0
    duration: Optional[float] = None
    status = "ok"
    children: tuple = ()
    attrs: dict = {}

    def annotate(self, **attrs: Any) -> None:
        pass

    def fail(self, reason: str) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared no-op span: returned whenever tracing is off, no trace is
#: active, or the per-trace span budget is exhausted.
_NULL_SPAN = _NullSpan()


class Trace:
    """The span tree for one request."""

    __slots__ = ("trace_id", "tracer", "root", "n_spans",
                 "truncated", "failed", "grafts")

    def __init__(self, trace_id: str, tracer: "Tracer") -> None:
        self.trace_id = trace_id
        self.tracer = tracer
        self.n_spans = 0
        self.truncated = 0
        #: Latched by any span closing with an exception in flight.
        self.failed = False
        self.root: Optional[Span] = None
        #: Remote span skeletons stitched under this trace's spans:
        #: ``(parent_span_id, origin, skeleton_dict)`` tuples appended
        #: by :meth:`Tracer.graft` (M16).  Lazily allocated — local
        #: traces never pay for the slot.
        self.grafts: Optional[list[tuple[int, str, dict]]] = None

    @property
    def name(self) -> str:
        return self.root.name if self.root is not None else "?"

    @property
    def duration(self) -> float:
        if self.root is None or self.root.duration is None:
            return 0.0
        return self.root.duration

    @property
    def error(self) -> bool:
        """Did this request fail?  True if any span closed with an
        exception in flight (latched into :attr:`failed` at span
        close — mutating ``span.status`` after the fact does not
        retroactively flag the trace) or the response status stamped
        by the provider was a client/server error."""
        if self.failed:
            return True
        root = self.root
        if root is None:
            return False
        status = root.attrs.get("status")
        return isinstance(status, int) and status >= 400

    def walk(self) -> Iterator[Span]:
        """All spans, depth-first from the root."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            c = span._children
            if c:
                stack.extend(reversed(c))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Trace({self.trace_id}, {self.name!r}, "
                f"spans={self.n_spans})")


class Tracer:
    """Owns the active trace and aggregates span latency histograms.

    The active-span "stack" is the :attr:`current` attribute: each
    span's ``__exit__`` restores its predecessor by plain attribute
    store.  A tracer serves one single-threaded provider (each shard
    and the shard router own their own), so nothing is shared.
    """

    enabled = True

    def __init__(self, max_spans: int = MAX_SPANS_PER_TRACE,
                 fold_every: int = FOLD_EVERY) -> None:
        self.max_spans = max_spans
        #: Child-span histogram sampling: every ``fold_every``-th trace
        #: folds its child spans into the per-name histograms (roots
        #: always fold, so request-level latency stays exact).  1 means
        #: every span of every trace — what the unit tests use.
        self.fold_every = fold_every
        #: The innermost open span (public: ``AuditLog.trace_source``
        #: reads it to stamp events).
        self.current: Optional[Span] = None
        #: The open trace, or None between requests.
        self._trace: Optional[Trace] = None
        #: Is the active trace detail-sampled?  Hot call sites read it
        #: as an attribute (a plain ``False`` on :class:`NullTracer`).
        self._fold = False
        self._next_trace = 0
        self._histograms: dict[str, LatencyHistogram] = {}
        #: Called with each finished root trace (FlightRecorder.offer).
        self.sink: Optional[Callable[[Trace], None]] = None
        #: The upstream :class:`TraceContext` while this tracer serves
        #: a remote parent (set by ``repro.obs.fleet.RemoteCapture``):
        #: new roots inherit its fold decision instead of rolling
        #: their own, so sampling is consistent fleet-wide.
        self._remote: Optional[TraceContext] = None
        self.traces_started = 0
        self.traces_finished = 0
        self.spans_dropped = 0

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------

    def request(self, name: str, /, **attrs: Any) -> Span:
        """Open the root span of a new trace.

        Nested calls (an app invoking another app through the same
        provider) degrade gracefully to a child span of the active
        trace rather than starting a second trace.
        """
        if self._trace is not None:
            return self.span(name, **attrs)
        self._next_trace += 1
        self.traces_started += 1
        remote = self._remote
        if remote is not None:
            # serving a remote parent: inherit its sampling decision
            self._fold = remote.fold
        else:
            fe = self.fold_every
            self._fold = fe == 1 or self.traces_started % fe == 1
        self._trace = trace = Trace(f"{self._next_trace:08x}", self)
        trace.root = span = Span(name, trace, None, attrs)
        return span

    def span(self, name: str, /, **attrs: Any):
        """Open a child span under the current one.

        Outside any trace (setup work, untraced maintenance calls)
        this returns the shared null span, so instrumentation sites
        don't need their own "is a request in flight" checks.
        """
        trace = self._trace
        if trace is None:
            return _NULL_SPAN
        if trace.n_spans >= self.max_spans:
            trace.truncated += 1
            self.spans_dropped += 1
            return _NULL_SPAN
        return Span(name, trace, self.current, attrs)

    def detail(self, name: str, /, **attrs: Any):
        """Open a child span only on detail-sampled traces.

        Structural spans (:meth:`span`) appear in every trace; detail
        spans ride the same 1-in-``fold_every`` sampling as child
        histogram folds, so the sampled traces carry the fully
        annotated tree while the steady-state request path pays one
        flag check.  The first trace always samples, which is what the
        integration tests and the example lean on.
        """
        if not self._fold:
            return _NULL_SPAN
        trace = self._trace
        if trace is None:
            return _NULL_SPAN
        if trace.n_spans >= self.max_spans:
            trace.truncated += 1
            self.spans_dropped += 1
            return _NULL_SPAN
        return Span(name, trace, self.current, attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to whatever span is currently open."""
        current = self.current
        if current is not None:
            current.attrs.update(attrs)

    # ------------------------------------------------------------------
    # context / finalization
    # ------------------------------------------------------------------

    def current_ids(self) -> Optional[tuple[str, int]]:
        """(trace_id, span_id) of the active span, for audit stamping."""
        current = self.current
        if current is None:
            return None
        return (current.trace.trace_id, current.span_id)

    def export_context(self) -> Optional[TraceContext]:
        """The active span as a wire-form :class:`TraceContext` (M16).

        ``None`` outside a trace.  The result is what crosses a shard
        engine or federation link; the far side runs its work under a
        ``RemoteCapture`` window against this context and ships span
        skeletons back for :meth:`graft`.
        """
        current = self.current
        if current is None:
            return None
        return TraceContext(current.trace.trace_id, current.span_id,
                            self._fold)

    def graft(self, origin: str, skeleton: dict) -> None:
        """Stitch a remote span skeleton under the current span (M16).

        ``skeleton`` is a ``trace_to_dict`` dump produced on another
        tracer (another shard or federation peer); ``origin`` names
        where it ran (``"shard:2"``, an envelope channel name).  The
        graft is recorded against the *currently open* span and merged
        into the exported tree by ``trace_to_dict`` — the hot span
        close path never sees it.  Outside a trace this is a no-op
        (the skeleton survives in the remote side's own recorder).
        """
        current = self.current
        trace = self._trace
        if current is None or trace is None:
            return
        grafts = trace.grafts
        if grafts is None:
            grafts = trace.grafts = []
        grafts.append((current.span_id, origin, skeleton))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def latencies(self) -> dict[str, dict[str, float]]:
        """Per-span-name latency stats (count, mean, p50/p95/p99...)."""
        return {name: h.as_dict()
                for name, h in sorted(self._histograms.items())}

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        return self._histograms.get(name)

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Every span name's live histogram (the dict is a copy)."""
        return dict(self._histograms)

    def stats(self) -> dict[str, int]:
        return {
            "traces_started": self.traces_started,
            "traces_finished": self.traces_finished,
            "spans_dropped": self.spans_dropped,
        }


class NullTracer:
    """The tracing-off implementation: every path is a no-op.

    Hot call sites guard with ``if tracer.enabled:`` (one attribute
    load on a shared singleton); cooler per-request sites just do
    ``with tracer.span(...):`` — entering :data:`_NULL_SPAN` costs two
    empty method calls and allocates nothing.
    """

    enabled = False
    current = None
    #: Mirrors ``Tracer._fold`` so hot call sites can guard their
    #: detail-span setup (kwargs, counters) with one attribute load
    #: that is False whenever tracing is off.
    _fold = False
    #: Mirrors ``Tracer._remote`` (always None: nothing to inherit).
    _remote = None

    def request(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def detail(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        pass

    def current_ids(self) -> None:
        return None

    def export_context(self) -> None:
        return None

    def graft(self, origin: str, skeleton: dict) -> None:
        pass

    def latencies(self) -> dict[str, dict[str, float]]:
        return {}

    def histogram(self, name: str) -> None:
        return None

    def histograms(self) -> dict[str, Any]:
        return {}

    def stats(self) -> dict[str, int]:
        return {"traces_started": 0, "traces_finished": 0,
                "spans_dropped": 0}


#: Process-wide disabled tracer: the default value of
#: ``Kernel.tracer`` so instrumentation sites never need None checks.
NULL_TRACER = NullTracer()
