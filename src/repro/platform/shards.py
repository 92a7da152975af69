"""Sharded concurrent request plane (M13).

PRs 1–6 made one provider's request path ~40–50× faster, but the
provider is still one Python object handling one request at a time.
This module scales *out* instead of *up*: a :class:`ShardedProvider`
partitions users across N full :class:`~repro.platform.provider.Provider`
shards — each with its own kernel, tag registry, audit log, process
pool, stores, plan cache and write-ahead journal (the M10 journal is
the per-shard log) — and routes every request to the shard that owns
its subject.

**Placement.**  A :class:`ShardMap` consistent-hash ring (vnode
replicas, stable blake2b points — never Python's randomized ``hash``)
assigns each username a shard.  Because every labeled partition key in
the M9 data plane is an interned ``(slabel, ilabel)`` pair whose tags
carry their owner, :meth:`ShardMap.shard_of_pair` derives the *data*
placement from the same ring: a partition lives on the shard of the
first (deterministically ordered) tag owner in its secrecy label.
Users are the unit of sharding, so a user's sessions, account row,
files, db partitions, grants, plans and journal records are all
shard-local by construction — shards share **no** mutable state, which
is what makes concurrent execution trivially linearizable per shard.

**Engines.**  Each shard is one single-threaded provider; the engine
only decides where it runs.  An engine does one thing: run a method
of the shard provider, or a picklable module-level function taking it
first, on shard k (``call``, ``fan_out``, ``broadcast``).  A batch is
:func:`_serve_batch` on every shard it touches and an audit read is
:func:`_audit_rows` (:func:`_audit_last` for the newest event); a
single request is a batch of one.

* ``serial`` — in-line on the caller, ascending shard order.  The
  deterministic baseline and the default at every shard count, so
  "sharding off" costs nothing over the classic plane.
* ``fork`` — one forked child process per shard, forked by ``start``
  (on the first request); until then it runs in-line, like serial.
  Each pipe message is ``(method, args, kwargs)`` or a stop, and each
  reply is a status and a result.  Both are pickled with
  :class:`_WirePickler`, so requests and responses cross as plain
  field tuples.  This is the engine that scales with cores under the
  GIL; ``benchmarks/m13_shards.py`` measures it.  It needs
  ``os.fork`` (POSIX).

**Deterministic merge.**  Each shard's audit stream is already
deterministic (per-shard seq order); :class:`MergedAuditView` merges
the streams by ``(shard, seq)`` — a total order independent of worker
scheduling — so the merged stream is byte-identical run-to-run and
engine-to-engine.  ``tests/platform/test_shard_differential.py``
proves: forked == serial at every shard count, and a 1-shard
``ShardedProvider`` == the classic ``ProviderConfig.fast()`` plane,
responses and audit streams both.
"""

from __future__ import annotations

import copyreg
import gc
import io
import os
import pickle
import traceback
from bisect import bisect_right
from dataclasses import fields
from functools import partial
from hashlib import blake2b
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..errors import ShardDown, W5Error
from ..kernel.audit import AuditEvent
from ..net import SESSION_COOKIE, HttpRequest, HttpResponse
from ..obs import NULL_TRACER, FlightRecorder, Tracer
from ..obs.fleet import RemoteCapture, _worst
from ..obs.histogram import merge_histograms
from ..obs.trace import TraceContext
from .config import ProviderConfig
from .provider import Provider

#: The SessionManager default seed (shard 0 keeps it; shard k adds k,
#: so no two shards ever mint the same session token).
_SESSION_SEED = 0x57515

#: Vnodes per shard on the :class:`ShardMap` ring.
_REPLICAS = 64

#: Params consulted, in order, to route an *anonymous* app request to
#: the shard owning the data it names (a locality heuristic only —
#: correctness never depends on it, since anonymous requests touch no
#: session state and every shard serves the same app catalog).
_ANON_USER_PARAMS = ("username", "user", "author", "owner")


class ShardMap:
    """Consistent-hash ring mapping owners to shards.

    ``_REPLICAS`` vnodes per shard smooth the distribution; points come
    from blake2b so placement is stable across processes and runs
    (Python's ``hash`` is randomized per interpreter).  Consistent
    hashing (vs ``hash % N``) keeps most placements stable when a
    future PR resizes the ring.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        ring = sorted(
            (self._point(f"shard:{shard}:{vnode}"), shard)
            for shard in range(n_shards) for vnode in range(_REPLICAS))
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    @staticmethod
    def _point(key: str) -> int:
        digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def shard_of(self, key: str) -> int:
        """The shard owning an arbitrary string key."""
        if self.n_shards == 1:
            return 0
        i = bisect_right(self._points, self._point(key))
        if i == len(self._points):
            i = 0
        return self._owners[i]

    def shard_of_user(self, username: str) -> int:
        """The shard that is ``username``'s home."""
        return self.shard_of(f"user:{username}")

    def shard_of_pair(self, slabel: Any, ilabel: Any) -> int:
        """Placement of an interned ``(slabel, ilabel)`` partition key.

        The M9 data plane partitions every table by this pair; each
        user-data tag carries its owner, so the pair's placement is the
        ring position of its first owner (owners sorted for
        determinism — in practice user-data labels carry exactly one
        owned tag).  Unowned pairs (public/unlabeled data) land on
        shard 0, where they are replicated state anyway.
        """
        for label in (slabel, ilabel):
            owners = sorted(t.owner for t in label if t.owner)
            if owners:
                return self.shard_of_user(owners[0])
        return 0

    def distribution(self, keys: Sequence[str]) -> list[int]:
        """Shard population for ``keys`` (ring-quality diagnostics)."""
        counts = [0] * self.n_shards
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts


# ----------------------------------------------------------------------
# execution engines
# ----------------------------------------------------------------------

#: What a control call names: a dotted method path on the shard's
#: provider, or a picklable function taking the provider first (a
#: module-level function, or ``attrgetter`` to read an attribute).
Method = Union[str, Callable[..., Any]]


def _resolve(provider: Provider, method: Method) -> Callable[..., Any]:
    """``"declass.grant_for"`` → the bound method on ``provider``; a
    function → that function with ``provider`` as its first argument."""
    if callable(method):
        return partial(method, provider)
    obj: Any = provider
    for part in method.split("."):
        obj = getattr(obj, part)
    return obj


def _placement(shard: Provider, ring: ShardMap, k: int) -> tuple[int, int]:
    """``(partitions, misplaced)`` over shard ``k``'s M9 partition keys,
    checked against the ring where the partitions live."""
    partitions = misplaced = 0
    for table in shard.db._tables.values():
        for slabel, ilabel in getattr(table, "partitions", None) or ():
            partitions += 1
            # unowned pairs are replicated state, at home anywhere;
            # owned pairs must live on their ring shard
            if any(t.owner for t in slabel) \
                    and ring.shard_of_pair(slabel, ilabel) != k:
                misplaced += 1
    return partitions, misplaced


class _SerialEngine:
    """In-line execution, ascending shard order: the deterministic
    schedule the fork engine must reproduce per shard.

    Every engine operation is one thing: run a :data:`Method` on shard
    ``k``.  Requests ride :func:`_serve_batch` and audit reads
    :func:`_audit_rows` under both engines, so serial is fork minus the
    pipe.
    """

    name = "serial"

    def __init__(self, shards: list[Provider]) -> None:
        #: The shard providers held in this process (``None`` once a
        #: fork engine's children hold them).
        self.shards: Optional[list[Provider]] = shards
        self.n_shards = len(shards)

    def start(self) -> None:
        """Make the shards ready to serve (the fork engine forks)."""

    def fan_out(self, method: Method, args: dict[int, tuple],
                kwargs: Optional[dict] = None) -> list[Any]:
        """``method(*args[k], **kwargs)`` on each shard ``k`` in
        ``args``; the results, in ``args`` order."""
        providers = self.shards
        kwargs = kwargs or {}
        return [_resolve(providers[k], method)(*a, **kwargs)
                for k, a in args.items()]

    def call(self, shard: int, method: Method,
             args: tuple = (), kwargs: Optional[dict] = None) -> Any:
        return self.fan_out(method, {shard: args}, kwargs)[0]

    def broadcast(self, method: Method, args: tuple = ()) -> list[Any]:
        return self.fan_out(method, dict.fromkeys(range(self.n_shards),
                                                  args))

    def shutdown(self) -> None:
        pass


#: A request or response reduced to a plain tuple of its fields, in
#: declaration order; ``HttpRequest(*plain)`` rebuilds it.  Derived
#: from the dataclass, so a new field cannot be dropped.
_plain_request = attrgetter(*(f.name for f in fields(HttpRequest)))
_plain_response = attrgetter(*(f.name for f in fields(HttpResponse)))


class _WirePickler(pickle.Pickler):
    """The fork engine's pickler: requests and responses, wherever they
    sit in a message, cross as plain field tuples, not as pickled
    dataclasses.  A 128-request batch then pickles in half the time
    and half the bytes (232 µs and 6.2 kB against 488 µs and 12.0 kB
    on CPython 3.11), and a request does not carry the
    ``_parts_cache`` the router's ``path_parts`` left on it."""

    dispatch_table = {
        **copyreg.dispatch_table,
        HttpRequest: lambda req: (HttpRequest, _plain_request(req)),
        HttpResponse: lambda resp: (HttpResponse, _plain_response(resp)),
    }


def _dumps(message: Any) -> bytes:
    buf = io.BytesIO()
    _WirePickler(buf).dump(message)
    return buf.getvalue()


def _serve_batch(shard: Provider, requests: list[HttpRequest],
                 ctx: Optional[TraceContext]
                 ) -> tuple[list[HttpResponse], list[dict]]:
    """Serve one shard's sub-batch: its responses, and the span
    skeletons of the traces it finished.

    With a :class:`~repro.obs.TraceContext` from the router's open
    ``router.batch`` span (and tracing on), every trace this shard
    finishes for the sub-batch inherits the router's sampling decision
    and comes back as a skeleton dict for the router to graft (M16),
    never silently lost to the process boundary.  Otherwise the
    skeleton list is empty.
    """
    tracer = shard.kernel.tracer
    if ctx is None or not tracer.enabled:
        return shard.handle_batch(requests), []
    with RemoteCapture(tracer, ctx) as capture:
        responses = shard.handle_batch(requests)
    return responses, capture.skeletons


def _row(e: AuditEvent) -> tuple:
    """``e`` as ``AuditEvent`` arguments: the detail is rendered to a
    str and ``extra`` holds only ints and strs (trace stamps, ids)."""
    return (e.seq, e.category, e.allowed, e.subject, e.detail, e.extra)


def _audit_rows(shard: Provider) -> list[tuple]:
    """The shard's retained audit stream as :func:`_row` tuples."""
    return [_row(e) for e in shard.kernel.audit]


def _audit_last(shard: Provider) -> Optional[tuple]:
    """The shard's newest retained audit event as a :func:`_row`
    tuple, or None on an empty log."""
    e = shard.kernel.audit.last()
    return None if e is None else _row(e)


def _transportable_exc(exc: BaseException) -> BaseException:
    """The exception itself when picklable, else a W5Error replica."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return W5Error(f"{type(exc).__name__}: {exc}")


def _fork_worker(shard: Provider, conn: Any) -> None:
    """The child process loop: one shard, one pipe.  Each message is
    ``(method, args, kwargs)`` to run on the shard, or ``None`` to
    stop."""
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if message is None:
            conn.send_bytes(_dumps(("ok", True)))
            return
        method, args, kwargs = message
        try:
            reply = ("ok", _resolve(shard, method)(*args, **kwargs))
        except BaseException as exc:
            reply = ("err", _transportable_exc(exc))
        try:
            frame = _dumps(reply)
        except Exception as exc:
            # the result would not pickle: answer with an error, never
            # a silent None
            name = getattr(method, "__name__", method)
            frame = _dumps(("err", W5Error(
                f"{name} returned an unpicklable "
                f"{type(reply[1]).__name__}: {exc}")))
        conn.send_bytes(frame)


class _ForkEngine(_SerialEngine):
    """One forked child process per shard, pickled pipe RPC.

    The only engine that scales with cores under the GIL.  Until
    :meth:`start` forks, it is the serial engine: everything run before
    then (signups, enables, grants) runs in the parent, and every child
    inherits it for free.  Once the children run, the parent drops
    ``shards``: each child holds the only copy of its shard, so nothing
    in the router can read stale state.  A child that has died surfaces
    as :class:`~repro.errors.ShardDown` naming its shard (there is no
    respawn).
    """

    name = "fork"

    def __init__(self, shards: list[Provider]) -> None:
        if not hasattr(os, "fork"):  # pragma: no cover - platform gate
            raise W5Error("the fork shard engine needs os.fork (POSIX); "
                          "use engine='serial' here")
        super().__init__(shards)
        self._conns: Optional[list[Any]] = None
        self._pids: list[int] = []

    def start(self) -> None:
        if self._conns is not None:
            return
        if self.shards is None:
            raise W5Error("this fork deployment was shut down")
        import multiprocessing
        conns = []
        for shard in self.shards:
            parent, child = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:  # child
                # Move the inherited heap to the permanent generation:
                # the child's full collections then walk only what it
                # allocates, not every object the parent built (nor
                # copy-on-write fault those pages).  The cost: inherited
                # objects that later become cyclic garbage are never
                # collected here, bounded by the inherited heap, whose
                # pages the child shares with the parent anyway.  Never
                # in the parent: it would keep every discarded
                # deployment alive.
                gc.freeze()
                parent.close()
                # the router's ends of the earlier siblings' pipes: kept
                # open here, they would hide the router's exit from
                # those siblings until this child exited too
                for sibling in conns:
                    sibling.close()
                try:
                    _fork_worker(shard, child)
                finally:
                    os._exit(0)
            child.close()
            conns.append(parent)
            self._pids.append(pid)
        self._conns = conns
        self.shards = None

    def _send(self, shard: int, message: Optional[tuple]) -> None:
        frame = _dumps(message)
        try:
            self._conns[shard].send_bytes(frame)  # type: ignore[index]
        except OSError as exc:  # the child closed its end: it is gone
            # the failed send's frames hold the pickled message;
            # whoever keeps this ShardDown must not keep that
            traceback.clear_frames(exc.__traceback__)
            raise ShardDown(shard, type(exc).__name__) from exc

    def _recv(self, shard: int) -> Any:
        try:
            frame = self._conns[shard].recv_bytes()  # type: ignore[index]
        except (EOFError, OSError) as exc:
            raise ShardDown(shard, type(exc).__name__) from exc
        status, payload = pickle.loads(frame)
        if status == "err":
            try:
                raise payload
            finally:
                payload = None  # the traceback holds this frame
        return payload

    def fan_out(self, method: Method, args: dict[int, tuple],
                kwargs: Optional[dict] = None) -> list[Any]:
        """Send every shard its call before reading any reply (the
        children overlap), then the replies in order.  A failure — a
        dead shard or an error raised in a child — propagates only
        after every other reply is read, so the pipes stay in step.

        The raised failure's traceback holds this frame, so the local
        naming it is cleared on the way out: a frame–exception cycle
        would live until a collection."""
        if self._conns is None:
            if self.shards is None:
                raise W5Error("this fork deployment was shut down")
            # not forked yet: run here, and the children inherit it
            return super().fan_out(method, args, kwargs)
        kwargs = kwargs or {}
        failure: Optional[Exception] = None
        sent = []
        for shard, shard_args in args.items():
            try:
                self._send(shard, (method, shard_args, kwargs))
                sent.append(shard)
            except Exception as exc:  # no reply will come for this call
                failure = failure or exc
        replies = {}
        for shard in sent:
            try:
                replies[shard] = self._recv(shard)
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            try:
                raise failure
            finally:
                failure = None
        return [replies[shard] for shard in args]

    def shutdown(self) -> None:
        if self._conns is None:
            return
        for shard, conn in enumerate(self._conns):
            try:
                self._send(shard, None)
                self._recv(shard)
            except ShardDown:
                pass
            conn.close()
        for pid in self._pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self._conns = None
        self._pids = []


_ENGINES: dict[str, Any] = {
    "serial": _SerialEngine,
    "fork": _ForkEngine,
}


# ----------------------------------------------------------------------
# merged observability
# ----------------------------------------------------------------------

class MergedAuditView:
    """The sharded deployment's audit stream, merged by ``(shard, seq)``.

    Within a shard, events are already totally ordered by ``seq``; the
    merge concatenates shard streams in shard order — a deterministic
    total order independent of worker scheduling, so the merged stream
    is byte-identical between the serial and fork engines on the
    same per-shard request order.  Exposes the read side of the
    :class:`~repro.kernel.audit.AuditLog` query API; it is a *view* —
    every read re-merges live shard state.
    """

    def __init__(self, owner: "ShardedProvider") -> None:
        self._owner = owner

    def per_shard(self) -> list[list[AuditEvent]]:
        """Each shard's stream, in shard order, rebuilt from the rows
        :func:`_audit_rows` renders on the shard."""
        return [[AuditEvent(*row) for row in rows]
                for rows in self._owner._engine.broadcast(_audit_rows)]

    def __iter__(self) -> Iterator[AuditEvent]:
        for stream in self.per_shard():
            yield from stream

    def __len__(self) -> int:
        return self.count()

    def events(self, category: Optional[str] = None,
               subject: Optional[str] = None,
               allowed: Optional[bool] = None) -> list[AuditEvent]:
        out = []
        for e in self:
            if category is not None and e.category != category:
                continue
            if subject is not None and e.subject != subject:
                continue
            if allowed is not None and e.allowed != allowed:
                continue
            out.append(e)
        return out

    def denials(self, category: Optional[str] = None) -> list[AuditEvent]:
        return self.events(category=category, allowed=False)

    def count(self, category: Optional[str] = None,
              allowed: Optional[bool] = None) -> int:
        """Each shard's :meth:`AuditLog.count`, summed: only the
        counts cross the fork engine's pipe, never the streams."""
        return sum(self._owner._engine.broadcast(
            "kernel.audit.count", (category, allowed)))

    def last(self) -> Optional[AuditEvent]:
        """The merged stream's last event: the newest row of the last
        shard whose log is not empty.  One row per shard crosses the
        fork engine's pipe."""
        for row in reversed(self._owner._engine.broadcast(_audit_last)):
            if row is not None:
                return AuditEvent(*row)
        return None


class _ShardedKernelView:
    """The slice of the kernel surface a front end can meaningfully
    merge: today, the audit stream (``W5System.audit()`` reads it)."""

    def __init__(self, owner: "ShardedProvider") -> None:
        self.audit = MergedAuditView(owner)


class _ShardedDeclassView:
    """Routes the declassification reads W5System's sugar needs to the
    owning shard (e.g. ``declass.grant_for(user, name)``)."""

    def __init__(self, owner: "ShardedProvider") -> None:
        self._owner = owner

    def grant_for(self, username: str, name: str) -> Any:
        return self._owner._user_call(username, "declass.grant_for",
                                      username, name)


# ----------------------------------------------------------------------
# the front end
# ----------------------------------------------------------------------

class ShardedProvider:
    """N full providers behind one router.

    Quacks like a :class:`Provider` for the surfaces W5System, the
    external clients and the benchmarks use: ``handle_request`` /
    ``handle_batch`` / ``transport``, the user-policy verbs (routed to
    the owning shard), app registration (broadcast — every shard
    serves the whole catalog), and merged observability
    (``kernel.audit``, ``trace_report``, ``stats``).

    Routing: ``/signup`` and ``/login`` go by the ``username`` param;
    authenticated requests go by session cookie (the front end records
    token → shard when a login response passes through); anonymous
    requests go by a user-naming param when present, else by path
    hash.  At 1 shard, routing short-circuits entirely — the classic
    plane with a dictionary's worth of indirection removed, which is
    the "no regression when sharding is off" guarantee the M13
    benchmark pins.
    """

    def __init__(self, name: str = "w5", n_shards: int = 2,
                 config: Optional[ProviderConfig] = None,
                 engine: Optional[str] = None,
                 js_policy: str = "block",
                 rate_limit: Optional[int] = None,
                 audit_max_events: Optional[int] = None,
                 tracing: bool = False,
                 resources_factory: Optional[Callable[[], Any]] = None
                 ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        base = config if config is not None else ProviderConfig.fast()
        if engine is None:
            engine = base.shard_engine
        if engine not in _ENGINES:
            raise ValueError(f"unknown shard engine {engine!r} "
                             f"(have {sorted(_ENGINES)})")
        #: The deployment-level config (records the shard count).
        self.config = base.replace(shards=n_shards, shard_engine=engine)
        per_shard = base.replace(shards=1, shard_engine="serial")
        self.name = name
        self.n_shards = n_shards
        self.map = ShardMap(n_shards)
        # The shard providers, handed to the engine (see ``shards``).
        # Shard 0 keeps the default session seed (a 1-shard deployment
        # is byte-identical to the classic plane); shard k seeds with
        # base+k so tokens never collide.
        shards: list[Provider] = []
        for k in range(n_shards):
            shards.append(Provider(
                name=name,
                resources=(resources_factory() if resources_factory
                           else None),
                js_policy=js_policy,
                rate_limit=rate_limit,
                audit_max_events=audit_max_events,
                tracing=tracing,
                config=per_shard,
                session_seed=None if k == 0 else _SESSION_SEED + k))
        self.engine_name = engine
        self._engine = _ENGINES[engine](shards)
        #: The router's own tracer (M16): cross-shard batches open a
        #: ``router.batch`` root here, export its context to every
        #: shard they fan out to, and graft the returned span
        #: skeletons — so the router recorder holds the *stitched*
        #: causal tree spanning every shard a batch touched.
        self.tracing = tracing
        if tracing:
            self.tracer: Any = Tracer()
            self.recorder: Optional[FlightRecorder] = FlightRecorder()
            self.tracer.sink = self.recorder.offer
        else:
            self.tracer = NULL_TRACER
            self.recorder = None
        self._token_shard: dict[str, int] = {}
        #: Requests routed per shard (front-end side, any engine).
        self.routed: list[int] = [0] * n_shards
        self.kernel = _ShardedKernelView(self)
        self.declass = _ShardedDeclassView(self)

    @property
    def shards(self) -> list[Provider]:
        """The shard providers held in this process: every shard under
        ``serial``; under ``fork`` only until the children start, after
        which each child holds the only copy of its shard.  Ask a shard
        through :meth:`shard_call` instead."""
        shards = self._engine.shards
        if shards is None:
            raise W5Error("the fork engine's shards run in its children; "
                          "ask them through shard_call")
        return shards

    # -- routing -------------------------------------------------------

    def shard_for(self, request: HttpRequest) -> int:
        """The shard this request must execute on."""
        if self.n_shards == 1:
            return 0
        parts = request.path_parts()
        if parts and parts[0] in ("signup", "login"):
            username = request.params.get("username")
            if username is not None:
                return self.map.shard_of_user(username)
        token = request.cookies.get(SESSION_COOKIE)
        if token:
            shard = self._token_shard.get(token)
            if shard is not None:
                return shard
            # unknown token (e.g. replay after front-end restart):
            # deterministic fallback; the shard answers auth errors
            # exactly as the unsharded plane would
            return self.map.shard_of(f"token:{token}")
        for key in _ANON_USER_PARAMS:
            named = request.params.get(key)
            if isinstance(named, str) and named:
                return self.map.shard_of_user(named)
        return self.map.shard_of(f"path:{request.path}")

    # -- the request plane ---------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """One request, as a batch of one."""
        return self._run_batch([request], None)[0]

    def handle_batch(self, requests: Sequence[HttpRequest]
                     ) -> list[HttpResponse]:
        """Fan a burst out across shards (satellite 2).

        Requests are grouped by owning shard *preserving per-shard
        arrival order*, each group runs through the shard's own
        ``handle_batch`` (its ordinary per-request pipeline; the fork
        engine runs the groups concurrently), and responses reassemble
        in request order — so the result is position-for-position
        identical to sequential dispatch.  At 1 shard the serial
        engine skips routing entirely.
        """
        requests = list(requests)
        if self.n_shards == 1 and self.engine_name == "serial":
            self.routed[0] += len(requests)
            return self.shards[0].handle_batch(requests)
        tracer = self.tracer
        if not tracer.enabled:
            return self._run_batch(requests, None)
        # fleet tracing (M16): one router.batch root per batch; every
        # shard's spans come back as skeletons and graft under it, in
        # (shard, per-shard arrival) order — the same deterministic
        # total order as the audit merge
        with tracer.request("router.batch", n=len(requests)):
            responses = self._run_batch(requests, tracer.export_context())
        return responses

    def _run_batch(self, requests: list[HttpRequest],
                   ctx: Optional[TraceContext]) -> list[HttpResponse]:
        engine = self._engine
        engine.start()  # the fork engine forks on the first request
        groups: dict[int, list[HttpRequest]] = {}
        slots: dict[int, list[int]] = {}
        assignment = []
        shard_for = self.shard_for
        for i, request in enumerate(requests):
            shard = shard_for(request)
            assignment.append(shard)
            groups.setdefault(shard, []).append(request)
            slots.setdefault(shard, []).append(i)
        for shard, grouped in groups.items():
            self.routed[shard] += len(grouped)
        ordered = sorted(groups)
        replies = engine.fan_out(_serve_batch, {
            shard: (groups[shard], ctx) for shard in ordered})
        responses: list[Optional[HttpResponse]] = [None] * len(requests)
        for shard, (resps, __) in zip(ordered, replies):
            for i, resp in zip(slots[shard], resps):
                responses[i] = resp
        if ctx is not None:
            tracer = self.tracer
            tracer.annotate(shards=len(groups))
            for shard, (__, skeletons) in zip(ordered, replies):
                for skeleton in skeletons:
                    tracer.graft(f"shard:{shard}", skeleton)
        if self.n_shards == 1:
            return responses  # type: ignore[return-value]
        # track session tokens: a minted cookie maps to the shard that
        # minted it, and a logout forgets its token
        token_shard = self._token_shard
        for i, request in enumerate(requests):
            response = responses[i]
            if response.set_cookies:
                token = response.set_cookies.get(SESSION_COOKIE)
                if token:
                    token_shard[token] = assignment[i]
            parts = request.path_parts()
            if parts and parts[0] == "logout":
                token_shard.pop(
                    request.cookies.get(SESSION_COOKIE, ""), None)
        return responses  # type: ignore[return-value]

    def transport(self):
        """The function external clients use as their network."""
        return self.handle_request

    # -- control plane (routed / broadcast) ----------------------------

    def shard_call(self, shard: int, method: Method,
                   *args: Any, **kwargs: Any) -> Any:
        """Run ``method`` on one shard through the engine: a dotted
        method name on its provider (``"kernel.resources.total"``) or
        a picklable function taking the provider first (such as
        ``attrgetter("apps")``).  Under the fork engine it runs in the
        shard's child, and the result comes back pickled: a copy, not
        the live object."""
        return self._engine.call(shard, method, args, kwargs)

    def _user_call(self, username: str, method: str,
                   *args: Any, **kwargs: Any) -> Any:
        """Run a per-user verb on the user's home shard."""
        return self.shard_call(self.map.shard_of_user(username), method,
                               *args, **kwargs)

    def shard_of_user(self, username: str) -> int:
        return self.map.shard_of_user(username)

    def signup(self, username: str, password: str) -> Any:
        return self._user_call(username, "signup", username, password)

    def account(self, username: str) -> Any:
        return self._user_call(username, "account", username)

    def set_profile(self, username: str, **fields: str) -> None:
        return self._user_call(username, "set_profile", username, **fields)

    def enable_app(self, username: str, app_name: str,
                   **kwargs: Any) -> Any:
        return self._user_call(username, "enable_app", username,
                               app_name, **kwargs)

    def disable_app(self, username: str, app_name: str) -> None:
        return self._user_call(username, "disable_app", username, app_name)

    def prefer_module(self, username: str, slot: str, module: str) -> None:
        return self._user_call(username, "prefer_module", username,
                               slot, module)

    def grant_declassifier(self, username: str, declassifier: Any) -> Any:
        return self._user_call(username, "grant_declassifier", username,
                               declassifier)

    def grant_builtin_declassifier(self, username: str, name: str,
                                   config: Optional[dict] = None) -> Any:
        return self._user_call(username, "grant_builtin_declassifier",
                               username, name, config)

    def update_declassifier_config(self, username: str, name: str,
                                   **changes: Any) -> Any:
        return self._user_call(username, "update_declassifier_config",
                               username, name, **changes)

    def set_integrity_policy(self, username: str, require: bool) -> None:
        return self._user_call(username, "set_integrity_policy",
                               username, require)

    def set_js_policy(self, username: str, policy: str) -> None:
        return self._user_call(username, "set_js_policy", username, policy)

    def pin_audited(self, username: str, app_name: str,
                    version: str) -> None:
        return self._user_call(username, "pin_audited", username,
                               app_name, version)

    def unpin_audited(self, username: str, app_name: str) -> None:
        return self._user_call(username, "unpin_audited", username,
                               app_name)

    def store_user_data(self, username: str, filename: str,
                        data: Any) -> Any:
        return self._user_call(username, "store_user_data", username,
                               filename, data)

    def read_user_data(self, username: str, filename: str) -> Any:
        return self._user_call(username, "read_user_data", username,
                               filename)

    def delete_account(self, username: str) -> None:
        return self._user_call(username, "delete_account", username)

    def register_app(self, module: Any) -> Any:
        """Broadcast: every shard serves the whole app catalog (apps
        are code, not user state — only *data* is partitioned)."""
        return self._engine.broadcast("register_app", (module,))[0]

    def endorse_module(self, name: str) -> Any:
        return self._engine.broadcast("endorse_module", (name,))[0]

    # -- merged observability ------------------------------------------

    @property
    def apps(self) -> Any:
        """The app catalog: shard 0's registry, asked of shard 0
        through the engine (registration broadcasts, so every shard
        holds the same catalog).  Under the fork engine it is a copy
        pickled in shard 0's child; register through
        :meth:`register_app`, not through the copy."""
        return self.shard_call(0, attrgetter("apps"))

    @property
    def usage_edges(self) -> list:
        """Every shard's observed (app, module) usage, in shard order.
        Read through the engine: a request records its edge on the
        shard that served it, in a child process under the fork
        engine."""
        return [edge for edges in self._engine.broadcast("usage_edges.copy")
                for edge in edges]

    def merged_audit(self) -> MergedAuditView:
        """The deterministic ``(shard, seq)`` merge of every shard's
        audit stream (also available as ``.kernel.audit``)."""
        return self.kernel.audit

    def placement_report(self) -> dict[str, Any]:
        """Verify data placement against the ring: each shard walks its
        own M9 partition keys (in its child under the fork engine) and
        checks that the owning shard derived from the interned
        ``(slabel, ilabel)`` pair is itself."""
        report: dict[str, Any] = {"shards": self.n_shards,
                                  "partitions": 0, "misplaced": 0}
        for k in range(self.n_shards):
            partitions, misplaced = self.shard_call(k, _placement,
                                                    self.map, k)
            report["partitions"] += partitions
            report["misplaced"] += misplaced
        return report

    def trace_report(self) -> dict[str, Any]:
        """The deployment's *merged* trace report (M16).

        ``stats``/``latencies``/``histograms`` are exact merges across
        every shard plus the router itself (histograms merge
        bucket-wise from the shards' snapshots through
        :func:`~repro.obs.histogram.merge_histograms`, the helper
        :class:`~repro.obs.FleetRegistry` uses, so the numbers are
        identical whether the shards ran in-process or behind the fork
        engine's pipe).  ``router`` carries the router tracer's own
        counters and its flight recorder — whose ``router.batch``
        traces are the stitched cross-shard trees, one root per batch
        with every request's subtree grafted under it.
        """
        shard_reports = self._engine.broadcast("trace_report")
        tracing = self.tracer.enabled or bool(
            shard_reports and shard_reports[0].get("tracing"))
        if not tracing:
            return {"tracing": False}
        stats = {"traces_started": 0, "traces_finished": 0,
                 "spans_dropped": 0}
        sources = [r for r in shard_reports if r.get("tracing")]
        if self.tracer.enabled:
            sources.append({"stats": self.tracer.stats(),
                            "histograms": self.tracer.histograms()})
        for report in sources:
            for key in stats:
                stats[key] += report["stats"].get(key, 0)
        merged = merge_histograms(r.get("histograms", {}) for r in sources)
        report: dict[str, Any] = {
            "tracing": True,
            "stats": stats,
            "latencies": {name: hist.as_dict()
                          for name, hist in merged.items()},
            "histograms": {name: hist.snapshot()
                           for name, hist in merged.items()},
        }
        if self.tracer.enabled and self.recorder is not None:
            report["router"] = {"stats": self.tracer.stats(),
                                "recorder": self.recorder.dump()}
        return report

    def health_report(self) -> dict[str, Any]:
        """Per-shard readiness gauges rolled up (M16): each shard's
        :meth:`Provider.health_report` (journal lag, pool occupancy,
        plan-cache hit ratio, audit drops) under the worst state.
        Each shard is asked on its own, so a dead one reads ``down``
        instead of failing the whole report."""
        shard_reports = []
        for k in range(self.n_shards):
            try:
                shard_reports.append(self._engine.call(k, "health_report"))
            except ShardDown as exc:
                shard_reports.append({"state": "down",
                                      "reasons": [str(exc)], "gauges": {}})
        return {
            "state": _worst(r["state"] for r in shard_reports),
            "shards": shard_reports,
            "router": {"engine": self.engine_name,
                       "routed": list(self.routed),
                       "tokens_tracked": len(self._token_shard)},
        }

    def stats(self) -> dict[str, Any]:
        """The router's own counters plus every shard's
        :meth:`Provider.stats` tree under ``per_shard``, asked of the
        shard itself (the child, under the fork engine)."""
        return {
            "shards": self.n_shards,
            "engine": self.engine_name,
            "routed": list(self.routed),
            "tokens_tracked": len(self._token_shard),
            "per_shard": self._engine.broadcast("stats"),
        }

    def shutdown(self) -> None:
        """Stop workers (forked children reaped).
        Idempotent; serial deployments are a no-op."""
        self._engine.shutdown()

    def __enter__(self) -> "ShardedProvider":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedProvider({self.name!r}, shards={self.n_shards}, "
                f"engine={self.engine_name!r})")
