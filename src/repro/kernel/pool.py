"""App-process recycling: a per-(name, labels, caps) pool in the kernel.

The §2 request pipeline launches one confined process per request and
destroys it afterwards.  That churn is pure overhead when the process
finishes *exactly* where it started — same secrecy, same integrity,
same capabilities — which is the common case for provider services and
for applications that answered without touching labeled data.  The
pool keeps such processes alive between requests: launch becomes a
list pop and teardown a scrub, instead of a fresh process-table entry
and a flow-cache invalidation each time.

Taint safety is the non-negotiable rule: **a process whose labels or
capabilities changed during a request is never returned to the pool.**
A floated/raised secrecy label means the process touched somebody's
data; reusing it for the next viewer would carry one request's taint
(and one request's privileges) into another's.  Such processes take
the ordinary :meth:`~repro.kernel.kernel.Kernel.exit` path, and the
``rejected_tainted`` counter makes the refusals observable.

Recycling is decision-invisible by construction:

* checkout and release emit the same audit categories (``spawn`` /
  ``exit``, flagged "recycled" in the detail) as real spawn/exit, so
  audit-derived counters agree with an unpooled kernel;
* request-scoped state — endpoints, mailbox, scratch locals, resource
  budgets — is scrubbed at release, so a reused process is
  indistinguishable from a fresh one to the next request (budgets are
  per-activation either way, via :meth:`ResourceHook.on_recycle`);
* labels and capabilities are *verified unchanged*, never reset, so
  the flow cache's per-subject verdicts stay valid across reuse — that
  is the performance point of pooling, and it is only sound because
  tainted processes are excluded.

The plane state machine (``tests/platform/test_plane_machine.py``)
compares pooled (fast) and unpooled (oracle) deployments request for
request, and checks that no idle process carries residual taint.
"""

from __future__ import annotations

from typing import Any, Optional

from ..labels import CapabilitySet, Label
from . import audit as A
from .process import Process


class ProcessPool:
    """Recycles trusted processes keyed by (name, labels, caps).

    Recycling runs on the kernel's fast plane.  On the oracle plane
    :meth:`checkout`/:meth:`release` are exact aliases for
    ``spawn_trusted``/``exit``, and the plane differential compares the
    two on the same call sites.  ``max_idle`` bounds each key's free
    list; overflow falls back to a real exit.
    """

    def __init__(self, kernel: Any, max_idle: int = 8) -> None:
        self.kernel = kernel
        self.enabled = kernel.plane == "fast"
        self.max_idle = max_idle
        self._idle: dict[tuple, list[Process]] = {}
        #: pid -> launch key for processes checked out of this pool.
        self._launch_keys: dict[int, tuple] = {}
        # observability
        self.reuses = 0
        self.fresh_spawns = 0
        self.recycled = 0
        self.rejected_tainted = 0
        self.evicted = 0

    # ------------------------------------------------------------------

    def checkout(self, name: str, slabel: Label = Label.EMPTY,
                 ilabel: Label = Label.EMPTY,
                 caps: CapabilitySet = CapabilitySet.EMPTY,
                 owner_user: Optional[str] = None) -> Process:
        """A process with exactly this launch state: pooled if one is
        idle under the key, freshly spawned otherwise.

        Reuse is audited as a ``spawn`` so decision-stream consumers
        (metrics, the differential tests) count launches identically
        with and without the pool.
        """
        tracer = self.kernel.tracer
        key = (name, slabel, ilabel, caps)
        # _fold gates detail sampling; checking it here (instead of
        # unconditionally calling tracer.detail) keeps the unsampled
        # steady state free of the kwargs/annotate setup below
        if tracer._fold:
            before = self.reuses
            with tracer.detail("kernel.checkout", process=name) as sp:
                proc = self._checkout_key(key, owner_user)
                sp.annotate(reused=self.reuses > before, pid=proc.pid)
                return proc
        return self._checkout_key(key, owner_user)

    def _checkout_key(self, key: tuple,
                      owner_user: Optional[str]) -> Process:
        name, slabel, ilabel, caps = key
        if self.enabled:
            bucket = self._idle.get(key)
            if bucket:
                proc = bucket.pop()
                proc.owner_user = owner_user
                self.reuses += 1
                self.kernel.audit.record_lazy(
                    A.SPAWN, True, "provider",
                    "trusted spawn %r pid=%d (recycled)",
                    (name, proc.pid), {"pid": proc.pid})
                return proc
        self.fresh_spawns += 1
        # the implementation, not the public wrapper: checkout's own
        # span already times the launch, so a nested kernel.spawn span
        # would only double-count it
        proc = self.kernel._spawn_trusted(name, slabel, ilabel, caps,
                                          owner_user)
        self._launch_keys[proc.pid] = key
        return proc

    def release(self, process: Process) -> bool:
        """Finish a request: pool the process if safe, else exit it.

        Returns True iff the process went back to the pool.  The safety
        gate is exact equality with the launch state — any label float,
        raise, lower, or capability change during the request (reads
        taint; received delegations grant) disqualifies reuse.
        """
        if not process.alive:
            # exited during the request (an app may exit itself)
            self._launch_keys.pop(process.pid, None)
            return False
        key = self._launch_keys.get(process.pid)
        if not self.enabled or key is None:
            self._launch_keys.pop(process.pid, None)
            self.kernel.exit(process)
            return False
        name, slabel, ilabel, caps = key
        if (process.slabel != slabel or process.ilabel != ilabel
                or process.caps != caps):
            # Tainted (or privilege-shifted): never reused.
            self.rejected_tainted += 1
            self._launch_keys.pop(process.pid, None)
            self.kernel.exit(process)
            return False
        bucket = self._idle.setdefault(key, [])
        if len(bucket) >= self.max_idle:
            self.evicted += 1
            self._launch_keys.pop(process.pid, None)
            self.kernel.exit(process)
            return False
        # Scrub every piece of request-scoped state.  Labels and caps
        # were just verified identical to launch, so the process comes
        # back in its launch label state.
        for ep in process.endpoints.values():
            ep.closed = True
            self.kernel._endpoints.pop(ep.endpoint_id, None)
        process.endpoints.clear()
        process.mailbox.clear()
        process.locals.clear()
        process.exit_value = None
        process.owner_user = None
        self.kernel.resources.on_recycle(process)
        self.recycled += 1
        self.kernel.audit.record_lazy(
            A.EXIT, True, process.name,
            "exit pid=%d (recycled)", (process.pid,), {"pid": process.pid})
        bucket.append(process)
        return True

    # ------------------------------------------------------------------

    def idle_count(self, name: Optional[str] = None) -> int:
        """Idle processes pooled (optionally for one process name)."""
        return sum(len(bucket) for key, bucket in self._idle.items()
                   if name is None or key[0] == name)

    def drain(self) -> int:
        """Exit every idle process (test/shutdown convenience)."""
        drained = 0
        for bucket in self._idle.values():
            for proc in bucket:
                self._launch_keys.pop(proc.pid, None)
                self.kernel.exit(proc)
                drained += 1
        self._idle.clear()
        return drained

    def stats(self) -> dict[str, Any]:
        """Counters for metrics/benchmarks."""
        return {
            "reuses": self.reuses,
            "fresh_spawns": self.fresh_spawns,
            "recycled": self.recycled,
            "rejected_tainted": self.rejected_tainted,
            "evicted": self.evicted,
            "idle": self.idle_count(),
        }
