"""Resource containers: metering and quotas (§3.5).

"Processes must be limited to reasonable amounts of disk, network,
memory and CPU usage, lest rogue applications degrade the performance
of the W5 cluster."  The paper points at resource containers (Banga et
al., OSDI'99); this module is that idea sized to the simulator: every
kernel syscall, message, file byte and database row charges the acting
process's container, and a container over quota refuses with
:class:`~repro.kernel.errors.ResourceExhausted`.

Quotas attach at two granularities:

* per-process defaults — the backstop every spawn gets;
* per-principal overrides keyed by process-name prefix (``app:vandal``)
  — how a provider throttles one misbehaving application without
  touching the rest, demonstrated in experiment C9.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional

from ..kernel import Process, ResourceHook
from ..kernel.errors import ResourceExhausted

#: Resource kinds the kernel and stores charge.
KINDS = ("syscalls", "messages", "endpoints", "tags", "processes",
         "disk", "disk_read", "db_queries", "db_rows", "db_rows_scanned",
         "requests")

_STANDARD_KINDS = frozenset(KINDS)


class Usage:
    """Cumulative consumption for one process activation, or, in
    :class:`ResourceManager`'s history, for every retired activation of
    one process name.

    ``__slots__``-backed per-kind attributes for the standard
    :data:`KINDS` (one attribute store instead of a dict probe per
    charge — the M14 batched-charge layer); non-standard kinds fall
    back to an on-demand dict.  :attr:`counts` remains available as a
    reconstructed mapping view for reporting.
    """

    __slots__ = KINDS + ("_extra",)

    def __init__(self) -> None:
        # unrolled (one request = one fresh Usage; a setattr loop over
        # KINDS costs more than every charge the request will make)
        self.syscalls = self.messages = self.endpoints = self.tags = \
            self.processes = self.disk = self.disk_read = \
            self.db_queries = self.db_rows = self.db_rows_scanned = \
            self.requests = 0.0
        self._extra: Optional[dict[str, float]] = None

    def get(self, kind: str) -> float:
        if kind in _STANDARD_KINDS:
            return getattr(self, kind)
        extra = self._extra
        return extra.get(kind, 0.0) if extra else 0.0

    def set(self, kind: str, value: float) -> None:
        if kind in _STANDARD_KINDS:
            setattr(self, kind, value)
        else:
            extra = self._extra
            if extra is None:
                extra = self._extra = {}
            extra[kind] = value

    def add(self, kind: str, amount: float) -> float:
        value = self.get(kind) + amount
        self.set(kind, value)
        return value

    @property
    def counts(self) -> dict[str, float]:
        out = {}
        for kind in KINDS:
            value = getattr(self, kind)
            if value:
                out[kind] = value
        if self._extra:
            out.update(self._extra)
        return out


class ResourceManager(ResourceHook):
    """A :class:`ResourceHook` with quotas and accounting.

    ``default_quotas`` maps kind → per-process ceiling (absent = ∞).
    ``overrides`` maps a process-name prefix to its own quota table;
    the longest matching prefix wins.
    """

    def __init__(self, default_quotas: Optional[Mapping[str, float]] = None,
                 overrides: Optional[Mapping[str, Mapping[str, float]]]
                 = None) -> None:
        self.default_quotas = dict(default_quotas or {})
        self.overrides = {k: dict(v) for k, v in (overrides or {}).items()}
        self._usage: dict[int, Usage] = {}
        self._names: dict[int, str] = {}
        #: Usage folded in from exited and recycled activations, keyed
        #: by name (exit drops the pid and recycling resets the live
        #: counters; history is kept here).
        self._retired: dict[str, Usage] = {}
        #: Total denied charges, per kind (benchmarks read this).
        self.denials: dict[str, int] = {}

    # -- quota resolution ---------------------------------------------

    def quota_for(self, process: Process, kind: str) -> float:
        if self.overrides:
            best: Optional[Mapping[str, float]] = None
            best_len = -1
            for prefix, table in self.overrides.items():
                if process.name.startswith(prefix) and len(prefix) > best_len:
                    best, best_len = table, len(prefix)
            if best is not None and kind in best:
                return best[kind]
        return self.default_quotas.get(kind, float("inf"))

    # -- ResourceHook interface -----------------------------------------

    def charge(self, process: Process, kind: str, amount: float) -> None:
        pid = process.pid
        usage = self._usage.get(pid)
        if usage is None:
            usage = self._usage[pid] = Usage()
            self._names[pid] = process.name
        if not self.default_quotas and not self.overrides:
            # unmetered container: the quota would resolve to infinity
            usage.set(kind, usage.get(kind) + amount)
            return
        new_total = usage.get(kind) + amount
        quota = self.quota_for(process, kind)
        if new_total > quota:
            self.denials[kind] = self.denials.get(kind, 0) + 1
            raise ResourceExhausted(
                f"{process.name}: {kind} quota ({quota:g}) exhausted")
        usage.set(kind, new_total)

    def charge_many(self, process: Process,
                    items: Iterable[tuple[str, float]]) -> None:
        """Apply several charges with one usage-record lookup.

        Each item ``(kind, n)`` stands for ``n`` unit charges (a scan
        charges one per row), and the batch is equivalent to that loop
        of unit :meth:`charge` calls: items apply in order, and the
        first unit over quota raises the same :class:`ResourceExhausted`
        (bumping the same denial counter) with every earlier unit,
        including the ones of its own item that fit, already applied.
        """
        pid = process.pid
        usage = self._usage.get(pid)
        if usage is None:
            usage = self._usage[pid] = Usage()
            self._names[pid] = process.name
        if not self.default_quotas and not self.overrides:
            # unmetered container: every quota resolves to infinity, so
            # no item can deny — accumulate without resolving quotas
            for kind, amount in items:
                usage.set(kind, usage.get(kind) + amount)
            return
        for kind, amount in items:
            new_total = usage.get(kind) + amount
            quota = self.quota_for(process, kind)
            if new_total > quota:
                fits = math.floor(quota - usage.get(kind))
                if fits > 0:
                    usage.set(kind, usage.get(kind) + fits)
                self.denials[kind] = self.denials.get(kind, 0) + 1
                raise ResourceExhausted(
                    f"{process.name}: {kind} quota ({quota:g}) exhausted")
            usage.set(kind, new_total)

    def on_exit(self, process: Process) -> None:
        """Fold the dead process's usage into per-name history and
        forget its pid, so accounting state tracks live processes."""
        self._fold(process.pid, self._names.pop(process.pid, process.name))

    def on_recycle(self, process: Process) -> None:
        """Reset the process's live budget for its next activation.

        Quotas are per-activation (one request = one fresh budget, the
        same arithmetic an unpooled kernel gets from fresh processes);
        the spent usage is folded into the per-name history so
        :meth:`total` reports identically with and without recycling.
        """
        self._fold(process.pid, self._names.get(process.pid, process.name))

    def _fold(self, pid: int, name: str) -> None:
        usage = self._usage.pop(pid, None)
        if usage is None:
            return
        retired = self._retired.get(name)
        if retired is None:
            # always a manager-owned record: adopting ``usage`` itself
            # would let later folds mutate what usage_of() handed out
            retired = self._retired[name] = Usage()
        # slot by slot: Usage.counts builds a dict per call, and this
        # runs once per request
        retired.syscalls += usage.syscalls
        retired.messages += usage.messages
        retired.endpoints += usage.endpoints
        retired.tags += usage.tags
        retired.processes += usage.processes
        retired.disk += usage.disk
        retired.disk_read += usage.disk_read
        retired.db_queries += usage.db_queries
        retired.db_rows += usage.db_rows
        retired.db_rows_scanned += usage.db_rows_scanned
        retired.requests += usage.requests
        if usage._extra:
            for kind, amount in usage._extra.items():
                retired.add(kind, amount)

    # -- reporting --------------------------------------------------------

    def usage_of(self, process: Process) -> Usage:
        """The live activation's usage; a zero record once the process
        has exited or been recycled (:meth:`total` still counts it)."""
        return self._usage.get(process.pid, Usage())

    def total(self, kind: str, name_prefix: str = "") -> float:
        live = sum(u.get(kind) for pid, u in self._usage.items()
                   if self._names.get(pid, "").startswith(name_prefix))
        retired = sum(usage.get(kind)
                      for name, usage in self._retired.items()
                      if name.startswith(name_prefix))
        return live + retired

    def denial_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(self.denials.values())
        return self.denials.get(kind, 0)
