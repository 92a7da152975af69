"""Fixed-bucket log2 latency histograms with percentile estimates.

``Metrics._LatencyStat`` (the M-cache era aggregator) could answer
"what was the mean flow-check latency" and nothing else — useless for
the tail-latency questions a platform serving millions of users must
answer ("is p99 regressing?").  :class:`LatencyHistogram` replaces it:
every observation lands in one of 64 power-of-two nanosecond buckets
(``[2^i, 2^(i+1))``), so

* recording is O(1) and allocation-free (one ``int.bit_length`` and a
  list increment — no stored samples, no sorting);
* memory is constant (64 ints) no matter how many observations arrive;
* p50/p95/p99 are estimated by rank-walking the cumulative counts and
  interpolating linearly inside the target bucket, clamped to the
  exact observed min/max — the estimate error is bounded by the bucket
  width (a factor of 2 worst case, far less in practice because real
  latency mass clusters);
* histograms **merge** exactly (bucket-wise addition), so per-worker
  or per-trace histograms can be combined without loss — the property
  the hypothesis round-trip test in ``tests/obs/test_histogram.py``
  pins down.

Count/total/min/max are tracked exactly, so every key the old
``_LatencyStat.as_dict()`` exposed is reproduced bit-for-bit
compatibly; the percentile keys ride alongside.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Union

#: Number of power-of-two buckets: bucket i covers [2^i, 2^(i+1)) ns,
#: bucket 0 additionally absorbs 0 ns.  2^63 ns is ~292 years, so the
#: top bucket is unreachable for any real latency.
BUCKETS = 64


class LatencyHistogram:
    """Streaming latency aggregate: exact moments + log2 buckets.

    Observations are seconds (floats, as ``time.perf_counter`` deltas
    come); buckets are nanoseconds internally because integer
    ``bit_length`` is the cheapest possible log2.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * BUCKETS

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def add(self, seconds: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        ns = int(seconds * 1e9)
        # floor(log2(ns)) for ns >= 1; ns == 0 shares bucket 0 with 1 ns
        idx = ns.bit_length() - 1
        if idx < 0:
            idx = 0
        elif idx >= BUCKETS:
            idx = BUCKETS - 1
        self.buckets[idx] += 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into self (exact: bucket-wise addition)."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        mine = self.buckets
        for i, n in enumerate(other.buckets):
            if n:
                mine[i] += n
        return self

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (``q`` in [0, 1]).

        Rank-walks the cumulative bucket counts to the bucket holding
        the target rank, interpolates linearly inside it, and clamps to
        the exact observed min/max so single-observation and
        tight-distribution cases come out exact.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        # 1-based target rank among `count` sorted observations.
        rank = q * (self.count - 1) + 1.0
        seen = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= rank:
                lo = 0.0 if i == 0 else float(1 << i)
                hi = float(1 << (i + 1))
                # position of the target rank inside this bucket
                frac = (rank - seen - 1.0) / n if n > 1 else 0.5
                est = (lo + (hi - lo) * frac) * 1e-9
                return min(max(est, self.min), self.max)
            seen += n
        return self.max  # pragma: no cover - rank always lands above

    def as_dict(self) -> dict[str, float]:
        """The ``_LatencyStat``-compatible view plus percentile keys."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_us": (self.total / self.count * 1e6) if self.count else 0.0,
            "min_us": (self.min * 1e6) if self.count else 0.0,
            "max_us": self.max * 1e6,
            "p50_us": self.percentile(0.50) * 1e6,
            "p95_us": self.percentile(0.95) * 1e6,
            "p99_us": self.percentile(0.99) * 1e6,
        }

    def snapshot(self) -> dict[str, Any]:
        """A serializable dump (used by the trace report command).

        Carries the raw seconds-valued moments (``min_s``/``max_s``
        alongside the display ``total_s``) so
        :meth:`from_snapshot` reconstructs the histogram exactly —
        the sharded trace report and the fleet registry merge
        snapshots across process boundaries without rounding drift.
        """
        out = {**self.as_dict(),
               "buckets": {i: n for i, n in enumerate(self.buckets) if n}}
        if self.count:
            out["min_s"] = self.min
            out["max_s"] = self.max
        return out

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`snapshot` output (M16).

        The inverse direction of the exact-merge property: per-shard
        histograms cross the fork engine's pipe (or any JSON dump) as
        snapshots and merge bucket-exactly on the other side.  JSON
        round-trips turn bucket keys into strings; both spellings are
        accepted.
        """
        h = cls()
        h.count = int(snap.get("count", 0))
        h.total = float(snap.get("total_s", 0.0))
        if h.count:
            h.min = float(snap.get("min_s", snap.get("min_us", 0.0) / 1e6))
            h.max = float(snap.get("max_s", snap.get("max_us", 0.0) / 1e6))
        for i, n in (snap.get("buckets") or {}).items():
            h.buckets[int(i)] = int(n)
        return h

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencyHistogram":
        """Convenience constructor (tests and offline analysis)."""
        h = cls()
        for v in values:
            h.add(v)
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = self.as_dict()
        return (f"LatencyHistogram(n={self.count}, "
                f"p50={d['p50_us']:.1f}us, p99={d['p99_us']:.1f}us)")


def merge_histograms(tables: Iterable[Mapping[str, Union[
        LatencyHistogram, dict[str, Any]]]]) -> dict[str, LatencyHistogram]:
    """Merge name -> histogram tables into fresh histograms, sorted by
    name.  A table may hold live histograms (an in-process tracer's) or
    their :meth:`~LatencyHistogram.snapshot` dicts (one that crossed a
    pipe or a JSON dump).  Bucket-wise addition is exact, so merged
    percentiles equal those of one histogram fed every observation;
    the inputs are never mutated."""
    merged: dict[str, LatencyHistogram] = {}
    for table in tables:
        for name, hist in table.items():
            if isinstance(hist, dict):
                hist = LatencyHistogram.from_snapshot(hist)
            acc = merged.get(name)
            if acc is None:
                acc = merged[name] = LatencyHistogram()
            acc.merge(hist)
    return dict(sorted(merged.items()))
