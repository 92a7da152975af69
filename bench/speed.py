"""The host's momentary speed, measured with a fixed reference work.

The benchmark's machine may share its processor with other tenants,
and then the same code runs up to twice as slowly for seconds or
minutes at a time.  Run-to-run, that drift is wider than any bound
worth having.  So an end-to-end run times a fixed piece of pure-Python
work (``reference_work``: it keeps nothing it allocates and calls
nothing of the program under test) about every ``EVERY_NS`` between
ops, and divides each measured time by the host's speed around it.  The
reported times are *reference* times: what the run would have taken on
a host that runs the reference work in ``REFERENCE_NS``.

A change to the program moves its times and leaves the reference work
alone, so between two commits normalized times compare as raw times do
on a host that holds still.  The run's notes also print the raw values.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

#: The reference work's duration that defines a reference microsecond
#: (about what it takes on an unloaded 2-vCPU Xeon VM with Python 3.11).
REFERENCE_NS = 500_000
#: Time the reference work again after the first op that ends this long
#: after the previous sample.
EVERY_NS = 20_000_000
#: The host's speed at a sample is the median over this many samples
#: centred on it.
WINDOW = 31
#: Samples taken around a deployment's set-up, before and after.
BURST = 15


def reference_work() -> int:
    table = dict.fromkeys(range(256), 0)
    total = 0
    for i in range(5000):
        table[i & 255] = i
        total += table[(i * 7) & 255]
    return total


def sample() -> int:
    """One timing of the reference work, in ns."""
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


def burst() -> list[int]:
    return [sample() for __ in range(BURST)]


def slowdown(samples: list[int]) -> float:
    """How much slower than the reference the host ran over ``samples``."""
    return statistics.median(samples) / REFERENCE_NS


def local_slowdowns(samples: list[int]) -> list[float]:
    """Each sample's slowdown: the median over the ``WINDOW`` samples
    centred on it (fewer at the ends of the run)."""
    half = WINDOW // 2
    return [slowdown(samples[max(0, j - half):j + half + 1])
            for j in range(len(samples))]
