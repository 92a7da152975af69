"""Unit tests for the covert-channel harness."""

import math
import random

import pytest

from repro.covert import (FAILSTOP, FILTERED, StorageChannel,
                          binary_channel_capacity, timing_probe)


class TestCapacityMath:
    def test_perfect_channel(self):
        assert binary_channel_capacity(0.0) == 1.0

    def test_inverted_channel_still_perfect(self):
        assert binary_channel_capacity(1.0) == 1.0

    def test_coin_flip_channel_useless(self):
        assert binary_channel_capacity(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_toward_half(self):
        assert binary_channel_capacity(0.1) > binary_channel_capacity(0.3)

    def test_clamps_out_of_range(self):
        assert binary_channel_capacity(-0.5) == 1.0
        assert binary_channel_capacity(1.5) == 1.0


class TestStorageChannel:
    def _bits(self, n=32, seed=5):
        rng = random.Random(seed)
        return [rng.randint(0, 1) for __ in range(n)]

    def test_failstop_leaks_perfectly(self):
        bits = self._bits()
        report = StorageChannel().transmit(bits, FAILSTOP)
        assert report.received == bits
        assert report.error_rate == 0.0
        assert report.capacity_bits_per_query == 1.0

    def test_filtered_leaks_nothing(self):
        bits = self._bits()
        report = StorageChannel().transmit(bits, FILTERED)
        assert all(r == 0 for r in report.received)
        # the receiver's view is constant: whatever was sent, it
        # decodes all-zeros — information transferred is zero even
        # though the raw "error rate" equals the density of 1s
        assert set(report.received) == {0}

    def test_all_zero_message_indistinguishable(self):
        """The filtered receiver cannot tell an all-zeros transmission
        from any other transmission."""
        a = StorageChannel().transmit([0] * 16, FILTERED)
        b = StorageChannel().transmit([1] * 16, FILTERED)
        assert a.received == b.received

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            StorageChannel().transmit([1], "optimistic")

    def test_report_error_counting(self):
        report = StorageChannel().transmit([1, 0, 1, 1], FILTERED)
        assert report.errors == 3
        assert report.error_rate == 0.75


class TestTimingProbe:
    def test_full_scan_reveals_invisible_rows(self):
        with_secrets = timing_probe(invisible_rows=50)
        without = timing_probe(invisible_rows=0)
        assert (with_secrets["full_scan_rows_touched"]
                > without["full_scan_rows_touched"])

    def test_indexed_scan_hides_invisible_rows(self):
        with_secrets = timing_probe(invisible_rows=50)
        without = timing_probe(invisible_rows=0)
        assert (with_secrets["indexed_rows_touched"]
                == without["indexed_rows_touched"])

    def test_probe_reports_configuration(self):
        report = timing_probe(invisible_rows=7, visible_rows=3)
        assert report["invisible_rows"] == 7.0
        assert report["visible_rows"] == 3.0

    def test_padding_closes_full_scan_channel(self):
        """With pad_scan_to, the full-scan cost is identical whatever
        the adversary hid — the complete mitigation."""
        padded_with = timing_probe(invisible_rows=50, pad_scan_to=500)
        padded_without = timing_probe(invisible_rows=0, pad_scan_to=500)
        assert (padded_with["full_scan_rows_touched"]
                == padded_without["full_scan_rows_touched"] == 500)

    def test_padding_does_not_tax_indexed_queries(self):
        report = timing_probe(invisible_rows=50, pad_scan_to=500)
        assert report["indexed_rows_touched"] == 10


class TestPartitionedEngineRegression:
    """C10 must hold on the label-partitioned engine exactly as it does
    on the naive one: skipping invisible partitions wholesale may not
    change what a timing adversary can observe."""

    def test_both_engines_report_identical_costs(self):
        for kwargs in ({"invisible_rows": 50},
                       {"invisible_rows": 0},
                       {"invisible_rows": 50, "pad_scan_to": 500},
                       {"invisible_rows": 50, "invisible_labels": 8}):
            fast = timing_probe(plane="fast", **kwargs)
            naive = timing_probe(plane="oracle", **kwargs)
            assert fast == naive, f"engines diverge for {kwargs}"

    def test_padded_cost_independent_of_invisible_partitions(self):
        """The padded full-scan charge may not vary with how many
        invisible partitions exist or how full they are."""
        costs = {
            timing_probe(invisible_rows=rows, invisible_labels=labels,
                         pad_scan_to=500,
                         plane="fast")["full_scan_rows_touched"]
            for rows, labels in ((0, 1), (50, 1), (50, 8), (128, 16))}
        assert costs == {500.0}

    def test_unpadded_partition_skip_still_charges_invisible_rows(self):
        """Without padding the partitioned engine *still* charges for
        rows in skipped partitions — the scan-cost observable matches
        the naive engine rather than leaking partition visibility."""
        report = timing_probe(invisible_rows=50, invisible_labels=4,
                              plane="fast")
        assert report["full_scan_rows_touched"] == 60
