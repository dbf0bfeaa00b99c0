"""Tests for the convergence-analysis utilities."""

import pytest

from repro.analysis.convergence import ascii_sparkline, summarize_trace
from repro.errors import ConfigurationError


class TestSummarizeTrace:
    def test_monotone_trace(self):
        report = summarize_trace([0.0, 5.0, 9.0, 10.0, 10.0])
        assert report.final_value == 10.0
        assert report.levels == 5
        assert report.levels_to_90 == 2  # 9.0 is 90% of the climb
        assert report.levels_to_99 == 3
        assert 0.0 < report.normalized_auc <= 1.0

    def test_flat_trace_converged_immediately(self):
        report = summarize_trace([3.0, 3.0, 3.0])
        assert report.levels_to_90 == 0
        assert report.levels_to_99 == 0
        assert report.normalized_auc == 1.0

    def test_single_point(self):
        report = summarize_trace([7.0])
        assert report.final_value == 7.0
        assert report.levels == 1

    def test_early_convergence_high_auc(self):
        fast = summarize_trace([0.0, 10.0, 10.0, 10.0])
        slow = summarize_trace([0.0, 1.0, 2.0, 10.0])
        assert fast.normalized_auc > slow.normalized_auc

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_trace([])


class TestAsciiSparkline:
    def test_length_matches_input(self):
        assert len(ascii_sparkline([1.0, 2.0, 3.0])) == 3

    def test_resampled_width(self):
        assert len(ascii_sparkline(list(range(100)), width=20)) == 20

    def test_monotone_trace_monotone_blocks(self):
        spark = ascii_sparkline([0.0, 1.0, 2.0, 3.0])
        assert spark[0] == "▁"
        assert spark[-1] == "█"
        assert list(spark) == sorted(spark)

    def test_flat_trace_full_blocks(self):
        assert ascii_sparkline([2.0, 2.0]) == "██"

    def test_empty_trace(self):
        assert ascii_sparkline([]) == ""

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            ascii_sparkline([1.0, 2.0], width=0)
