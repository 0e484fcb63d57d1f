"""Tests for run statistics and sparklines."""

import pytest

from repro.neat.statistics import sparkline, summarise


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3], width=4)
        assert len(line) == 4
        assert line[0] == " "
        assert line[-1] == "@"

    def test_constant_series(self):
        line = sparkline([5, 5, 5], width=3)
        assert len(set(line)) == 1

    def test_pooling_to_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=40)) == 2


class TestSummarise:
    def test_fields(self):
        summary = summarise([1.0, 3.0, 2.0])
        assert summary.first == 1.0
        assert summary.last == 2.0
        assert summary.best == 3.0
        assert summary.mean == pytest.approx(2.0)
        assert summary.stdev > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise([])
