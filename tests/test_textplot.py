"""Tests for the terminal plot helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sparkline, timeline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_intensity(self):
        line = sparkline([0, 5, 10], maximum=10)
        levels = " .:-=+*#%@"
        assert levels.index(line[0]) <= levels.index(line[1]) \
            <= levels.index(line[2])

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_explicit_maximum_scales(self):
        relative = sparkline([5], maximum=10)
        absolute = sparkline([5], maximum=5)
        levels = " .:-=+*#%@"
        assert levels.index(relative) < levels.index(absolute)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_never_crashes(self, values):
        out = sparkline(values)
        assert len(out) == len(values)


class TestTimeline:
    def test_empty(self):
        assert timeline([]) == ""

    def test_has_marker_row(self):
        chart = timeline([1, 2, 3, 2, 1], markers=[2])
        assert chart.splitlines()[0][2] == "v"

    def test_peak_annotated(self):
        chart = timeline([1.0, 4.5, 2.0])
        assert "4.50" in chart

    def test_column_heights_monotone(self):
        chart = timeline([1, 2, 4])
        rows = chart.splitlines()[1:-2]
        # Highest value fills the top row; lowest does not.
        assert rows[0][2] == "#"
        assert rows[0][0] == " "
