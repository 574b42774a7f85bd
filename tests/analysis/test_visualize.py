"""Tests for ASCII visualization helpers."""

import pytest

from repro.analysis.visualize import ascii_scatter


class TestAsciiScatter:
    def test_renders_markers_and_legend(self):
        plot = ascii_scatter(
            {"text": [(0.1, 0.1), (0.2, 0.2)], "enc": [(0.9, 0.9)]},
            width=30, height=10,
        )
        assert "t" in plot
        assert "e" in plot
        assert "legend: t=text   e=enc" in plot

    def test_extremes_at_grid_corners(self):
        plot = ascii_scatter({"a": [(0.0, 0.0), (1.0, 1.0)]}, width=20, height=8)
        lines = plot.splitlines()
        # Top row holds the max-y point, bottom grid row the min-y point.
        assert "a" in lines[0]
        assert "a" in lines[7]

    def test_constant_data_does_not_crash(self):
        plot = ascii_scatter({"a": [(0.5, 0.5), (0.5, 0.5)]})
        assert "a" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            ascii_scatter({})
        with pytest.raises(ValueError, match="width"):
            ascii_scatter({"a": [(0, 0)]}, width=2)
