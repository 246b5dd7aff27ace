"""Tests for the text plot renderers."""

from __future__ import annotations

from repro.analysis.plots import text_bars


class TestTextBars:
    def test_empty(self):
        assert text_bars({}) == "(no data)"

    def test_largest_value_fills_width(self):
        out = text_bars({"a": 1.0, "b": 4.0}, width=8)
        a_line, b_line = out.splitlines()
        assert b_line.count("█") == 8
        assert a_line.count("█") == 2

    def test_labels_and_values_present(self):
        out = text_bars({"FIFO": 29.7, "Airtime": 89.1}, unit=" Mbps")
        assert "FIFO" in out and "Airtime" in out
        assert "Mbps" in out

    def test_explicit_max_scales_bars(self):
        out = text_bars({"x": 5.0}, width=10, max_value=10.0)
        assert out.count("█") == 5

    def test_zero_values_do_not_crash(self):
        out = text_bars({"x": 0.0, "y": 0.0})
        assert "x" in out
