"""Tests for the benchmark harness helpers."""

import warnings

import pytest

from repro.bench.harness import (
    ExperimentTable,
    format_value,
    geometric_mean,
    relative_error,
)
from repro.util.timing import timed


class TestStopwatch:
    def test_timed_measures_elapsed_time(self):
        with timed() as timer:
            sum(range(1000))
            inside = timer.elapsed()
        assert 0 <= inside <= timer.seconds


class TestExperimentTable:
    def test_render_contains_headers_and_rows(self):
        table = ExperimentTable("Demo", ["query", "time"])
        table.add_row("Q1", 12.5)
        table.add_row("Q2", 3.25)
        text = table.render()
        assert "Demo" in text
        assert "query" in text and "time" in text
        assert "Q1" in text and "12.50" in text

    def test_row_arity_checked(self):
        table = ExperimentTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1,234,567"
        assert format_value(0.1234) == "0.1234"
        assert format_value("text") == "text"


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_warns_on_dropped_values(self):
        with pytest.warns(RuntimeWarning, match="2 non-positive"):
            result = geometric_mean([1.0, 0.0, -3.0, 100.0])
        assert result == pytest.approx(10.0)

    def test_geometric_mean_strict_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            geometric_mean([1.0, -1.0], strict=True)

    def test_geometric_mean_all_dropped_returns_zero(self):
        with pytest.warns(RuntimeWarning):
            assert geometric_mean([0.0, -2.0]) == 0.0

    def test_geometric_mean_positive_inputs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
