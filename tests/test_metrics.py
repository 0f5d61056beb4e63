"""Tests for metrics helpers."""

import pytest

from repro.metrics.stats import mean, percentile, stddev, summarize
from repro.metrics.tables import render_table


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0


def test_stddev():
    assert stddev([2, 2, 2]) == 0.0
    assert stddev([1]) == 0.0
    assert stddev([0, 2]) == 1.0


def test_percentile_basic():
    values = list(range(11))  # 0..10
    assert percentile(values, 0) == 0
    assert percentile(values, 50) == 5
    assert percentile(values, 100) == 10


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == 2.5


def test_percentile_single_value():
    assert percentile([7], 90) == 7


def test_percentile_validates_range():
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_percentile_empty():
    assert percentile([], 50) == 0.0


def test_summarize_keys():
    summary = summarize([1.0, 2.0, 3.0])
    assert set(summary) == {"mean", "std", "min", "p50", "p90", "p99", "max"}
    assert summary["min"] == 1.0
    assert summary["max"] == 3.0


def test_summarize_p99():
    values = list(range(101))  # 0..100
    summary = summarize(values)
    assert summary["p99"] == 99.0


def test_summarize_empty():
    summary = summarize([])
    assert summary["mean"] == 0.0
    assert summary["p99"] == 0.0


def test_summarize_delegates_to_histogram():
    from repro.trace.histogram import Histogram

    hist = Histogram()
    for value in (1.0, 2.0, 4.0, 8.0):
        hist.add(value)
    summary = summarize(hist)
    assert set(summary) == {"mean", "std", "min", "p50", "p90", "p99", "max"}
    assert summary["mean"] == pytest.approx(3.75)
    assert summary["max"] == 8.0


def test_percentile_bounds():
    values = [3.0, 1.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 3.0


def test_percentile_rejects_negative():
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)


def test_render_table_alignment():
    out = render_table(["name", "value"], [["a", 1], ["bb", 2.5]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "2.50" in lines[4]


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [["only-one"]])
