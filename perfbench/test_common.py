"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import math
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from common import (cpu_ms_per_op, cpu_seconds, parse_cpu_seconds,  # noqa: E402
                    percentile, self_times, tail, tail_record,
                    throughput)
from tracing import Recorder, SpanSet  # noqa: E402


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 3 [2, 3] is 1's child.
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_count_once():
    # Two concurrent children [1, 6] and [4, 8] cover [1, 8] of [0, 10];
    # a third [8, 9] touches the union and extends it.
    start = [0.0, 1.0, 4.0, 8.0]
    end = [10.0, 6.0, 8.0, 9.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(2.0)


def test_child_outliving_parent_is_clipped():
    # A task spawned under [0, 5] that runs until 8 covers only [3, 5].
    start = [0.0, 3.0]
    end = [5.0, 8.0]
    assert self_times(start, end, [-1, 0]) == pytest.approx([3.0, 5.0])


def test_unclosed_span_is_neither_counted_nor_subtracted():
    start = [0.0, 1.0]
    end = [4.0, math.nan]
    own = self_times(start, end, [-1, 0])
    assert own[0] == pytest.approx(4.0)
    assert math.isnan(own[1])


def test_recorder_spans_round_trip(tmp_path):
    rec = Recorder()

    def inner():
        time.sleep(0.002)

    traced_inner = rec.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    rec.wrap("outer", outer)()
    path = str(tmp_path / "spans")
    rec.dump(path)
    totals = SpanSet.load(path).totals()
    assert totals["inner"]["count"] == 2
    assert totals["outer"]["count"] == 1
    outer_row = totals["outer"]
    assert outer_row["self_s"] == pytest.approx(
        outer_row["total_s"] - totals["inner"]["total_s"])
    assert totals == SpanSet.of(rec).totals()


# ----------------------------------------------------------------------
# Tail rule
# ----------------------------------------------------------------------
def test_tail_omitted_below_ten_samples_beyond_p90():
    assert tail([float(i) for i in range(99)]) is None
    assert tail([5.0] * 8) is None
    assert tail_record([5.0] * 8) == {
        "omitted": "fewer than ten samples beyond p90", "samples": 8}


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(list(range(100)))["percentile"] == 90.0
    assert tail(list(range(999)))["percentile"] == 90.0
    got = tail(list(range(1000)))
    assert got["percentile"] == 99.0
    assert got["samples"] == 1000
    assert got["value"] == pytest.approx(percentile(list(range(1000)), 99.0))
    assert tail(list(range(10000)))["percentile"] == 99.9


def test_tail_never_equals_p50_of_a_spread_sample():
    values = [float(i % 37) for i in range(200)]
    assert tail(values)["value"] > percentile(values, 50.0)


# ----------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------
def test_throughput_uses_the_operations_own_span():
    # Three operations between t=10 and t=12; idle time before t=10 or
    # after t=12 (a fixed window) must not dilute the rate.
    assert throughput([(10.0, 10.5), (11.0, 11.2), (11.5, 12.0)]) == 1.5


def test_throughput_counts_overlapping_operations():
    assert throughput([(0.0, 2.0), (0.5, 2.0), (1.0, 2.0), (1.5, 2.0)]) == 2.0


def test_throughput_leaves_out_gaps_between_groups():
    # Two passes of two operations, each pass 1 s long, 5 s apart: the
    # gap (set-up work between passes) is not operation time.
    first = [(0.0, 0.5), (0.5, 1.0)]
    second = [(6.0, 6.4), (6.4, 7.0)]
    assert throughput(first, second) == 2.0
    assert throughput(first, [], second) == 2.0


def test_throughput_edge_cases():
    assert throughput([]) == 0.0
    with pytest.raises(ValueError):
        throughput([(1.0, 1.0)])


# ----------------------------------------------------------------------
# /proc CPU deltas
# ----------------------------------------------------------------------
STAT = ("4242 (python3 (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
        "250 75 0 0 20 0 3 0 1000 12345678 2000 18446744073709551615")


def test_parse_cpu_seconds_skips_a_command_with_spaces_and_parens():
    assert parse_cpu_seconds(STAT, ticks_per_s=100) == pytest.approx(3.25)


def test_cpu_ms_per_op():
    assert cpu_ms_per_op(1.5, 2.0, 250) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cpu_ms_per_op(2.0, 1.5, 10)
    with pytest.raises(ValueError):
        cpu_ms_per_op(1.0, 2.0, 0)


def test_cpu_seconds_of_this_process_grow_with_work():
    before = cpu_seconds("self")
    deadline = time.process_time() + 0.05
    while time.process_time() < deadline:
        pass
    assert cpu_seconds("self") - before >= 0.03
