"""Percentile, median-of-runs, spread and span self-time arithmetic."""

import pytest

from perf.quantiles import median, percentile, spread
from perf.runner import Round, fastest, turns
from perf.spans import Recorder, Span, self_time_by_name, self_times


def test_percentile_interpolates_between_ranks():
    values = [40, 10, 30, 20]
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 25
    assert percentile(values, 100) == 40
    assert percentile(values, 90) == pytest.approx(37)
    assert percentile([5], 90) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_and_spread_of_runs():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0]) == 1.5
    assert spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)
    assert spread([0.0, 0.0]) == 0.0


def test_fastest_takes_each_request_at_its_best_round():
    rounds = [Round(latencies={"a": [3.0, 1.0], "b": [5.0]}),
              Round(latencies={"a": [2.0, 4.0], "b": [7.0]})]
    assert fastest(rounds, "a") == [2.0, 1.0]
    assert fastest(rounds, "b") == [5.0]


def test_tenants_take_turns_until_every_list_is_spent():
    order = turns({"viz": ["v0", "v1", "v2"], "bulk": ["b0"]})
    assert order == [("viz", 0, "v0"), ("bulk", 0, "b0"),
                     ("viz", 1, "v1"), ("viz", 2, "v2")]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, None, "request", "w/0/0", 0.0, 10.0),
        Span(1, 0, "rpc.call", "w/0/0", 1.0, 7.0),
        Span(2, 1, "rpc.link", "w/0/0", 1.0, 2.0),
        Span(3, 1, "rpc.tcp", "w/0/0", 2.0, 6.0),
        Span(4, 0, "core.postfilter", "w/0/0", 7.0, 9.5),
    ]
    own = self_times(spans)
    assert own == {0: 1.5, 1: 1.0, 2: 1.0, 3: 4.0, 4: 2.5}
    assert sum(own.values()) == spans[0].duration
    assert self_time_by_name(spans)["rpc.call"] == 1.0


def test_recorder_nests_and_stamps_the_request_id():
    rec = Recorder()
    rec.request = "w/1/2"
    with rec.span("request"):
        with rec.span("rpc.call", method="health") as call:
            assert rec.current is call
    outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert inner.request == "w/1/2" and inner.attrs == {"method": "health"}
    assert outer.start <= inner.start <= inner.end <= outer.end
