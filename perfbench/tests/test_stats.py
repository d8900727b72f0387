"""The percentile rule: no reported percentile has < 10 samples beyond."""

import pytest

from perfbench import stats


def test_samples_beyond_nearest_rank():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(20, 50) == 10
    assert stats.samples_beyond(19, 50) == 9


@pytest.mark.parametrize("n, q", [(999, 99), (19, 50), (2, 99), (0, 50)])
def test_percentile_refuses_thin_tails(n, q):
    with pytest.raises(stats.PercentileError):
        stats.percentile([float(i) for i in range(n)], q)


def test_percentile_values():
    values = [float(i) for i in range(1, 1001)]
    assert stats.percentile(values, 99) == 990.0
    assert stats.percentile(values, 50) == 500.0
    assert stats.percentile(list(reversed(values)), 99) == 990.0


def test_every_percentile_the_benchmark_reports_is_covered():
    """The percentiles the workloads report, at their sample counts for
    the committed run length, all leave at least 10 samples beyond."""
    import json
    import pathlib

    from perfbench.workloads import serve

    seconds = json.loads(
        (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json")
        .read_text())["run_seconds"]
    schedule = serve.make_inputs(1, seconds)["schedule"]
    per_path = {}
    for req in schedule:
        per_path[req["path"]] = per_path.get(req["path"], 0) + 1
    assert stats.samples_beyond(len(schedule), 99) >= stats.MIN_BEYOND
    for path in ("/solve", "/simulate", "/sweep"):
        assert stats.samples_beyond(per_path[path], 50) >= stats.MIN_BEYOND


def test_quartile_spread_matches_statistics():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
