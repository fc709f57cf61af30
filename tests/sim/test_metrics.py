"""Tests for latency statistics and sweep results."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import LatencyStats, RunResult, SweepResult, _percentile


def run_result(load, latency, saturated=False, accepted=None):
    stats = (
        LatencyStats.from_latencies([latency])
        if latency is not None
        else None
    )
    return RunResult(
        injection_fraction=load,
        latency=stats,
        accepted_fraction=accepted if accepted is not None else load,
        saturated=saturated,
        cycles_simulated=1000,
        sample_packets=100,
    )


class TestLatencyStats:
    def test_single_packet(self):
        stats = LatencyStats.from_latencies([30])
        assert stats.mean == 30
        assert stats.minimum == stats.maximum == 30

    def test_mean_and_extremes(self):
        stats = LatencyStats.from_latencies([10, 20, 30, 40])
        assert stats.mean == 25
        assert stats.minimum == 10
        assert stats.maximum == 40
        assert stats.count == 4

    def test_median(self):
        assert LatencyStats.from_latencies([1, 2, 3, 4, 100]).p50 == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyStats.from_latencies([])

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=50))
    def test_percentiles_ordered(self, latencies):
        stats = LatencyStats.from_latencies(latencies)
        assert stats.minimum <= stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum


class TestPercentile:
    def test_interpolation(self):
        assert _percentile([0, 10], 0.5) == 5.0

    def test_extremes(self):
        values = [1, 2, 3]
        assert _percentile(values, 0.0) == 1
        assert _percentile(values, 1.0) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _percentile([], 0.5)


class TestRunResult:
    def test_average_latency(self):
        assert run_result(0.1, 30).average_latency == 30

    def test_saturated_latency_is_infinite(self):
        result = run_result(0.9, None, saturated=True)
        assert math.isinf(result.average_latency)

    def test_describe(self):
        text = run_result(0.25, 42).describe()
        assert "25%" in text
        assert "42" in text
        saturated = run_result(0.9, None, saturated=True).describe()
        assert "saturated" in saturated


class TestSweepResult:
    def make_curve(self):
        return SweepResult(
            label="demo",
            points=[
                run_result(0.1, 30),
                run_result(0.3, 35),
                run_result(0.5, 80),
                run_result(0.7, None, saturated=True),
            ],
        )

    def test_zero_load_latency(self):
        assert self.make_curve().zero_load_latency() == 30

    def test_saturation_fraction(self):
        curve = self.make_curve()
        assert curve.saturation_fraction(latency_limit=90) == 0.5
        assert curve.saturation_fraction(latency_limit=50) == 0.3
        assert curve.saturation_fraction(latency_limit=10) == 0.0

    def test_saturated_points_end_the_flat_region(self):
        curve = SweepResult(
            label="x", points=[run_result(0.1, 30),
                               run_result(0.3, None, saturated=True),
                               run_result(0.5, 31)],
        )
        assert curve.saturation_fraction(latency_limit=1000) == 0.1

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            SweepResult("empty").zero_load_latency()

    def test_describe_lists_points(self):
        text = self.make_curve().describe()
        assert "demo" in text
        assert text.count("load") == 4


class TestAggregateResult:
    def make(self, latencies, load=0.2, saturated_flags=None):
        from repro.sim.metrics import AggregateResult

        flags = saturated_flags or [False] * len(latencies)
        runs = [
            run_result(load, lat if not sat else None, saturated=sat)
            for lat, sat in zip(latencies, flags)
        ]
        return AggregateResult(injection_fraction=load, runs=runs)

    def test_mean_and_std(self):
        aggregate = self.make([28, 30, 32])
        assert aggregate.mean_latency == 30
        assert aggregate.latency_std == pytest.approx(2.0)
        assert aggregate.latency_ci95 == pytest.approx(1.96 * 2 / 3 ** 0.5)

    def test_single_run_has_zero_ci(self):
        aggregate = self.make([30])
        assert aggregate.latency_ci95 == 0.0
        assert aggregate.latency_std == 0.0

    def test_saturation_dominates(self):
        aggregate = self.make([30, None], saturated_flags=[False, True])
        assert math.isinf(aggregate.mean_latency)
        assert "saturated" in aggregate.describe()

    def test_mismatched_loads_rejected(self):
        from repro.sim.metrics import AggregateResult

        with pytest.raises(ValueError):
            AggregateResult(
                injection_fraction=0.2,
                runs=[run_result(0.2, 30), run_result(0.3, 30)],
            )

    def test_empty_rejected(self):
        from repro.sim.metrics import AggregateResult

        with pytest.raises(ValueError):
            AggregateResult(injection_fraction=0.2, runs=[])
