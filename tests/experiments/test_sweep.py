"""Tests for sweeps and reading saturation off their curves."""

import pytest

from repro.experiments.sweep import compare_curves, find_saturation
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig

pytestmark = pytest.mark.sim

FAST = MeasurementConfig(
    warmup_cycles=100, sample_packets=120, max_cycles=4_000, drain_cycles=1_500
)


def base_config():
    return SimConfig(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        seed=2,
    )


class TestSweep:
    def test_points_cover_loads(self):
        curve = Experiment(FAST).sweep(
            base_config(), label="wh", loads=(0.05, 0.2)
        )
        assert [p.injection_fraction for p in curve.points] == [0.05, 0.2]
        assert curve.label == "wh"

    def test_latency_monotone_in_load(self):
        curve = Experiment(FAST).sweep(
            base_config(), label="wh", loads=(0.05, 0.3, 0.5)
        )
        latencies = [p.average_latency for p in curve.points]
        assert latencies == sorted(latencies)

    def test_stops_after_saturation(self):
        saturating = MeasurementConfig(
            warmup_cycles=200, sample_packets=2_000, max_cycles=1_500,
            drain_cycles=100,
        )
        curve = Experiment(saturating).sweep(
            base_config(), label="wh", loads=(0.9, 0.95, 1.0)
        )
        # the first saturated point ends the sweep
        assert len(curve.points) == 1
        assert curve.points[0].saturated

    def test_find_saturation_bounds(self):
        curve = Experiment(FAST).sweep(
            base_config(), label="wh", loads=(0.05, 0.3)
        )
        saturation = find_saturation(curve)
        assert saturation >= 0.3  # both points well below saturation

    def test_compare_curves_renders(self):
        curve = Experiment(FAST).sweep(
            base_config(), label="wh", loads=(0.05,)
        )
        text = compare_curves([curve])
        assert "zero-load latency" in text
        assert "saturation" in text


class TestRunWithSeeds:
    def test_aggregates_across_seeds(self):
        aggregate = Experiment(FAST).aggregate(
            base_config(), load=0.2, seeds=(1, 2, 3)
        )
        assert len(aggregate.runs) == 3
        assert aggregate.latency_ci95 >= 0.0
        assert aggregate.mean_latency > 0
        assert "seeds" in aggregate.describe()

    def test_seed_variation_is_small_below_saturation(self):
        aggregate = Experiment(FAST).aggregate(
            base_config(), load=0.1, seeds=(1, 2, 3, 4)
        )
        assert aggregate.latency_std < 0.05 * aggregate.mean_latency

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            Experiment(FAST).aggregate(base_config(), load=0.2, seeds=())


class TestFindSaturationDegenerate:
    """find_saturation must tolerate curves with no usable zero load."""

    def saturated_point(self):
        from repro.sim.metrics import RunResult

        return RunResult(
            injection_fraction=0.9, latency=None, accepted_fraction=0.4,
            saturated=True, cycles_simulated=1_500, sample_packets=10,
        )

    def test_empty_sweep_reports_zero(self):
        from repro.sim.metrics import SweepResult

        assert find_saturation(SweepResult(label="empty")) == 0.0

    def test_first_point_already_saturated(self):
        from repro.sim.metrics import SweepResult

        curve = SweepResult(label="sat", points=[self.saturated_point()])
        assert find_saturation(curve) == 0.0

    def test_real_sweep_starting_saturated(self):
        saturating = MeasurementConfig(
            warmup_cycles=200, sample_packets=2_000, max_cycles=1_500,
            drain_cycles=100,
        )
        curve = Experiment(saturating).sweep(
            base_config(), label="wh", loads=(0.9, 1.0)
        )
        assert curve.points[0].saturated
        assert find_saturation(curve) == 0.0
        # compare_curves must render, not raise, on such a curve
        assert "saturation ~0%" in compare_curves([curve])
