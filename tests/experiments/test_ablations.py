"""Tests for the ablation studies (small-scale runs)."""

import pytest

from repro.experiments.ablations import (
    allocator_ablation,
    arbiter_ablation,
    buffer_depth_sweep,
    render_all,
    traffic_pattern_study,
)
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig

pytestmark = pytest.mark.sim

FAST = MeasurementConfig(
    warmup_cycles=150, sample_packets=200, max_cycles=8_000,
    drain_cycles=2_500,
)


class TestAllocatorAblation:
    def test_structure_and_render(self):
        result = allocator_ablation(loads=(0.3,), measurement=FAST)
        assert set(result.runs) == {"separable (paper)", "maximum matching"}
        assert "separable" in result.render()

    def test_maximum_never_much_worse(self):
        """The paper's 'small amount of allocation efficiency': exact
        matching should be at least as good (within noise) as separable."""
        result = allocator_ablation(loads=(0.5,), measurement=FAST)
        separable = result.runs["separable (paper)"][0].average_latency
        maximum = result.runs["maximum matching"][0].average_latency
        assert maximum <= separable * 1.10


class TestArbiterAblation:
    def test_both_policies_work(self):
        result = arbiter_ablation(loads=(0.3,), measurement=FAST)
        for runs in result.runs.values():
            assert not runs[0].saturated

    def test_policies_comparable_at_moderate_load(self):
        result = arbiter_ablation(loads=(0.4,), measurement=FAST)
        matrix = result.runs["matrix (paper)"][0].average_latency
        round_robin = result.runs["round-robin"][0].average_latency
        assert matrix == pytest.approx(round_robin, rel=0.25)


class TestBufferSweep:
    def test_latency_improves_up_to_credit_loop(self):
        result = buffer_depth_sweep(
            buffers=(2, 3, 5, 8), load=0.45, measurement=FAST
        )
        latency = {
            label: runs[0].average_latency
            for label, runs in result.runs.items()
        }
        # scarce buffering hurts badly; at/beyond the 5-cycle loop the
        # returns flatten out.
        assert latency["2 buffers/VC"] > latency["5 buffers/VC"]
        assert latency["5 buffers/VC"] == pytest.approx(
            latency["8 buffers/VC"], rel=0.15
        )


class TestTrafficPatterns:
    def test_flow_control_ranking_invariant(self):
        """Footnote 13: the flow-control comparison holds across traffic
        patterns -- speculative VC at least matches wormhole everywhere."""
        studies = traffic_pattern_study(
            patterns=("uniform", "transpose"), load=0.3, measurement=FAST
        )
        for pattern, result in studies.items():
            wormhole = result.runs["wormhole (8 bufs)"][0].average_latency
            spec = result.runs["specVC (2vcsX4bufs)"][0].average_latency
            assert spec <= wormhole * 1.05, pattern


class TestSharedExperiment:
    def test_studies_run_on_the_passed_experiment(self):
        experiment = Experiment(FAST)
        allocator_ablation(loads=(0.3,), experiment=experiment)
        assert experiment.stats.points_executed == 2

    def test_render_all_reports_through_the_passed_experiment(self):
        tiny = MeasurementConfig(
            warmup_cycles=20, sample_packets=20, max_cycles=600,
            drain_cycles=200,
        )
        experiment = Experiment(tiny)
        text = render_all(experiment=experiment)
        assert text.count("Ablation: ") == 12
        # Every section's points ran through the one passed experiment.
        assert experiment.stats.points_executed >= 12
