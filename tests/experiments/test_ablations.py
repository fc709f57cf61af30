"""Tests for the ablation study rows (small-scale runs)."""

from dataclasses import replace

import pytest

from repro.experiments.catalog import CATALOG, get_row, run
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig

pytestmark = pytest.mark.sim

FAST = MeasurementConfig(
    warmup_cycles=150, sample_packets=200, max_cycles=8_000,
    drain_cycles=2_500,
)


def study(name, measurement=FAST, **changes):
    """Catalog row ``name``, narrowed by ``changes``, run alone."""
    row = replace(get_row(name), **changes)
    return run([row], Experiment(measurement))[name]


class TestAllocatorAblation:
    def test_structure_and_render(self):
        result = study("allocator", loads=(0.3,))
        assert set(result.runs) == {"separable (paper)", "maximum matching"}
        assert "separable" in result.render()

    def test_maximum_never_much_worse(self):
        """The paper's 'small amount of allocation efficiency': exact
        matching should be at least as good (within noise) as separable."""
        result = study("allocator", loads=(0.5,))
        separable = result.runs["separable (paper)"][0].average_latency
        maximum = result.runs["maximum matching"][0].average_latency
        assert maximum <= separable * 1.10


class TestArbiterAblation:
    def test_both_policies_work(self):
        result = study("arbiter", loads=(0.3,))
        for runs in result.runs.values():
            assert not runs[0].saturated

    def test_policies_comparable_at_moderate_load(self):
        result = study("arbiter", loads=(0.4,))
        matrix = result.runs["matrix (paper)"][0].average_latency
        round_robin = result.runs["round-robin"][0].average_latency
        assert matrix == pytest.approx(round_robin, rel=0.25)


class TestBufferSweep:
    def test_latency_improves_up_to_credit_loop(self):
        row = get_row("buffer_depth")
        result = study(
            "buffer_depth", loads=(0.45,),
            curves=tuple(
                spec for spec in row.curves
                if spec.config.buffers_per_vc in (2, 3, 5, 8)
            ),
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
        for pattern in ("uniform", "transpose"):
            result = study(f"traffic_{pattern}", loads=(0.3,))
            wormhole = result.runs["wormhole (8 bufs)"][0].average_latency
            spec = result.runs["specVC (2vcsX4bufs)"][0].average_latency
            assert spec <= wormhole * 1.05, pattern


class TestSharedExperiment:
    def test_studies_run_on_the_passed_experiment(self):
        experiment = Experiment(FAST)
        run([replace(get_row("allocator"), loads=(0.3,))], experiment)
        assert experiment.stats.points_executed == 2

    def test_reported_studies_run_through_the_passed_experiment(self):
        tiny = MeasurementConfig(
            warmup_cycles=20, sample_packets=20, max_cycles=600,
            drain_cycles=200,
        )
        rows = [row for row in CATALOG if not row.figure and row.reported]
        experiment = Experiment(tiny)
        results = run(rows, experiment)
        text = "\n\n".join(results[row.name].render() for row in rows)
        assert text.count("Ablation: ") == 12
        # Every section's points ran through the one passed experiment,
        # and a point two studies share ran once.
        distinct = {
            repr(config) for row in rows for spec in row.curves
            for config in row.configs(spec)
        }
        assert experiment.stats.points_executed == len(distinct) < sum(
            len(row.curves) * len(row.loads) for row in rows
        )
