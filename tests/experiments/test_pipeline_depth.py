"""Tests for the pipeline-depth and many-VCs studies (va_extra_cycles)."""

import pytest

from repro.experiments.ablations import many_vcs_study, pipeline_depth_study
from repro.sim.config import MeasurementConfig

pytestmark = pytest.mark.sim

FAST = MeasurementConfig(
    warmup_cycles=200, sample_packets=300, max_cycles=10_000,
    drain_cycles=3_000,
)


class TestPipelineDepthStudy:
    def test_each_stage_costs_one_cycle_per_hop(self):
        result = pipeline_depth_study(
            extras=(0, 1, 2), loads=(0.05,), measurement=FAST
        )
        zero_loads = {
            label: runs[0].average_latency
            for label, runs in result.runs.items()
        }
        base = zero_loads["+0 allocation stage(s)"]
        one = zero_loads["+1 allocation stage(s)"]
        two = zero_loads["+2 allocation stage(s)"]
        # ~6.3 average hops on the 8x8 mesh -> ~6.3 cycles per stage.
        assert one - base == pytest.approx(6.3, abs=1.0)
        assert two - one == pytest.approx(6.3, abs=1.0)

    def test_deepened_spec_matches_nonspec_zero_load(self):
        """A speculative router with one artificial extra allocation
        stage is, at zero load, exactly the non-speculative 4-stage
        router -- the two descriptions of 'one more stage' agree."""
        from repro.sim.config import RouterKind, SimConfig
        from repro.sim.engine import simulate

        deep_spec = simulate(SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=4, injection_fraction=0.05,
            va_extra_cycles=1, seed=9,
        ), FAST).average_latency
        nonspec = simulate(SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2,
            buffers_per_vc=4, injection_fraction=0.05, seed=9,
        ), FAST).average_latency
        assert deep_spec == pytest.approx(nonspec, abs=1.0)


@pytest.fixture(scope="module")
def many_vcs():
    # ~40 s of simulation: computed once for every test that reads it.
    return many_vcs_study(load=0.60, measurement=FAST)


class TestManyVCsStudy:
    def test_sixteen_vcs_do_not_beat_two(self, many_vcs):
        """Figure 11 -> Section 5 closed loop: the 5th pipeline stage a
        16-VC allocator costs is not bought back by throughput at these
        loads, vindicating the paper's small-VC focus."""
        two = many_vcs.runs["2 VCs x 8 bufs (4-stage)"]
        sixteen = many_vcs.runs["16 VCs x 4 bufs (5-stage)"]
        # worse at zero load (extra stage)...
        assert sixteen[0].average_latency > two[0].average_latency + 4.0
        # ...and no better under load.
        assert sixteen[1].average_latency > two[1].average_latency * 0.95

    def test_starved_vcs_worst_of_all(self, many_vcs):
        starved = many_vcs.runs["16 VCs x 1 buf (5-stage)"]
        plump = many_vcs.runs["16 VCs x 4 bufs (5-stage)"]
        assert starved[0].average_latency > plump[0].average_latency
