"""Tests for the simulation driver (warm-up, sampling, drain)."""

import math

import pytest

from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator, simulate

FAST = MeasurementConfig(
    warmup_cycles=100, sample_packets=150, max_cycles=8_000, drain_cycles=3_000
)


def config(load, kind=RouterKind.WORMHOLE, radix=4, **kw):
    return SimConfig(
        router_kind=kind, mesh_radix=radix, injection_fraction=load,
        buffers_per_vc=8, seed=9, **kw,
    )


class TestSimulate:
    def test_light_load_drains(self):
        result = simulate(config(0.1), FAST)
        assert not result.saturated
        assert result.latency is not None
        assert result.sample_packets >= FAST.sample_packets
        assert result.latency.count >= FAST.sample_packets

    def test_latency_reasonable_on_small_mesh(self):
        # 4x4 mesh: avg 2.67 hops -> zero load ~ 4*2.67 + 8 ~ 19.
        result = simulate(config(0.05), FAST)
        assert 14 < result.average_latency < 24

    def test_accepted_tracks_offered_below_saturation(self):
        result = simulate(config(0.3), FAST)
        assert result.accepted_fraction == pytest.approx(0.3, abs=0.06)

    def test_overload_saturates(self):
        overloaded = MeasurementConfig(
            warmup_cycles=400, sample_packets=4_000, max_cycles=3_000,
            drain_cycles=200,
        )
        result = simulate(config(0.95), overloaded)
        assert result.saturated
        assert math.isinf(result.average_latency)
        # accepted throughput caps out below offered
        assert result.accepted_fraction < 0.9

    def test_latency_increases_with_load(self):
        light = simulate(config(0.05), FAST)
        heavy = simulate(config(0.4), FAST)
        assert heavy.average_latency > light.average_latency

    def test_deterministic_given_seed(self):
        a = simulate(config(0.2), FAST)
        b = simulate(config(0.2), FAST)
        assert a.average_latency == b.average_latency
        assert a.cycles_simulated == b.cycles_simulated

    def test_different_seeds_differ(self):
        a = simulate(config(0.2), FAST)
        b = simulate(SimConfig(
            router_kind=RouterKind.WORMHOLE, mesh_radix=4,
            injection_fraction=0.2, buffers_per_vc=8, seed=10,
        ), FAST)
        assert a.average_latency != b.average_latency

    def test_invariants_mode(self):
        # The full invariant-probe suite every cycle.
        simulator = Simulator(config(0.3), FAST, checked=True)
        result = simulator.run()
        assert result.latency is not None
        assert result.validation["ok"]

    def test_spec_counters_populated(self):
        result = simulate(
            config(0.2, kind=RouterKind.SPECULATIVE_VC, num_vcs=2), FAST
        )
        assert result.spec_grants > 0
        assert 0 <= result.spec_wasted <= result.spec_grants

    def test_nonspec_has_no_spec_counters(self):
        result = simulate(config(0.2), FAST)
        assert result.spec_grants == 0
        assert result.spec_wasted == 0

    def test_speculation_mostly_successful_at_low_load(self):
        """At low load output VCs are free, so speculation almost always
        succeeds -- the paper's rationale for why it removes the VA stage
        without a throughput price."""
        result = simulate(
            config(0.1, kind=RouterKind.SPECULATIVE_VC, num_vcs=2), FAST
        )
        success = 1.0 - result.spec_wasted / result.spec_grants
        assert success > 0.9
