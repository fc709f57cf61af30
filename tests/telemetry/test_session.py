"""Session lifecycle: attach, sample, finalize, and clean detach."""

import pytest

from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator, simulate
from repro.sim.network import Network
from repro.sim.topology import PORT_NAMES
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    TelemetrySummary,
)
from repro.telemetry.session import resolve_telemetry
from repro.telemetry.summary import (
    CREDIT_STALLS,
    CROSSBAR_TRAVERSALS,
    FLITS_EJECTED,
    FLITS_FORWARDED,
    FLITS_INJECTED,
    GRANTS_BY_INPUT,
    IDLE_ROUTER_SAMPLES,
    PACKETS_ROUTED,
    SA_GRANTS,
    SPEC_ATTEMPTED,
    SPEC_LOST,
    SPEC_WON,
    VC_OCCUPANCY,
    merge_summaries,
)

MEAS = MeasurementConfig(
    warmup_cycles=100, sample_packets=100, max_cycles=10_000
)


def spec_config(**overrides):
    defaults = dict(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        injection_fraction=0.2, seed=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestTelemetryConfig:
    def test_defaults_are_valid(self):
        config = TelemetryConfig()
        assert config.sample_period >= 1
        assert not config.capture_trace

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_period=0)
        with pytest.raises(ValueError):
            TelemetryConfig(window_cycles=0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_windows=1)


class TestResolveTelemetry:
    def test_false_disables(self):
        assert resolve_telemetry(False, spec_config()) is None

    def test_none_defers_to_config(self):
        assert resolve_telemetry(None, spec_config()) is None
        embedded = spec_config(telemetry=TelemetryConfig(sample_period=8))
        session = resolve_telemetry(None, embedded)
        assert session is not None
        assert session.config.sample_period == 8

    def test_true_uses_defaults(self):
        session = resolve_telemetry(True, spec_config())
        assert session.config == TelemetryConfig()

    def test_config_and_session_pass_through(self):
        config = TelemetryConfig(sample_period=4)
        assert resolve_telemetry(config, spec_config()).config is config
        session = TelemetrySession()
        assert resolve_telemetry(session, spec_config()) is session

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_telemetry(42, spec_config())


@pytest.mark.sim
class TestSessionLifecycle:
    def test_run_produces_summary(self):
        telemetry = TelemetryConfig(sample_period=4, window_cycles=64)
        result = Simulator(spec_config(), MEAS, telemetry=telemetry).run()
        summary = result.telemetry
        assert isinstance(summary, TelemetrySummary)
        assert summary.cycles_observed == result.cycles_simulated
        assert summary.value(SPEC_ATTEMPTED) > 0
        assert summary.value(SA_GRANTS) > 0
        assert summary.speculation_win_rate > 0
        assert 0 < summary.channel_utilization < 1
        assert summary.windows, "windowed timeseries is empty"
        occupancy = summary.metrics.get(VC_OCCUPANCY)
        assert occupancy is not None and occupancy["observations"] > 0

    def test_finalize_detaches_all_machinery(self):
        simulator = Simulator(
            spec_config(),
            MEAS,
            telemetry=TelemetryConfig(sample_period=4, capture_trace=True),
        )
        network = simulator.network
        # Attached: only the tracer is installed; the session shadows
        # no router method.
        assert all(r.tracer is not None for r in network.routers)
        simulator.run()
        assert all("_traverse" not in r.__dict__ for r in network.routers)
        assert all(r.tracer is None for r in network.routers)

    def test_disabled_telemetry_installs_nothing(self):
        simulator = Simulator(spec_config(), MEAS)
        assert simulator.telemetry is None
        network = simulator.network
        assert all("_traverse" not in r.__dict__ for r in network.routers)
        assert all(r.tracer is None for r in network.routers)
        assert simulator.run().telemetry is None

    def test_double_attach_raises(self):
        simulator = Simulator(spec_config(), MEAS, telemetry=True)
        with pytest.raises(RuntimeError):
            simulator.telemetry.attach(simulator.network)

    def test_summary_round_trips_and_merges(self):
        telemetry = TelemetryConfig(sample_period=4, window_cycles=64)
        summaries = [
            Simulator(spec_config(seed=seed), MEAS, telemetry=telemetry)
            .run().telemetry
            for seed in (1, 2)
        ]
        rebuilt = TelemetrySummary.from_dict(summaries[0].to_dict())
        assert rebuilt == summaries[0]

        merged = merge_summaries(summaries + [None])
        assert merged.runs == 2
        assert merged.cycles_observed == sum(
            s.cycles_observed for s in summaries
        )
        assert merged.value(SA_GRANTS) == sum(
            s.value(SA_GRANTS) for s in summaries
        )
        assert merged.windows == []  # per-run timelines are dropped

    def test_merge_rejects_mismatched_sample_period(self):
        a = TelemetrySummary(sample_period=4, window_cycles=64,
                             cycles_observed=10)
        b = TelemetrySummary(sample_period=8, window_cycles=64,
                             cycles_observed=10)
        with pytest.raises(ValueError):
            a.merge(b)


KNEE_KINDS = {
    "wormhole": dict(router_kind=RouterKind.WORMHOLE, buffers_per_vc=8),
    "vc": dict(router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2,
               buffers_per_vc=4),
    "spec_vc": dict(router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
                    buffers_per_vc=4),
}


KNEE_MEAS = MeasurementConfig(
    warmup_cycles=300, sample_packets=400, max_cycles=10_000
)


def knee_config(kind, **overrides):
    """Fig 13's routers on the 8x8 mesh at load 0.42."""
    return SimConfig(
        injection_fraction=0.42, seed=1, **KNEE_KINDS[kind], **overrides
    )


def counters_of(summary):
    return {
        name: metric["value"] for name, metric in summary.metrics.items()
        if metric["kind"] == "counter"
    }


def scalar_totals(network):
    """Every network-wide scalar a session reports, read
    straight off the routers and endpoints."""
    stats = [router.stats for router in network.routers]
    grants = sum(s.spec_grants for s in stats)
    wasted = sum(s.spec_wasted for s in stats)
    return {
        SPEC_ATTEMPTED: grants,
        SPEC_WON: grants - wasted,
        SPEC_LOST: wasted,
        SA_GRANTS: sum(s.sa_grants for s in stats),
        CREDIT_STALLS: sum(s.credits_stalled for s in stats),
        FLITS_FORWARDED: sum(s.flits_forwarded for s in stats),
        PACKETS_ROUTED: sum(s.packets_routed for s in stats),
        FLITS_INJECTED: network.total_flits_injected(),
        FLITS_EJECTED: network.total_flits_ejected(),
    }


def node_totals(network):
    return [
        (r.stats.spec_grants, r.stats.spec_wasted, r.stats.credits_stalled)
        for r in network.routers
    ]


def by_port(summary, name):
    return [
        summary.value(name, port=direction)
        for direction in PORT_NAMES
    ]


@pytest.mark.sim
class TestPullOnlyCollectors:
    """Telemetry reads router counters, so the observed run is the
    compiled one -- and must count exactly what the generic one does."""

    @pytest.mark.parametrize("kind", sorted(KNEE_KINDS))
    def test_compiled_and_generic_steps_count_the_same(self, kind):
        fast = simulate(knee_config(kind), KNEE_MEAS, telemetry=True)
        reference = simulate(
            knee_config(kind, stepper="reference"), KNEE_MEAS,
            telemetry=True,
        )
        assert fast.counters.routers_generic == 0
        assert fast.counters.generic_step_reason is None
        assert reference.counters.routers_specialized == 0
        assert fast == reference
        observed = counters_of(fast.telemetry)
        expected = counters_of(reference.telemetry)
        # The reference stepper never puts a router to sleep, so it has
        # no idle samples to integrate; every other counter must agree.
        observed.pop(IDLE_ROUTER_SAMPLES, None)
        expected.pop(IDLE_ROUTER_SAMPLES, None)
        assert observed == expected
        assert observed[FLITS_FORWARDED] > 0

    @pytest.mark.parametrize("kind", sorted(KNEE_KINDS))
    def test_direction_rows_sum_to_flits_forwarded(self, kind):
        summary = simulate(
            knee_config(kind), KNEE_MEAS, telemetry=True
        ).telemetry
        forwarded = summary.value(FLITS_FORWARDED)
        assert forwarded > 0
        assert sum(by_port(summary, CROSSBAR_TRAVERSALS)) == forwarded
        assert sum(by_port(summary, GRANTS_BY_INPUT)) == forwarded

    def test_late_attach_counts_only_post_attach_traversals(self):
        network = Network(knee_config("spec_vc"))
        network.run(300)  # warm-up nobody observes
        before = scalar_totals(network)
        before_by_node = node_totals(network)
        assert all(before.values())
        session = TelemetrySession()
        session.attach(network)
        assert network.routers_specialized == len(network.routers)
        for _ in range(200):
            network.step()
            session.after_cycle(network)
        summary = session.finalize(network)
        assert summary.cycles_observed == 200
        delta = {
            name: total - before[name]
            for name, total in scalar_totals(network).items()
        }
        value = summary.value
        assert {name: value(name) for name in delta} == delta
        forwarded = delta[FLITS_FORWARDED]
        assert sum(by_port(summary, CROSSBAR_TRAVERSALS)) == forwarded
        assert sum(by_port(summary, GRANTS_BY_INPUT)) == forwarded
        for router, start, now in zip(
            network.routers, before_by_node, node_totals(network)
        ):
            grants, wasted, stalls = (b - a for a, b in zip(start, now))
            node = router.node
            assert value(SPEC_ATTEMPTED, node=node) == grants
            assert value(SPEC_WON, node=node) == grants - wasted
            assert value(SPEC_LOST, node=node) == wasted
            assert value(CREDIT_STALLS, node=node) == stalls

    def test_capture_trace_still_runs_the_generic_step(self):
        result = simulate(
            spec_config(), MEAS, telemetry=TelemetryConfig(capture_trace=True)
        )
        assert result.counters.generic_step_reason == "trace"
        assert result.counters.routers_specialized == 0
        plain = simulate(spec_config(), MEAS, telemetry=True)
        assert plain.counters.generic_step_reason is None
        assert counters_of(result.telemetry) == counters_of(plain.telemetry)
