"""The event-driven fast stepper must be bit-identical to the reference.

The fast stepper (``SimConfig.stepper="fast"``) replaces per-cycle
polling with an arrival event wheel, skips the phases of provably idle
routers, and fast-forwards non-firing constant-rate generators.  None
of that may change a single observable bit: these tests drive both
steppers over seeded random configurations (reusing the property-test
config generator) and over targeted edge cases, and diff everything
down to individual packet ids and ejection cycles.
"""

import itertools
import random
from dataclasses import replace

import pytest

import repro.sim.flit as flit_module
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator, simulate
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.snapshot import state_digest
from repro.sim.topology import Mesh
from repro.sim.traffic import PacketSource
from repro.sim.validation.oracle import record_deliveries
from repro.sim.validation.proptest import CASE_MEASUREMENT, generate_cases

pytestmark = pytest.mark.sim


MEASUREMENT = MeasurementConfig(
    warmup_cycles=100, sample_packets=120, max_cycles=15_000,
    drain_cycles=8_000,
)


def run_both(config, measurement=MEASUREMENT):
    """Run a config under each stepper; return (fast, reference) pairs of
    (RunResult, per-sink delivery history)."""
    out = []
    for stepper in ("fast", "reference"):
        # Packet ids come from a module-global counter (and o1turn keys
        # routing off the id), so both sides must see the same sequence.
        flit_module._packet_ids = itertools.count()
        simulator = Simulator(replace(config, stepper=stepper), measurement)
        deliveries = record_deliveries(simulator.network)
        result = simulator.run()
        out.append((result, deliveries))
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("case", generate_cases(seed=21, count=6),
                             ids=lambda c: f"case{c.case_id}")
    def test_random_configs_identical(self, case):
        """Seeded random configs (every router kind / traffic pattern /
        injection process in the pool) are bit-identical across steppers."""
        (fast_result, fast_del), (ref_result, ref_del) = run_both(
            case.config, CASE_MEASUREMENT
        )
        assert fast_result == ref_result, (
            f"case {case.case_id}: fast {fast_result} "
            f"!= reference {ref_result}"
        )
        assert fast_del == ref_del

    @pytest.mark.parametrize("kind", list(RouterKind))
    def test_each_router_kind_identical(self, kind):
        config = SimConfig(
            router_kind=kind,
            mesh_radix=4,
            num_vcs=2 if kind.uses_vcs else 1,
            # VCT needs a whole packet (5 flits) per buffer.
            buffers_per_vc=5,
            injection_fraction=0.25,
            seed=5,
        )
        (fast_result, fast_del), (ref_result, ref_del) = run_both(config)
        assert fast_result == ref_result
        assert fast_del == ref_del

    def test_maximum_matching_allocator_identical(self):
        """The maximum-matching allocator is pure on empty request
        sets (its rotation only advances on nonempty input), so its
        routers sleep and wake like any other; the batched bitmask
        kernel must stay bit-identical through that."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=4,
            injection_fraction=0.15, seed=9,
            allocator_kind="maximum",
        )
        (fast_result, fast_del), (ref_result, ref_del) = run_both(config)
        assert fast_result == ref_result
        assert fast_del == ref_del

    def test_checked_mode_on_fast_stepper(self):
        """Invariant probes attach to and pass on the fast stepper, and
        the checked run is bit-equal to the unchecked one."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=4,
            injection_fraction=0.2, seed=3, stepper="fast",
        )
        unchecked = simulate(config, MEASUREMENT)
        checked = simulate(config, MEASUREMENT, checked=True)
        assert checked.validation is not None
        assert checked.validation["ok"], checked.validation["violations"]
        assert checked == unchecked


def run_network_pair(config, cycles):
    """Step both steppers for ``cycles`` raw cycles and return, per
    stepper, every observable: aggregate counters, per-router stats,
    per-sink delivery order, and the full microarchitectural state
    digest.  Unlike :func:`run_both` this never waits for drain, so it
    can hold a network *past* saturation for a fixed horizon."""
    out = []
    for stepper in ("fast", "reference"):
        flit_module._packet_ids = itertools.count()
        network = Network(replace(config, stepper=stepper))
        logs = record_deliveries(network)
        network.run(cycles)
        stats = tuple(
            (r.stats.flits_received, r.stats.flits_forwarded,
             r.stats.packets_routed, r.stats.spec_grants,
             r.stats.spec_wasted, r.stats.credits_stalled,
             r.stats.sa_grants, r.stats.reroutes)
            for r in network.routers
        )
        out.append({
            "generated": network.packets_generated,
            "injected": network.total_flits_injected(),
            "ejected": network.total_flits_ejected(),
            "router_stats": stats,
            "deliveries": [[p.packet_id for p in log] for log in logs],
            "digest": state_digest(network),
        })
    return out


class TestHighLoadBattery:
    """Saturation-regime differential battery.

    The specialized steppers exist *for* the high-load regime, so this
    is where they must be provably bit-identical: every router kind, on
    mesh and torus, at loads from moderate through past saturation
    (0.5 > the speculative router's ~0.45 saturation throughput), over
    horizons long enough for buffers to fill, wormhole trees to block,
    and every allocator code path (singleton and contended, stage 1 and
    stage 2) to run many times.  Comparison is total: aggregate
    counters, per-router stats, per-sink delivery order, and the
    :func:`state_digest` of all buffered/in-flight state.
    """

    @pytest.mark.parametrize("kind", list(RouterKind))
    @pytest.mark.parametrize("load", [0.3, 0.42, 0.5])
    def test_every_kind_under_load_mesh(self, kind, load):
        config = SimConfig(
            router_kind=kind,
            mesh_radix=4,
            num_vcs=2 if kind.uses_vcs else 1,
            buffers_per_vc=5,  # VCT needs a whole packet per buffer
            injection_fraction=load,
            seed=11,
        )
        fast, reference = run_network_pair(config, 800)
        assert fast == reference
        assert fast["ejected"] > 0

    @pytest.mark.parametrize("kind", [
        RouterKind.SPECULATIVE_VC,
        RouterKind.VIRTUAL_CHANNEL,
        RouterKind.SINGLE_CYCLE_VC,
    ])
    @pytest.mark.parametrize("load", [0.42, 0.5])
    def test_torus_under_load(self, kind, load):
        # Only VC routers are legal on a torus (dateline classes break
        # the ring cycles), so the torus grid covers the VC family.
        config = SimConfig(
            router_kind=kind,
            mesh_radix=4,
            num_vcs=2,
            buffers_per_vc=5,
            injection_fraction=load,
            seed=17,
            topology="torus",
        )
        fast, reference = run_network_pair(config, 800)
        assert fast == reference
        assert fast["ejected"] > 0

    # The specialization-envelope grid: every config dimension that
    # previously fell back to the generic path, driven across the VC
    # family (the dimensions are VC-family concepts; wormhole kinds
    # have no VC/spec allocators to vary).
    ENVELOPE = [
        ("maximum", dict(allocator_kind="maximum")),
        ("o1turn", dict(routing_function="o1turn")),
        ("adaptive", dict(routing_function="adaptive")),
        # Not a fallback dimension, but the fused closures' non-matrix
        # ``arb.arbitrate(...)`` legs need a dedicated high-load case.
        ("round_robin", dict(arbiter_kind="round_robin")),
    ]

    @pytest.mark.parametrize("kind", [
        RouterKind.SPECULATIVE_VC,
        RouterKind.VIRTUAL_CHANNEL,
        RouterKind.SINGLE_CYCLE_VC,
    ])
    @pytest.mark.parametrize("override",
                             [o for _, o in ENVELOPE],
                             ids=[name for name, _ in ENVELOPE])
    @pytest.mark.parametrize("load", [0.42, 0.5])
    def test_envelope_configs_under_load_mesh(self, kind, override, load):
        config = SimConfig(
            router_kind=kind,
            mesh_radix=4,
            num_vcs=2,
            buffers_per_vc=5,
            injection_fraction=load,
            seed=11,
            **override,
        )
        fast, reference = run_network_pair(config, 800)
        assert fast == reference
        assert fast["ejected"] > 0

    @pytest.mark.parametrize("override", [
        dict(speculation_priority="equal"),
        dict(speculation_priority="equal", allocator_kind="maximum"),
        dict(speculation_priority="equal", arbiter_kind="round_robin"),
    ], ids=["equal", "equal-maximum", "equal-round_robin"])
    @pytest.mark.parametrize("load", [0.42, 0.5])
    def test_equal_priority_under_load_mesh(self, override, load):
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=5,
            injection_fraction=load, seed=11,
            **override,
        )
        fast, reference = run_network_pair(config, 800)
        assert fast == reference
        assert fast["ejected"] > 0

    @pytest.mark.parametrize("override", [
        dict(allocator_kind="maximum"),
        dict(speculation_priority="equal"),
    ], ids=["maximum", "equal"])
    def test_envelope_configs_torus(self, override):
        # o1turn/adaptive are mesh-only; the allocator and priority
        # dimensions also hold on a torus (dateline VC classes).
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=5,
            injection_fraction=0.5, seed=17, topology="torus",
            **override,
        )
        fast, reference = run_network_pair(config, 800)
        assert fast == reference
        assert fast["ejected"] > 0

    def test_seeded_random_saturation_configs(self):
        """Randomized corner of the battery: seeded draws over router
        kind, topology, VC count, buffer depth, routing function,
        allocator kind and load in [0.3, 0.5], so coverage extends past
        the hand-picked grid without losing reproducibility."""
        rng = random.Random(0xC0FFEE)
        kinds = list(RouterKind)
        for case in range(10):
            kind = rng.choice(kinds)
            # Tori demand VC routers (dateline deadlock avoidance);
            # o1turn/adaptive demand VC routers on a mesh.
            topology = rng.choice(
                ("mesh", "torus") if kind.uses_vcs else ("mesh",)
            )
            if kind.uses_vcs and topology == "mesh":
                routing = rng.choice(("xy", "yx", "o1turn", "adaptive"))
            else:
                routing = rng.choice(("xy", "yx"))
            config = SimConfig(
                router_kind=kind,
                mesh_radix=4,
                num_vcs=rng.choice((2, 3, 4)) if kind.uses_vcs else 1,
                buffers_per_vc=rng.choice((5, 6, 8)),
                injection_fraction=round(rng.uniform(0.3, 0.5), 3),
                seed=rng.randrange(1_000_000),
                topology=topology,
                routing_function=routing,
                allocator_kind=rng.choice(
                    ("separable", "separable", "maximum")
                ),
            )
            fast, reference = run_network_pair(config, 600)
            assert fast == reference, f"case {case}: {config}"

    @pytest.mark.slow
    def test_long_horizon_past_saturation(self):
        """5000 cycles at offered load 0.5 -- deep inside saturation,
        where the source queues grow without bound and every buffer and
        arbiter is continuously contended."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=4,
            injection_fraction=0.5, seed=23,
        )
        fast, reference = run_network_pair(config, 5000)
        assert fast == reference
        # Sanity that the horizon really crossed saturation: offered
        # traffic outpaced deliveries.
        assert fast["generated"] * config.packet_length > fast["ejected"]

    def test_high_load_checked_run_is_clean(self):
        """Probes see no violations at load 0.5 on the fast stepper:
        the checked run keeps its compiled steps, so this checks the
        compiled closures under saturation stress."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC,
            mesh_radix=4, num_vcs=2, buffers_per_vc=4,
            injection_fraction=0.5, seed=29, stepper="fast",
        )
        measurement = MeasurementConfig(
            warmup_cycles=100, sample_packets=40, max_cycles=2_000,
            drain_cycles=200,
        )
        result = simulate(config, measurement, checked=True)
        assert result.validation is not None
        assert result.validation["ok"], result.validation["violations"]
        assert result.counters.routers_generic == 0
        assert result.validation["probes"]["speculation_legality"] > 0


class TestGeneratorFastForward:
    def test_offer_horizon_matches_polling(self):
        """offer_horizon() == number of _offers_packet calls up to and
        including the firing one, and leaves the accumulator exactly
        where the reference's failing polls leave it."""
        for seed in range(10):
            for rate in (0.03, 0.17, 0.5, 0.99):
                polled = PacketSource(
                    node=0, mesh=Mesh(4), rate_packets_per_cycle=rate,
                    packet_length=5, rng=random.Random(seed),
                )
                jumped = PacketSource(
                    node=0, mesh=Mesh(4), rate_packets_per_cycle=rate,
                    packet_length=5, rng=random.Random(seed),
                )
                for _ in range(5):  # several consecutive inter-arrivals
                    k = jumped.offer_horizon()
                    calls = 0
                    while True:
                        calls += 1
                        if polled._offers_packet():
                            break
                    assert calls == k
                    # The crossing call itself must agree bit-for-bit.
                    assert jumped._offers_packet()
                    assert jumped._accumulator == polled._accumulator

    def test_offer_horizon_rejects_non_constant(self):
        source = PacketSource(
            node=0, mesh=Mesh(4), rate_packets_per_cycle=0.2,
            packet_length=5, rng=random.Random(0), process="bernoulli",
        )
        with pytest.raises(ValueError):
            source.offer_horizon()
        zero = PacketSource(
            node=0, mesh=Mesh(4), rate_packets_per_cycle=0.0,
            packet_length=5, rng=random.Random(0),
        )
        with pytest.raises(ValueError):
            zero.offer_horizon()

    def test_rate_change_mid_run_identical(self):
        """Tests flip rates mid-run in both directions; the cached
        offer horizons must recover bit-identically."""
        results = []
        for stepper in ("fast", "reference"):
            flit_module._packet_ids = itertools.count()
            config = SimConfig(
                router_kind=RouterKind.WORMHOLE, mesh_radix=4,
                num_vcs=1, buffers_per_vc=4, injection_fraction=0.0,
                seed=13, stepper=stepper,
            )
            network = Network(config)
            for _ in range(50):
                network.step()
            for generator in network.generators:
                generator.rate_packets_per_cycle = 0.3
            for _ in range(300):
                network.step()
            for generator in network.generators:
                generator.rate_packets_per_cycle = 0.0
            for _ in range(500):
                network.step()
            results.append((
                network.packets_generated,
                network.total_flits_injected(),
                network.total_flits_ejected(),
                network.drained(),
            ))
        assert results[0] == results[1]
        assert results[0][0] > 0


class TestActivityTracking:
    def test_idle_network_sleeps_and_wakes(self):
        """With nothing in flight every router goes inactive; a packet
        enqueued directly into a source wakes the path back up and is
        delivered."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4,
            num_vcs=2, buffers_per_vc=4, injection_fraction=0.0,
            seed=1, stepper="fast",
        )
        network = Network(config)
        for _ in range(30):
            network.step()
        assert all(not router.active for router in network.routers)

        packet = Packet(source=0, destination=15, length=5,
                        creation_cycle=network.cycle)
        network.sources[0].enqueue(packet)
        log = record_deliveries(network)[15]
        for _ in range(200):
            network.step()
            if log:
                break
        assert [p.packet_id for p in log] == [packet.packet_id]
        assert network.drained()
        assert all(not router.active for router in network.routers)

    def test_maximum_matching_routers_sleep_and_wake(self):
        """The maximum matcher is pure on empty request sets, so its
        routers participate in activity-tracked sleeping; waking one up
        must leave it bit-identical to the reference stepper, which
        never slept (the allocator state a wake observes is the same as
        if the skipped empty allocate calls had been made)."""
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4,
            num_vcs=2, buffers_per_vc=4, injection_fraction=0.0,
            seed=1, allocator_kind="maximum",
        )
        results = []
        for stepper in ("fast", "reference"):
            flit_module._packet_ids = itertools.count()
            network = Network(replace(config, stepper=stepper))
            logs = record_deliveries(network)
            for _ in range(30):
                network.step()
            if stepper == "fast":
                assert all(not router.active for router in network.routers)
            packet = Packet(source=0, destination=15, length=5,
                            creation_cycle=network.cycle)
            network.sources[0].enqueue(packet)
            for _ in range(200):
                network.step()
            assert network.drained()
            results.append((
                [p.packet_id for p in logs[15]],
                state_digest(network),
            ))
        fast, reference = results
        assert fast == reference
        assert fast[0] == [0]

    def test_counters_match_physical_scan(self):
        config = SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4,
            num_vcs=2, buffers_per_vc=4, injection_fraction=0.3,
            seed=7, stepper="fast",
        )
        network = Network(config)
        for _ in range(400):
            network.step()
        # The incremental totals must agree with the physical scan:
        # injected == ejected + what is actually buffered or on wires.
        assert network.total_flits_injected() > 0
        network.check_conservation()


class TestStepperConfig:
    def test_unknown_stepper_rejected(self):
        with pytest.raises(ValueError, match="stepper"):
            SimConfig(
                router_kind=RouterKind.WORMHOLE, mesh_radix=4,
                num_vcs=1, injection_fraction=0.1, seed=1,
                stepper="asynchronous",
            )

    def test_reference_stepper_has_no_wheel(self):
        config = SimConfig(
            router_kind=RouterKind.WORMHOLE, mesh_radix=4, num_vcs=1,
            injection_fraction=0.1, seed=1, stepper="reference",
        )
        network = Network(config)
        assert network._wheel is None
