"""A finished point frees its network by reference counting alone.

The simulator's object graph is acyclic by construction: wheel entries
name their endpoints by index, compiled steps live on the network,
the stepper is a plain function, sources and sinks share a totals
object instead of pointing at the network, and an input VC holds its
router weakly.  So dropping the last reference to a ``Simulator``
frees its routers, channels, packets and arbiters at once, and the
cyclic collector finds nothing.  Each case runs with the collector
disabled, drops the simulator, then asks ``gc.collect()`` how much
cyclic garbage the run left; a failure names the leaked types.

Checked and traced points are covered too: ``ValidationSuite.finalize``
and ``Tracer.detach`` unwrap the sinks and routers they instrumented.

Within a point, no packet outlives its delivery: sinks keep counts and
sample latencies, so the live packets are exactly those generated and
not yet fully ejected.
"""

import gc
from collections import Counter

import pytest

from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.trace import Tracer
from repro.telemetry import TelemetryConfig

MEAS = MeasurementConfig(
    warmup_cycles=100, sample_packets=60, max_cycles=3_000,
    drain_cycles=1_000,
)


def config(**overrides):
    defaults = dict(
        router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
        buffers_per_vc=5, injection_fraction=0.3, seed=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def cyclic_garbage(run):
    """Objects in reference cycles that ``run()`` left behind, by type."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        histogram = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found, histogram


def assert_released(run):
    found, histogram = cyclic_garbage(run)
    assert found == 0, (
        f"{found} objects left in reference cycles: "
        f"{histogram.most_common(12)}"
    )


@pytest.mark.sim
@pytest.mark.parametrize("stepper", ["fast", "reference"])
@pytest.mark.parametrize("kind", list(RouterKind), ids=lambda k: k.value)
def test_every_router_kind_is_released(kind, stepper):
    cfg = config(
        router_kind=kind, num_vcs=2 if kind.uses_vcs else 1, stepper=stepper,
    )
    assert_released(lambda: Simulator(cfg, MEAS).run())


@pytest.mark.sim
@pytest.mark.parametrize(
    "override",
    [
        dict(allocator_kind="maximum"),
        dict(routing_function="o1turn"),
        dict(routing_function="adaptive"),
        dict(speculation_priority="equal"),
        dict(routing_function="yx"),
        dict(topology="torus"),
    ],
    ids=lambda o: next(iter(o.values())),
)
def test_spec_vc_variants_are_released(override):
    cfg = config(**override)
    assert_released(lambda: Simulator(cfg, MEAS).run())


@pytest.mark.sim
@pytest.mark.parametrize(
    "telemetry",
    [True, TelemetryConfig(capture_trace=True)],
    ids=["telemetry", "capture_trace"],
)
def test_observed_runs_are_released(telemetry):
    cfg = config()
    assert_released(lambda: Simulator(cfg, MEAS, telemetry=telemetry).run())


@pytest.mark.sim
@pytest.mark.parametrize("stepper", ["fast", "reference"])
@pytest.mark.parametrize(
    "kind",
    [RouterKind.WORMHOLE, RouterKind.VIRTUAL_CHANNEL,
     RouterKind.SPECULATIVE_VC],
    ids=lambda k: k.value,
)
def test_checked_runs_are_released(kind, stepper):
    cfg = config(
        router_kind=kind, num_vcs=2 if kind.uses_vcs else 1, stepper=stepper,
    )
    assert_released(lambda: Simulator(cfg, MEAS, checked=True).run())


@pytest.mark.sim
def test_detached_tracer_releases_network():
    def run():
        network = Network(config())
        tracer = Tracer.attach(network)
        network.run(200)
        tracer.detach(network)
        assert tracer.events

    assert_released(run)


def live_packets():
    return sum(isinstance(obj, Packet) for obj in gc.get_objects())


def assert_only_undelivered_packets_live(network, before):
    ejected = sum(sink.packets_ejected for sink in network.sinks)
    assert ejected > 0
    assert live_packets() - before == network.packets_generated - ejected


@pytest.mark.sim
@pytest.mark.parametrize("stepper", ["fast", "reference"])
def test_network_run_keeps_no_delivered_packet(stepper):
    gc.collect()
    before = live_packets()
    network = Network(config(stepper=stepper))
    network.run(1_500)
    assert_only_undelivered_packets_live(network, before)


@pytest.mark.sim
def test_saturated_point_keeps_no_delivered_packet():
    # Twice the saturation load, with a drain too short for the backlog.
    saturating = MeasurementConfig(
        warmup_cycles=600, sample_packets=200, max_cycles=4_000,
        drain_cycles=200,
    )
    gc.collect()
    before = live_packets()
    simulator = Simulator(config(injection_fraction=0.9), saturating)
    result = simulator.run()
    assert result.saturated
    assert_only_undelivered_packets_live(simulator.network, before)


@pytest.mark.sim
def test_serial_map_leaves_no_network_alive():
    experiment = Experiment(
        MEAS, backend="serial", cache=None, checked=False, telemetry=False,
    )
    configs = [config(injection_fraction=load) for load in (0.1, 0.2, 0.3)]
    gc.collect()
    gc.disable()
    try:
        results = experiment.map(configs)
        alive = sum(isinstance(obj, Network) for obj in gc.get_objects())
    finally:
        gc.enable()
    assert len(results) == 3
    assert alive == 0, f"{alive} networks outlived their points"
