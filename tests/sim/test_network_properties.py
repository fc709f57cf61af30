"""Property-based network tests: random configurations, hard invariants.

Hypothesis drives random (router kind, VCs, buffers, radix, routing,
topology, load, seed) combinations through short simulations, asserting
the invariants no configuration may break: flit conservation, credit
bounds, per-packet in-order delivery, correct destinations, and drain
after the sources stop.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.config import RouterKind, SimConfig
from repro.sim.network import Network
from repro.sim.validation import CreditConsistencyProbe, ValidationSuite
from repro.sim.validation.oracle import record_deliveries

VC_KINDS = [
    RouterKind.VIRTUAL_CHANNEL,
    RouterKind.SPECULATIVE_VC,
    RouterKind.SINGLE_CYCLE_VC,
]
ALL_KINDS = VC_KINDS + [
    RouterKind.WORMHOLE,
    RouterKind.SINGLE_CYCLE_WORMHOLE,
]


def valid_configs():
    """Strategy over structurally valid SimConfigs (small, fast ones)."""

    def build(kind, vcs, bufs, radix, load, routing, topology, seed, length):
        if not kind.uses_vcs:
            vcs = 1
            routing = "xy" if routing in ("o1turn", "adaptive") else routing
            topology = "mesh"
        if topology == "torus" and routing in ("o1turn", "adaptive"):
            routing = "xy"
        # keep the packet rate within the 1-flit/cycle injection channel
        capacity = (8.0 if topology == "torus" else 4.0) / radix
        load = min(load, 0.9 * length / capacity)
        return SimConfig(
            router_kind=kind,
            num_vcs=vcs,
            buffers_per_vc=bufs,
            mesh_radix=radix,
            injection_fraction=load,
            routing_function=routing,
            topology=topology,
            packet_length=length,
            seed=seed,
        )

    return st.builds(
        build,
        kind=st.sampled_from(ALL_KINDS),
        vcs=st.sampled_from([2, 3, 4]),
        bufs=st.integers(min_value=1, max_value=6),
        radix=st.sampled_from([2, 3, 4]),
        load=st.floats(min_value=0.05, max_value=0.7),
        routing=st.sampled_from(["xy", "yx", "o1turn", "adaptive"]),
        topology=st.sampled_from(["mesh", "mesh", "torus"]),
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.sampled_from([1, 2, 5, 8]),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(valid_configs())
def test_invariants_under_random_configs(config):
    network = Network(config)
    logs = record_deliveries(network)
    credits = ValidationSuite([CreditConsistencyProbe()])
    credits.attach(network)
    for _ in range(6):
        network.run(40)
        network.check_conservation()
        credits.after_cycle(network)

    # Destination correctness is asserted inside Sink.accept; here we
    # check in-order, complete delivery per packet.
    for sink, log in zip(network.sinks, logs):
        for packet in log:
            assert packet.ejection_cycle is not None
            assert packet.destination == sink.node

    # Stop the sources; everything in flight must drain (no deadlock).
    for generator in network.generators:
        generator.rate_packets_per_cycle = 0.0
    for _ in range(5_000):
        network.step()
        if network.drained():
            break
    assert network.drained(), f"undrained: {config}"
    assert network.total_flits_injected() == network.total_flits_ejected()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    load=st.floats(min_value=0.1, max_value=0.5),
)
def test_same_seed_same_result(seed, load):
    """Bit-for-bit determinism of the whole network."""
    def run():
        network = Network(SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=3, mesh_radix=3, injection_fraction=load,
            seed=seed,
        ))
        network.run(300)
        return (
            network.total_flits_injected(),
            network.total_flits_ejected(),
            sum(r.stats.spec_wasted for r in network.routers),
        )

    assert run() == run()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_latency_never_below_minimum(seed):
    """No packet beats the pipeline's physical minimum latency."""
    network = Network(SimConfig(
        router_kind=RouterKind.WORMHOLE, buffers_per_vc=8, mesh_radix=4,
        injection_fraction=0.3, seed=seed,
    ))
    logs = record_deliveries(network)
    network.run(400)
    mesh = network.mesh
    checked = 0
    for log in logs:
        for packet in log:
            hops = mesh.hop_distance(packet.source, packet.destination)
            minimum = 4 * hops + 3 + packet.length
            assert packet.latency >= minimum
            checked += 1
    assert checked > 0
