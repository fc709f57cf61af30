"""Integration tests: VC routers on a torus, and o1turn on a mesh."""

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.dateline import o1turn_choice, vc_class
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.topology import LOCAL, Torus, port_dimension
from repro.sim.trace import EventKind, Tracer
from repro.sim.validation.oracle import record_deliveries


def torus_network(kind=RouterKind.SPECULATIVE_VC, vcs=2, radix=4, load=0.0,
                  bufs=4, seed=0, **kw):
    return Network(SimConfig(
        router_kind=kind, num_vcs=vcs, mesh_radix=radix, buffers_per_vc=bufs,
        injection_fraction=load, topology="torus", seed=seed, **kw,
    ))


def send(network, src, dst, length=5):
    packet = Packet(source=src, destination=dst, length=length,
                    creation_cycle=0)
    network.sources[src].enqueue(packet)
    return packet


class TestConfigGuards:
    def test_wormhole_on_torus_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(router_kind=RouterKind.WORMHOLE, topology="torus")

    def test_single_cycle_wormhole_on_torus_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(
                router_kind=RouterKind.SINGLE_CYCLE_WORMHOLE, topology="torus"
            )

    def test_o1turn_needs_vcs(self):
        with pytest.raises(ValueError):
            SimConfig(router_kind=RouterKind.WORMHOLE, routing_function="o1turn")

    def test_o1turn_on_torus_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(
                router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=4,
                routing_function="o1turn", topology="torus",
            )


class TestTorusDelivery:
    def test_wrap_hop_latency(self):
        network = torus_network()
        packet = send(network, 0, 3)  # one hop WEST via the wrap link
        network.run(60)
        assert packet.latency == 4 * 1 + 8

    def test_all_pairs_deliver(self):
        network = torus_network(radix=3, vcs=2)
        packets = [
            send(network, src, dst)
            for src in range(9) for dst in range(9) if src != dst
        ]
        network.run(2500)
        assert all(p.ejection_cycle is not None for p in packets)

    def test_torus_beats_mesh_zero_load(self):
        """Wrap links cut the average path (4.06 vs 5.33 hops at k=8)."""
        results = {}
        for topology in ("mesh", "torus"):
            network = Network(SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
                buffers_per_vc=8, mesh_radix=8, injection_fraction=0.03,
                topology=topology, seed=7,
            ))
            logs = record_deliveries(network)
            network.run(2500)
            delivered = [p for log in logs for p in log]
            assert len(delivered) > 50
            results[topology] = sum(p.latency for p in delivered) / len(delivered)
        assert results["torus"] < results["mesh"] - 3.0

    def test_heavy_load_keeps_moving_and_drains(self):
        """Dateline classes keep the rings deadlock-free."""
        network = torus_network(
            kind=RouterKind.VIRTUAL_CHANNEL, vcs=2, load=0.5, seed=3
        )
        network.run(600)
        first = network.total_flits_ejected()
        network.run(600)
        assert network.total_flits_ejected() > first
        for generator in network.generators:
            generator.rate_packets_per_cycle = 0.0
        for _ in range(6000):
            network.step()
            if network.drained():
                break
        assert network.drained()
        network.check_conservation()

    def test_ring_pressure_drains(self):
        """Adversarial ring traffic: every node sends halfway around its
        row, maximising wrap-link contention."""
        network = torus_network(vcs=2, radix=4)
        torus = network.mesh
        packets = []
        for node in torus.nodes():
            x, y = torus.coordinates(node)
            dst = torus.node_at((x + 2) % 4, y)
            for _ in range(6):
                packets.append(send(network, node, dst))
        network.run(4000)
        assert all(p.ejection_cycle is not None for p in packets)


class TestDatelineInvariant:
    def test_flits_use_class1_after_crossing(self):
        """Reconstruct each flit's path from buffer-write events: within
        one dimension, once a wrap link is crossed every subsequent
        buffer in that dimension must be a class-1 VC."""
        network = torus_network(vcs=2, radix=4, load=0.4, seed=5)
        tracer = Tracer.attach(network)
        network.run(400)

        torus: Torus = network.mesh
        writes = {}
        for event in tracer.events_of_kind(EventKind.BUFFER_WRITE):
            writes.setdefault((event.packet_id, event.flit_index), []).append(event)

        checked = 0
        for events in writes.values():
            events.sort(key=lambda e: e.cycle)
            crossed_in_dim = {0: False, 1: False}
            previous = None
            for event in events:
                if event.port == LOCAL:
                    previous = event
                    continue
                dimension = port_dimension(event.port)
                if previous is not None and previous.port != LOCAL:
                    if port_dimension(previous.port) != dimension:
                        crossed_in_dim[dimension] = False
                # arriving via `event.port` means the link left the
                # upstream node via the opposite port; wrap detection:
                upstream = torus.neighbor(event.node, event.port)
                from repro.sim.topology import OPPOSITE

                if torus.is_wrap_link(upstream, OPPOSITE[event.port]):
                    crossed_in_dim[dimension] = True
                if crossed_in_dim[dimension]:
                    assert vc_class(event.vc, 2) == 1, event
                    checked += 1
                previous = event
        assert checked > 10  # the invariant was actually exercised


class TestO1TurnNetwork:
    def test_delivery(self):
        network = Network(SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=4, mesh_radix=4, injection_fraction=0.0,
            routing_function="o1turn",
        ))
        packets = [send(network, 0, 15), send(network, 15, 0),
                   send(network, 3, 12), send(network, 12, 3)]
        network.run(300)
        assert all(p.ejection_cycle is not None for p in packets)

    def test_vc_classes_respected(self):
        network = Network(SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2,
            buffers_per_vc=4, mesh_radix=4, injection_fraction=0.35,
            routing_function="o1turn", seed=2,
        ))
        tracer = Tracer.attach(network)
        network.run(400)
        checked = 0
        for event in tracer.events_of_kind(EventKind.BUFFER_WRITE):
            if event.port == LOCAL:
                continue  # injection VC is chosen by the source
            packet = None
            # recover the packet's committed order from its id hash
            class _P:  # minimal shim carrying the id
                packet_id = event.packet_id
            expected = 1 if o1turn_choice(_P) == "yx" else 0
            assert vc_class(event.vc, 2) == expected, event
            checked += 1
        assert checked > 50

    def test_o1turn_helps_transpose(self):
        """The point of per-packet XY/YX: transpose traffic no longer
        concentrates on one diagonal's worth of channels."""
        latencies = {}
        for routing in ("xy", "o1turn"):
            network = Network(SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
                buffers_per_vc=4, mesh_radix=8, injection_fraction=0.40,
                traffic_pattern="transpose", routing_function=routing,
                seed=2,
            ))
            logs = record_deliveries(network)
            network.run(3000)
            delivered = [p for log in logs for p in log]
            assert delivered
            latencies[routing] = sum(p.latency for p in delivered) / len(delivered)
        assert latencies["o1turn"] < latencies["xy"]
