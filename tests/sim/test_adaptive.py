"""Tests for minimal adaptive routing with Duato escape VCs (footnote 5)."""

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.dateline import AdaptiveEscapeVCs
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.routing import dimension_order_route, productive_ports
from repro.sim.topology import EAST, LOCAL, Mesh, SOUTH, Torus, WEST
from repro.sim.validation.oracle import record_deliveries


def adaptive_network(kind=RouterKind.SPECULATIVE_VC, vcs=2, radix=4,
                     load=0.0, bufs=4, seed=0, **kw):
    return Network(SimConfig(
        router_kind=kind, num_vcs=vcs, mesh_radix=radix, buffers_per_vc=bufs,
        injection_fraction=load, routing_function="adaptive", seed=seed, **kw,
    ))


def send(network, src, dst, length=5):
    packet = Packet(source=src, destination=dst, length=length,
                    creation_cycle=0)
    network.sources[src].enqueue(packet)
    return packet


class TestProductivePorts:
    mesh = Mesh(4)

    def test_two_dimensions_give_two_ports(self):
        ports = productive_ports(self.mesh, 0, 5)  # (0,0) -> (1,1)
        assert set(ports) == {EAST, SOUTH}

    def test_one_dimension_gives_one_port(self):
        assert productive_ports(self.mesh, 0, 3) == [EAST]
        assert productive_ports(self.mesh, 3, 0) == [WEST]

    def test_destination_gives_local(self):
        assert productive_ports(self.mesh, 5, 5) == [LOCAL]

    def test_all_productive_ports_are_minimal(self):
        for src in self.mesh.nodes():
            for dst in self.mesh.nodes():
                if src == dst:
                    continue
                for port in productive_ports(self.mesh, src, dst):
                    neighbor = self.mesh.neighbor(src, port)
                    assert (
                        self.mesh.hop_distance(neighbor, dst)
                        == self.mesh.hop_distance(src, dst) - 1
                    )

    def test_dor_port_always_productive(self):
        for src in self.mesh.nodes():
            for dst in self.mesh.nodes():
                if src == dst:
                    continue
                dor = dimension_order_route(self.mesh, src, dst)
                assert dor in productive_ports(self.mesh, src, dst)


class TestEscapePolicy:
    def test_requires_two_vcs(self):
        with pytest.raises(ValueError):
            AdaptiveEscapeVCs(1)

    def test_escape_only_on_dor_port(self):
        policy = AdaptiveEscapeVCs(3)
        mesh = Mesh(4)
        head = Packet(source=0, destination=5, length=1,
                      creation_cycle=0).make_flits()[0]
        # from node 0 to node 5, DOR port is EAST; SOUTH is the adaptive
        # alternative.
        east = policy.allowed_vcs(mesh, 0, LOCAL, 0, EAST, head)
        south = policy.allowed_vcs(mesh, 0, LOCAL, 0, SOUTH, head)
        assert 0 in east
        assert 0 not in south
        assert set(south) == {1, 2}

    def test_ejection_unrestricted(self):
        policy = AdaptiveEscapeVCs(2)
        head = Packet(source=0, destination=5, length=1,
                      creation_cycle=0).make_flits()[0]
        assert set(policy.allowed_vcs(Mesh(4), 5, EAST, 0, LOCAL, head)) == {0, 1}


class TestConfigGuards:
    def test_adaptive_needs_vcs(self):
        with pytest.raises(ValueError):
            SimConfig(router_kind=RouterKind.WORMHOLE,
                      routing_function="adaptive")

    def test_adaptive_mesh_only(self):
        with pytest.raises(ValueError):
            SimConfig(router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=4,
                      routing_function="adaptive", topology="torus")


class TestAdaptiveNetwork:
    def test_delivery_all_pairs(self):
        network = adaptive_network(radix=3)
        packets = [
            send(network, src, dst)
            for src in range(9) for dst in range(9) if src != dst
        ]
        network.run(2500)
        assert all(p.ejection_cycle is not None for p in packets)

    def test_zero_load_latency_unchanged(self):
        """Adaptivity must not cost latency when the network is empty."""
        network = adaptive_network(bufs=8)
        packet = send(network, 0, 15)  # 6 minimal hops
        network.run(100)
        assert packet.latency == 4 * 6 + 8

    def test_heavy_load_drains(self):
        """Escape VCs + reiteration keep adaptive routing deadlock-free."""
        network = adaptive_network(
            kind=RouterKind.VIRTUAL_CHANNEL, vcs=3, bufs=2, load=0.6, seed=3
        )
        network.run(1200)
        for generator in network.generators:
            generator.rate_packets_per_cycle = 0.0
        for _ in range(9000):
            network.step()
            if network.drained():
                break
        assert network.drained()
        network.check_conservation()

    def test_reroutes_happen_under_contention(self):
        network = adaptive_network(
            kind=RouterKind.VIRTUAL_CHANNEL, vcs=2, bufs=2, load=0.7, seed=1
        )
        network.run(800)
        assert sum(r.stats.reroutes for r in network.routers) > 0

    def test_no_reroutes_in_empty_network(self):
        network = adaptive_network(bufs=8)
        send(network, 0, 15)
        network.run(100)
        assert sum(r.stats.reroutes for r in network.routers) == 0

    def test_adaptive_beats_xy_on_transpose(self):
        latencies = {}
        for routing in ("xy", "adaptive"):
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
        assert latencies["adaptive"] < 0.6 * latencies["xy"]

    def test_paths_remain_minimal(self):
        """Minimal adaptive: every delivered packet's latency matches a
        minimal-path traversal (no detours at low load)."""
        network = adaptive_network(radix=4, bufs=8, load=0.1, seed=4)
        logs = record_deliveries(network)
        network.run(600)
        mesh = network.mesh
        delivered = [p for log in logs for p in log]
        assert len(delivered) > 10
        for packet in delivered:
            hops = mesh.hop_distance(packet.source, packet.destination)
            minimum = 4 * hops + 8
            assert packet.latency >= minimum
