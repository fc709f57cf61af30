"""Unit tests for the injection sources and ejection sinks."""

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.flit import Packet
from repro.sim.network import Network, Sink, Source
from repro.sim.topology import LOCAL


def network_and_router(vcs=2, kind=RouterKind.VIRTUAL_CHANNEL):
    network = Network(SimConfig(
        router_kind=kind, num_vcs=vcs, mesh_radix=4, buffers_per_vc=4,
        injection_fraction=0.0,
    ))
    return network, network.routers[0]


def packet(dst=1, length=5):
    return Packet(source=0, destination=dst, length=length, creation_cycle=0)


class TestSource:
    def test_injects_one_flit_per_cycle(self):
        network, router = network_and_router()
        source = network.sources[0]
        source.enqueue(packet(length=5))
        injected = [source.inject(router, c) for c in range(3)]
        assert all(f is not None for f in injected)
        assert [f.index for f in injected] == [0, 1, 2]

    def test_respects_buffer_credits(self):
        network, router = network_and_router()
        source = network.sources[0]
        source.enqueue(packet(length=10))
        flits = [source.inject(router, c) for c in range(6)]
        # capacity 4 per VC: the fifth attempt stalls
        assert [f is not None for f in flits] == [True] * 4 + [False, False]

    def test_credit_restore_resumes(self):
        network, router = network_and_router()
        source = network.sources[0]
        source.enqueue(packet(length=6))
        for c in range(4):
            source.inject(router, c)
        assert source.inject(router, 4) is None
        # the router drains one flit and hands the credit back
        router.input_vcs[LOCAL][0].buffer.pop()
        source.restore_credit(0)
        assert source.inject(router, 5) is not None

    def test_two_packets_use_distinct_vcs(self):
        network, router = network_and_router()
        source = network.sources[0]
        source.enqueue(packet(length=8))
        source.enqueue(packet(dst=2, length=8))
        vcids = set()
        for c in range(8):
            flit = source.inject(router, c)
            if flit is not None:
                vcids.add(flit.vcid)
        assert vcids == {0, 1}  # round-robin interleaves the streams

    def test_wormhole_source_single_stream(self):
        network, router = network_and_router(vcs=1, kind=RouterKind.WORMHOLE)
        source = network.sources[0]
        source.enqueue(packet(length=3))
        source.enqueue(packet(dst=2, length=3))
        order = []
        for c in range(10):
            flit = source.inject(router, c)
            if flit is not None:
                order.append((flit.packet.packet_id, flit.index))
                # free the slot again so injection continues
                router.input_vcs[LOCAL][0].buffer.pop()
                source.restore_credit(0)
        # strictly one packet after the other, flits in order
        first = order[0][0]
        boundary = max(i for i, (pid, _) in enumerate(order) if pid == first)
        assert all(pid == first for pid, _ in order[: boundary + 1])
        assert [idx for _, idx in order[: boundary + 1]] == [0, 1, 2]

    def test_backlog_accounting(self):
        network, router = network_and_router()
        source = network.sources[0]
        source.enqueue(packet(length=5))
        source.enqueue(packet(dst=2, length=5))
        assert source.backlog_flits == 10
        source.inject(router, 0)
        assert source.backlog_flits == 9
        assert source.queued_packets == 2

    def test_empty_source_injects_nothing(self):
        network, router = network_and_router()
        assert network.sources[0].inject(router, 0) is None


class TestSink:
    def test_counts_flits_and_packets(self):
        sink = Sink(node=1)
        delivered = packet(length=3)
        for cycle, flit in enumerate(delivered.make_flits()):
            sink.accept(flit, cycle)
        assert sink.flits_ejected == 3
        assert sink.packets_ejected == 1
        assert delivered.ejection_cycle == 2

    def test_measured_counter(self):
        sink = Sink(node=1)
        measured = packet(length=1)
        unmeasured = packet(length=1)
        unmeasured.measured = False
        sink.accept(measured.make_flits()[0], 0)
        sink.accept(unmeasured.make_flits()[0], 1)
        assert sink.packets_ejected == 2
        assert sink.measured_ejected == 1

    def test_keeps_measured_latencies_not_packets(self):
        sink = Sink(node=1)
        measured = Packet(source=0, destination=1, length=1,
                          creation_cycle=3)
        unmeasured = packet(length=1)
        unmeasured.measured = False
        sink.accept(unmeasured.make_flits()[0], 4)
        sink.accept(measured.make_flits()[0], 10)
        assert list(sink.latencies) == [7]
        assert measured.ejection_cycle == 10
        # Counts and latencies only: nothing that could hold a packet.
        assert set(vars(sink)) == {
            "node", "flits_ejected", "packets_ejected", "measured_ejected",
            "latencies", "_totals",
        }

    def test_wrong_destination_raises(self):
        sink = Sink(node=9)
        with pytest.raises(AssertionError):
            sink.accept(packet(dst=1, length=1).make_flits()[0], 0)
