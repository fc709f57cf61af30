"""Failure-injection tests: protocol violations must raise, not corrupt.

The simulator's flow-control machinery asserts its own preconditions
(buffer overflow, credit underflow/overflow, grants without resources,
misdelivered flits).  These tests corrupt state on purpose and check the
violation surfaces as an exception at the first affected operation --
"errors should never pass silently".
"""

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.topology import EAST, LOCAL
from repro.sim.validation import CreditConsistencyProbe, ValidationSuite


def quiet_network(kind=RouterKind.VIRTUAL_CHANNEL, vcs=2, **kw):
    return Network(SimConfig(
        router_kind=kind, num_vcs=vcs, mesh_radix=4, buffers_per_vc=4,
        injection_fraction=0.0, **kw,
    ))


def flit_for(dst=1, length=1):
    return Packet(source=0, destination=dst, length=length,
                  creation_cycle=0).make_flits()[0]


class TestBufferViolations:
    def test_input_buffer_overflow_raises(self):
        network = quiet_network()
        router = network.routers[0]
        for _ in range(4):
            router.input_vcs[EAST][0].buffer.push(flit_for())
        with pytest.raises(OverflowError):
            router.accept_flit(EAST, flit_for(), cycle=0)

    def test_head_into_idle_vc_with_backlog_raises(self):
        network = quiet_network()
        router = network.routers[0]
        ivc = router.input_vcs[EAST][0]
        body = Packet(source=0, destination=1, length=3,
                      creation_cycle=0).make_flits()[1]
        ivc.buffer.push(body)  # stale flit with the VC still idle
        with pytest.raises(AssertionError):
            router.accept_flit(EAST, flit_for(), cycle=0)


class TestCreditViolations:
    def test_forged_credit_raises_on_overflow(self):
        network = quiet_network()
        router = network.routers[0]
        with pytest.raises(ValueError):
            router.receive_credit(EAST, 0)  # counter already full

    def test_stolen_credit_surfaces_at_traversal(self):
        """Drain the granted output VC's credits between the switch grant
        and the traversal: the traversal hits the underflow check.
        (Stealing credits *before* the grant merely stalls the flit --
        eligibility is re-checked at allocation.)"""
        network = quiet_network(kind=RouterKind.SPECULATIVE_VC)
        packet = Packet(source=0, destination=2, length=1, creation_cycle=0)
        network.sources[0].enqueue(packet)
        router = network.routers[0]
        for _ in range(10):
            network.step()
            if router.pending_st:
                break
        assert router.pending_st, "head never won the switch"
        port, vc = router.pending_st[0]
        ivc = router.input_vcs[port][vc]
        counter = router.output_vcs[ivc.route][ivc.out_vc].credits
        while counter.available:
            counter.consume()
        with pytest.raises(ValueError):
            network.step()

    def test_stolen_credits_before_grant_stall_not_crash(self):
        network = quiet_network(kind=RouterKind.SPECULATIVE_VC)
        packet = Packet(source=0, destination=2, length=1, creation_cycle=0)
        network.sources[0].enqueue(packet)
        router = network.routers[0]
        network.step()  # inject + route
        for out_vc in router.output_vcs[EAST]:
            while out_vc.credits.available:
                out_vc.credits.consume()
        network.run(30)  # no grant can happen; must not raise
        assert packet.ejection_cycle is None
        assert router.stats.credits_stalled > 0

    def test_credit_invariant_check_catches_corruption(self):
        network = quiet_network()
        credits = ValidationSuite([CreditConsistencyProbe()])
        credits.attach(network)
        counter = network.routers[0].output_vcs[EAST][0].credits
        counter._credits = 99  # bypass the API
        with pytest.raises(AssertionError):
            credits.after_cycle(network)


class TestRouterStateViolations:
    def test_grant_on_empty_vc_raises(self):
        network = quiet_network()
        router = network.routers[0]
        router.pending_st.append((EAST, 0))
        with pytest.raises(AssertionError):
            network.step()

    def test_grant_without_route_raises(self):
        network = quiet_network()
        router = network.routers[0]
        router.input_vcs[EAST][0].buffer.push(flit_for())
        router.pending_st.append((EAST, 0))
        with pytest.raises(AssertionError):
            network.step()

    def test_misdelivered_flit_raises_at_sink(self):
        network = quiet_network()
        sink = network.sinks[3]
        with pytest.raises(AssertionError):
            sink.accept(flit_for(dst=1), cycle=0)


class TestConservationCheck:
    def test_vanished_flit_detected(self):
        network = quiet_network()
        packet = Packet(source=0, destination=3, length=5, creation_cycle=0)
        network.sources[0].enqueue(packet)
        network.run(3)
        # steal a buffered flit
        router = network.routers[0]
        ivc = router.input_vcs[LOCAL][0]
        assert ivc.buffer, "expected an in-flight flit to steal"
        ivc.buffer.pop()
        with pytest.raises(AssertionError):
            network.check_conservation()


class TestSourceMisuse:
    def test_source_requires_credit(self):
        network = quiet_network()
        source = network.sources[0]
        while source.credits[0].available:
            source.credits[0].consume()
        while source.credits[1].available:
            source.credits[1].consume()
        packet = Packet(source=0, destination=1, length=1, creation_cycle=0)
        source.enqueue(packet)
        injected = source.inject(network.routers[0], cycle=0)
        assert injected is None  # blocked, not crashed
        assert source.backlog_flits == 1
