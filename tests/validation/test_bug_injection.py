"""Deliberately injected bugs must trip the matching probe.

These are the teeth of checked mode: each test arms one case of the
bug catalogue (``bug_cases.py``) -- a credit leak, a speculation-priority
inversion, a stalled allocator -- and asserts the corresponding probe
catches it, with the right probe name, before the corrupted state can
masquerade as a mere performance difference.  ``test_trip_table.py``
runs every case under every probe alone.
"""

from types import SimpleNamespace

import pytest

from repro.sim.config import MeasurementConfig, RouterKind
from repro.sim.engine import simulate
from repro.sim.network import Network
from repro.sim.routers.base import InputVC, VCState
from repro.sim.validation import (
    FlitConservationProbe,
    InOrderDeliveryProbe,
    InvariantViolation,
    ValidationSuite,
    VCExclusivityProbe,
    WatchdogProbe,
)

from .bug_cases import (
    BY_NAME,
    CENTER,
    MASK_FLIPS,
    ROUTE_TABLES,
    SPEC_KERNELS,
    SWITCH_KERNELS,
    mask_flip_name,
    tiny_config,
)

pytestmark = pytest.mark.sim


def trip(monkeypatch, name, checked=True):
    """Arm case ``name``, run it, and return ``(violation, armed)``."""
    sim, armed = BY_NAME[name].arm(monkeypatch, checked=checked)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    assert armed.fired, f"the injected bug {name!r} never fired"
    return excinfo.value.violation, armed


class TestCreditLeak:
    def test_dropped_credit_trips_consistency_probe(self, monkeypatch):
        """A single silently dropped credit breaks the per-link credit
        identity the same cycle it is dropped."""
        violation, _ = trip(monkeypatch, "credit-dropped")
        assert violation.probe == "credit_consistency"

    def test_duplicated_credit_trips_consistency_probe(self, monkeypatch):
        """The mirror bug -- a credit restored twice -- overshoots the
        identity (and would eventually overflow the CreditCounter)."""
        violation, _ = trip(monkeypatch, "credit-duplicated")
        assert violation.probe == "credit_consistency"

    def test_dropped_source_credit_trips_consistency_probe(self, monkeypatch):
        """A credit lost on its way back to a source breaks the
        injection path's identity; no other probe sees it."""
        violation, armed = trip(monkeypatch, "source-credit-dropped")
        assert violation.probe == "credit_consistency"
        assert "injection at node" in violation.message
        assert violation.cycle == armed.cycle + 1


class TestSpeculationInversion:
    def test_unfiltered_speculative_grants_trip_legality_probe(
        self, monkeypatch
    ):
        """Remove the combiner's priority filtering: speculative grants
        no longer yield to non-speculative ones, so the first contended
        cycle produces an inversion (or a double-granted port) and the
        legality probe fires at the end of that cycle -- before the
        illegal grants traverse the crossbar.  The patched ``allocate``
        keeps every router on the generic path, which calls it."""
        violation, _ = trip(monkeypatch, "spec-unfiltered")
        assert violation.probe == "speculation_legality"

    def test_fabricated_grant_trips_legality_probe(self, monkeypatch):
        """A grant answering no submitted request is flagged even when
        it collides with nothing."""
        violation, _ = trip(monkeypatch, "spec-fabricated")
        assert violation.probe == "speculation_legality"
        assert "answers no submitted request" in violation.message

    def test_unrecorded_speculative_grant_trips_legality_probe(
        self, monkeypatch
    ):
        """A compiled combiner that stops recording its speculative
        grants leaves a surviving one looking non-speculative: a switch
        grant to a VC that was not ACTIVE when the allocator ran."""
        violation, armed = trip(monkeypatch, "spec-grant-mask-unrecorded")
        assert violation.probe == "speculation_legality"
        assert "non-speculative grant" in violation.message
        assert violation.cycle == armed.cycle + 1


class TestCompiledKernelInjection:
    @pytest.mark.parametrize(
        "suffix", [suffix for suffix, _, _ in SPEC_KERNELS]
    )
    def test_doubled_output_grant_trips_legality_probe(
        self, monkeypatch, suffix
    ):
        """A compiled speculative kernel that also grants a taken output
        to a second input -- pending traversal, credit and stats exactly
        as a real grant -- is caught on the fast stepper's compiled
        step the cycle it happens."""
        sim, armed = BY_NAME[f"spec-doubled-{suffix}"].arm(monkeypatch)
        network = sim.network
        assert network.routers_specialized == len(network.routers)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert armed.fired, "the injected double grant never fired"
        violation = excinfo.value.violation
        assert violation.probe == "speculation_legality"
        assert "granted twice" in violation.message
        assert violation.cycle == armed.cycle + 1

    @pytest.mark.parametrize(
        "kind", [kind for kind, _ in SWITCH_KERNELS],
        ids=["vc", "wormhole", "single_cycle_vc", "single_cycle_wormhole"],
    )
    def test_doubled_output_grant_trips_switch_probe(self, monkeypatch, kind):
        """The same doubled grant from the plain VC router's switch
        allocation or the wormhole allocator: the compiled switch
        traversal has no duplicate-output check, so the switch probe is
        what catches it on the compiled step.  A single-cycle router
        traverses both grants within the step, so the probe sees them
        as two flits forwarded on one output."""
        sim, armed = BY_NAME[f"switch-doubled-{kind.value}"].arm(monkeypatch)
        network = sim.network
        assert network.routers_specialized == len(network.routers)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert armed.fired, "the injected double grant never fired"
        violation = excinfo.value.violation
        assert violation.probe == "switch_legality"
        assert "granted twice" in violation.message
        assert violation.cycle == armed.cycle + 1


class TestWatchdog:
    def test_stalled_allocator_trips_deadlock_watchdog(self, monkeypatch):
        """Disable switch allocation entirely: injected flits sit in the
        buffers forever and the watchdog trips with a snapshot."""
        suite = ValidationSuite([WatchdogProbe(stall_horizon=50)])
        violation, _ = trip(monkeypatch, "allocator-stalled", checked=suite)
        assert violation.probe == "watchdog"
        assert "deadlock" in violation.message
        assert violation.snapshot is not None
        assert "reproduce" in violation.snapshot

    def test_quiescent_network_never_trips(self):
        """Zero traffic: the watchdog's idle test keeps it silent for
        arbitrarily many cycles."""
        config = tiny_config(RouterKind.WORMHOLE, injection_fraction=0.0)
        suite = ValidationSuite([WatchdogProbe(stall_horizon=10)])
        meas = MeasurementConfig(
            warmup_cycles=200, sample_packets=1, max_cycles=300,
            drain_cycles=50,
        )
        result = simulate(config, meas, checked=suite)
        assert result.validation["ok"]


class TestPackedStateCorruption:
    """Corrupting the packed struct-of-arrays state mid-run must trip
    the matching probe the same cycle.

    The router state lives in flat parallel arrays (``_ovc_credits``,
    the three state bitmasks, ``_ivc_queues``) that the specialized
    steppers index directly.  A stray write to any of them is exactly
    the failure mode a fast-path bug would produce, so each case
    reaches into one packed structure after a router's phases run
    (``bug_cases.corrupt_once``) and the test asserts checked mode
    catches the drift before it can masquerade as ordinary
    backpressure.
    """

    def test_packed_credit_decrement_trips_consistency_probe(
        self, monkeypatch
    ):
        """Stealing one credit from the flat ``_ovc_credits`` array
        breaks the per-link credit identity."""
        violation, _ = trip(monkeypatch, "packed-credit-stolen")
        assert violation.probe == "credit_consistency"

    @pytest.mark.parametrize(
        "kind, mask, bit",
        [pytest.param(*flip, id=mask_flip_name(*flip)[len("mask-flip-"):])
         for flip in MASK_FLIPS],
    )
    def test_flipped_state_bitmask_bit_trips_exclusivity_probe(
        self, monkeypatch, kind, mask, bit
    ):
        """The three masks are the only copy of input-VC state, so a
        toggled bit is a VC that changed state without the fields beside
        it following: whichever mask, VC and direction, the probe names
        it on the cycle of the flip."""
        violation, armed = trip(
            monkeypatch, mask_flip_name(kind, mask, bit),
            checked=ValidationSuite([VCExclusivityProbe()]),
        )
        assert violation.probe == "vc_exclusivity"
        # Probes run on the settled state of the step that made the
        # flip and stamp the clock after it.
        assert violation.cycle == armed.cycle + 1
        assert "bitmasks out of sync" in violation.message

    def test_input_vc_state_is_a_view_of_the_masks(self):
        """``InputVC`` stores no state of its own: assigning
        ``ivc.state`` moves the VC's bit between the router's masks and
        reading it decodes them."""
        assert "state" not in InputVC.__slots__
        router = Network(tiny_config(RouterKind.SPECULATIVE_VC)).routers[CENTER]
        ivc = router._all_ivcs[3]
        masks = {
            VCState.ROUTING: "_routing_mask",
            VCState.VC_ALLOC: "_va_mask",
            VCState.ACTIVE: "_active_mask",
        }
        for state in [*VCState, VCState.IDLE]:
            ivc.state = state
            assert ivc.state is state
            for stored_as, name in masks.items():
                expected = 1 << ivc.flat if stored_as is state else 0
                assert getattr(router, name) == expected
        router._va_mask = 1 << ivc.flat
        assert ivc.state is VCState.VC_ALLOC

    def test_corrupted_route_entry_trips_exclusivity_probe(
        self, monkeypatch
    ):
        """Rewriting an active input VC's route orphans the output VC
        it holds: the holder no longer points back at it."""
        violation, _ = trip(
            monkeypatch, "route-entry-rewritten",
            checked=ValidationSuite([VCExclusivityProbe()]),
        )
        assert violation.probe == "vc_exclusivity"

    def test_corrupted_wormhole_route_trips_exclusivity_probe(
        self, monkeypatch
    ):
        """The same rewrite on a wormhole router orphans the output
        port it holds, three cycles before the switch probe or the
        crossbar notice."""
        violation, armed = trip(
            monkeypatch, "route-entry-rewritten-wormhole",
            checked=ValidationSuite([VCExclusivityProbe()]),
        )
        assert violation.probe == "vc_exclusivity"
        assert "claims output" in violation.message
        assert violation.cycle == armed.cycle + 1

    def test_silently_dropped_flit_trips_conservation_probe(
        self, monkeypatch
    ):
        """Popping a flit out of a flat buffer queue without forwarding
        it breaks the network's injected/ejected/in-flight ledger."""
        violation, _ = trip(
            monkeypatch, "buffered-flit-dropped",
            checked=ValidationSuite([FlitConservationProbe()]),
        )
        assert violation.probe == "flit_conservation"

    def test_flit_lost_from_ejection_channel_trips_conservation_probe(
        self, monkeypatch
    ):
        """A tail lost on its way to the sink: no credit covers an
        ejection channel, so only the network-wide ledger sees it."""
        violation, armed = trip(monkeypatch, "ejecting-tail-dropped")
        assert violation.probe == "flit_conservation"
        assert violation.cycle == armed.cycle + 1


class TestRouteTableCorruption:
    """Corrupting a router's routing table must be observable.

    ``_route_table`` is the router's only routing decision, read by the
    generic route methods as well as the compiled RC closures.  The
    injection wraps ``BaseRouter.cycle``, so these runs take the generic
    path, and a corrupted table steers real packets: the first head it
    misroutes ejects at the wrong sink, ``Sink.accept`` rejects it and
    the delivery probe reports that the cycle it arrives.  If the
    generic path ever stopped reading the table, the corruption would
    become invisible and these tests would fail on ``fired``/``raises``.
    """

    @staticmethod
    def assert_corruption_trips_delivery(monkeypatch, kind, routing):
        violation, _ = trip(monkeypatch, f"route-table-{kind.value}-{routing}")
        assert violation.probe == "in_order_delivery"
        assert f"ejected at node {CENTER}" in violation.message

    @pytest.mark.parametrize(
        "kind, routing",
        [pytest.param(kind, routing, id=f"{kind.value}-{routing}")
         for kind, routing in ROUTE_TABLES[:4]],
    )
    def test_corrupted_route_table_trips_delivery_probe(
        self, monkeypatch, kind, routing
    ):
        self.assert_corruption_trips_delivery(monkeypatch, kind, routing)


class TestRouteMemoCorruption:
    """Corrupting a packet-dependent route table must be observable.

    o1turn and adaptive entries carry more than one port -- (xy port,
    yx port) and (productive ports, DOR port) -- and the choice among
    them is made per packet, so a corrupted entry only shows once a
    head consults it.  The same ``_route_table`` corruption as for the
    static functions must still steer a packet to the wrong sink.
    """

    def test_corrupted_o1turn_memo_trips_delivery_probe(self, monkeypatch):
        TestRouteTableCorruption.assert_corruption_trips_delivery(
            monkeypatch, RouterKind.SPECULATIVE_VC, "o1turn"
        )

    def test_corrupted_adaptive_memo_trips_delivery_probe(self, monkeypatch):
        TestRouteTableCorruption.assert_corruption_trips_delivery(
            monkeypatch, RouterKind.SPECULATIVE_VC, "adaptive"
        )


class TestMatchingAdjacencyCorruption:
    def test_flipped_adjacency_bit_trips_legality_probe(self, monkeypatch):
        """Pointing one group's adjacency bitmask at a resource nobody
        requested makes the maximum matcher emit a grant answering no
        request; the legality probe flags it at the end of that cycle,
        before the grant traverses.  The compiled kernels call the
        patched ``_match`` too, so this runs on the compiled step."""
        violation, _ = trip(monkeypatch, "matching-adjacency-flipped")
        assert violation.probe == "speculation_legality"
        assert "answers no submitted request" in violation.message


class TestInOrderDelivery:
    @staticmethod
    def _bound_probe():
        probe = InOrderDeliveryProbe()
        suite = ValidationSuite([probe], fail_fast=False)
        probe.bind(suite)
        return probe, suite

    @staticmethod
    def _flit(pid, index, length, destination=3):
        packet = SimpleNamespace(
            packet_id=pid, length=length, destination=destination
        )
        return SimpleNamespace(
            packet=packet, index=index, is_tail=index == length - 1,
            destination=destination,
        )

    def test_wrong_destination_is_flagged(self):
        """The destination check is the sink's own; the probe's wrapper
        reports it as a delivery violation and lets it end the run."""
        network = Network(tiny_config(RouterKind.WORMHOLE))
        probe, suite = self._bound_probe()
        probe.attach(network)
        with pytest.raises(AssertionError):
            network.sinks[9].accept(self._flit(7, 0, 3, destination=3), 10)
        assert not suite.ok
        assert "flit for node 3 ejected at node 9" in (
            suite.violations[0].message
        )

    def test_out_of_order_flit_is_flagged(self):
        probe, suite = self._bound_probe()
        sink = SimpleNamespace(node=3)
        probe._observe(sink, self._flit(7, 0, 3), cycle=10)
        probe._observe(sink, self._flit(7, 2, 3), cycle=11)  # skipped 1
        assert not suite.ok
        assert "expected index 1" in suite.violations[0].message

    def test_swapped_ejecting_flits_trip_delivery_probe(self, monkeypatch):
        """Two flits of a packet swapped on the ejection channel reach
        their own sink out of index order: only this probe sees it."""
        violation, armed = trip(monkeypatch, "ejecting-flits-swapped")
        assert violation.probe == "in_order_delivery"
        assert "expected index" in violation.message
        assert violation.cycle == armed.cycle + 1

    def test_in_order_packet_is_clean(self):
        probe, suite = self._bound_probe()
        sink = SimpleNamespace(node=3)
        for index in range(3):
            probe._observe(sink, self._flit(7, index, 3), 10 + index)
        assert suite.ok
        assert probe._expected == {}  # tail retired the tracking entry
