"""Deliberately injected bugs must trip the matching probe.

These are the teeth of checked mode: each test monkeypatches a real bug
into the simulator (a credit leak, a speculation-priority inversion, a
stalled allocator) and asserts the corresponding probe catches it --
with the right probe name, before the corrupted state can masquerade as
a mere performance difference.
"""

from types import SimpleNamespace

import pytest

from repro.sim.allocators import SpeculativeSwitchAllocator
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.credit import CreditCounter
from repro.sim.engine import Simulator, simulate
from repro.sim.network import Network
from repro.sim.routers import specialized
from repro.sim.routers.base import BaseRouter, InputVC, VCState
from repro.sim.routers.wormhole import WormholeRouter
from repro.sim.topology import LOCAL, NUM_PORTS
from repro.sim.validation import (
    FlitConservationProbe,
    InOrderDeliveryProbe,
    InvariantViolation,
    ValidationSuite,
    VCExclusivityProbe,
    WatchdogProbe,
)

pytestmark = pytest.mark.sim

MEAS = MeasurementConfig(
    warmup_cycles=300, sample_packets=100, max_cycles=12_000,
    drain_cycles=6_000,
)


#: Every single-bit flip of every state mask, per router family.
MASK_FLIPS = [
    pytest.param(kind, mask, bit, id=f"{kind.value}-{mask.strip('_')}-{bit}")
    for kind in (RouterKind.SPECULATIVE_VC, RouterKind.VIRTUAL_CHANNEL,
                 RouterKind.WORMHOLE)
    for mask in ("_routing_mask", "_va_mask", "_active_mask")
    for bit in range(NUM_PORTS * (2 if kind.uses_vcs else 1))
]


def tiny_config(kind, **overrides):
    defaults = dict(
        router_kind=kind, mesh_radix=4,
        num_vcs=2 if kind.uses_vcs else 1,
        buffers_per_vc=5, injection_fraction=0.3, seed=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestCreditLeak:
    def test_dropped_credit_trips_consistency_probe(self, monkeypatch):
        """A single silently dropped credit breaks the per-link credit
        identity the same cycle it is dropped."""
        real = BaseRouter.receive_credit
        dropped = []

        def leaky(self, port, vc):
            if not dropped:
                dropped.append((self.node, port, vc))
                return  # the leak: credit arrives but is never restored
            real(self, port, vc)

        monkeypatch.setattr(BaseRouter, "receive_credit", leaky)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(tiny_config(RouterKind.WORMHOLE), MEAS, checked=True)
        assert dropped, "the injected leak never fired"
        assert excinfo.value.violation.probe == "credit_consistency"

    def test_duplicated_credit_trips_consistency_probe(self, monkeypatch):
        """The mirror bug -- a credit restored twice -- overshoots the
        identity (and would eventually overflow the CreditCounter)."""
        real = BaseRouter.receive_credit
        duplicated = []

        def doubling(self, port, vc):
            real(self, port, vc)
            if not duplicated and self.output_vcs[port][vc].credits.in_use:
                duplicated.append((self.node, port, vc))
                real(self, port, vc)

        monkeypatch.setattr(BaseRouter, "receive_credit", doubling)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(tiny_config(RouterKind.WORMHOLE), MEAS, checked=True)
        assert duplicated, "the injected duplication never fired"
        assert excinfo.value.violation.probe == "credit_consistency"


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

        def unfiltered(self, nonspec_requests, spec_requests):
            nonspec_grants = self._nonspec.allocate(nonspec_requests)
            spec_grants = self._spec.allocate(spec_requests)
            return nonspec_grants, spec_grants

        monkeypatch.setattr(
            SpeculativeSwitchAllocator, "allocate", unfiltered
        )
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(RouterKind.SPECULATIVE_VC, injection_fraction=0.5),
                MEAS, checked=True,
            )
        assert excinfo.value.violation.probe == "speculation_legality"

    def test_fabricated_grant_trips_legality_probe(self, monkeypatch):
        """A grant answering no submitted request is flagged even when
        it collides with nothing."""
        from repro.sim.allocators import Grant

        real = SpeculativeSwitchAllocator.allocate

        def fabricating(self, nonspec_requests, spec_requests):
            nonspec_grants, spec_grants = real(
                self, nonspec_requests, spec_requests
            )
            if not nonspec_grants and not spec_grants:
                return nonspec_grants, spec_grants
            return nonspec_grants, list(spec_grants) + [Grant(4, 0, 4)]

        monkeypatch.setattr(
            SpeculativeSwitchAllocator, "allocate", fabricating
        )
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(RouterKind.SPECULATIVE_VC), MEAS, checked=True
            )
        assert excinfo.value.violation.probe == "speculation_legality"
        assert "answers no submitted request" in str(excinfo.value)


#: One compiled speculative kernel per allocator kind and priority:
#: (kernel builder, config overrides).
SPEC_KERNELS = [
    pytest.param("_make_spec_alloc", {}, id="separable"),
    pytest.param("_make_spec_alloc", {"allocator_kind": "maximum"},
                 id="maximum"),
    pytest.param(
        "_make_spec_alloc_equal", {"speculation_priority": "equal"},
        id="equal",
    ),
]


class TestCompiledKernelInjection:
    @pytest.mark.parametrize("kernel, overrides", SPEC_KERNELS)
    def test_doubled_output_grant_trips_legality_probe(
        self, monkeypatch, kernel, overrides
    ):
        """A compiled speculative kernel that also grants a taken output
        to a second input -- pending traversal, credit and stats exactly
        as a real grant -- is caught on the fast stepper's compiled
        step the cycle it happens."""
        real = getattr(specialized, kernel)
        fired = []

        def build(router, cand=None):
            alloc = real(router, cand)

            def doubled(cycle):
                active = router._active_mask  # the non-speculative bidders
                alloc(cycle)
                if fired or not router.pending_st:
                    return
                port, vc = router.pending_st[0]
                taken = router.input_vcs[port][vc].route
                for ivc in router._all_ivcs:
                    if (ivc.port != port and ivc.route == taken
                            and active >> ivc.flat & 1 and ivc.buffer
                            and router.output_vcs[taken][ivc.out_vc].credits
                            and (ivc.port, ivc.vc) not in router.pending_st):
                        router._grant_switch(ivc.port, ivc.vc, cycle)
                        fired.append((router.node, cycle))
                        return

            return doubled

        monkeypatch.setattr(specialized, kernel, build)
        sim = Simulator(
            tiny_config(
                RouterKind.SPECULATIVE_VC, injection_fraction=0.5,
                **overrides,
            ),
            MEAS, checked=True,
        )
        network = sim.network
        assert network.routers_specialized == len(network.routers)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert fired, "the injected double grant never fired"
        violation = excinfo.value.violation
        assert violation.probe == "speculation_legality"
        assert "granted twice" in violation.message
        assert violation.cycle == fired[0][1] + 1

    @pytest.mark.parametrize("kind, kernel", [
        pytest.param(RouterKind.VIRTUAL_CHANNEL, "_make_vc_sa", id="vc"),
        pytest.param(RouterKind.WORMHOLE, "_make_wormhole_alloc",
                     id="wormhole"),
        pytest.param(RouterKind.SINGLE_CYCLE_VC, "_make_vc_sa",
                     id="single_cycle_vc"),
        pytest.param(RouterKind.SINGLE_CYCLE_WORMHOLE,
                     "_make_wormhole_alloc", id="single_cycle_wormhole"),
    ])
    def test_doubled_output_grant_trips_switch_probe(
        self, monkeypatch, kind, kernel
    ):
        """The same doubled grant from the plain VC router's switch
        allocation or the wormhole allocator: the compiled switch
        traversal has no duplicate-output check, so the switch probe is
        what catches it on the compiled step.  A single-cycle router
        traverses both grants within the step, so the probe sees them
        as two flits forwarded on one output."""
        real = getattr(specialized, kernel)
        fired = []

        def build(router, grant, **flags):
            alloc = real(router, grant, **flags)

            def doubled(cycle):
                active = router._active_mask  # the bidders
                alloc(cycle)
                if fired or not router.pending_st:
                    return
                port, vc = router.pending_st[-1]
                taken = router.input_vcs[port][vc].route
                for ivc in router._all_ivcs:
                    # A wormhole head gets its output VC with the grant.
                    out_vc = 0 if ivc.out_vc is None else ivc.out_vc
                    if (ivc.port != port and ivc.route == taken
                            and active >> ivc.flat & 1 and ivc.buffer
                            and router.output_vcs[taken][out_vc].credits
                            and (ivc.port, ivc.vc) not in router.pending_st):
                        ivc.out_vc = out_vc
                        grant(ivc.port, ivc.vc, cycle)
                        fired.append((router.node, cycle))
                        return

            return doubled

        monkeypatch.setattr(specialized, kernel, build)
        sim = Simulator(
            tiny_config(kind, injection_fraction=0.5), MEAS, checked=True
        )
        network = sim.network
        assert network.routers_specialized == len(network.routers)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert fired, "the injected double grant never fired"
        violation = excinfo.value.violation
        assert violation.probe == "switch_legality"
        assert "granted twice" in violation.message
        assert violation.cycle == fired[0][1] + 1


class TestWatchdog:
    def test_stalled_allocator_trips_deadlock_watchdog(self, monkeypatch):
        """Disable switch allocation entirely: injected flits sit in the
        buffers forever and the watchdog trips with a snapshot."""
        monkeypatch.setattr(
            WormholeRouter, "_allocation_phase", lambda self, cycle: None
        )
        config = tiny_config(RouterKind.WORMHOLE)
        suite = ValidationSuite([WatchdogProbe(stall_horizon=50)])
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(config, MEAS, checked=suite)
        violation = excinfo.value.violation
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
    the failure mode a fast-path bug would produce, so each test
    reaches into one packed structure after a router's phases run and
    asserts checked mode catches the drift before it can masquerade as
    ordinary backpressure.
    """

    #: Cycle after which the one-shot corruption arms -- past warmup,
    #: so traffic is flowing and the corrupted state is live.
    CORRUPT_AFTER = 400

    #: Center node of the 4x4 mesh (x=1, y=1): every port has a real
    #: neighbor, so corrupted state is on links the probes watch.
    CENTER = 5

    @classmethod
    def _corrupt_once_after(cls, monkeypatch, corrupt):
        """Wrap ``BaseRouter.cycle`` to apply ``corrupt`` exactly once.

        ``corrupt(router, cycle)`` runs after the router's phases and
        returns True once it found a victim and mutated it; the probe
        sweep at the end of that same network cycle then sees the
        corruption.  Returns the ``fired`` list for asserting the
        injection actually happened.
        """
        real = BaseRouter.cycle
        fired = []

        def wrapped(self, cycle):
            real(self, cycle)
            if not fired and cycle >= cls.CORRUPT_AFTER \
                    and corrupt(self, cycle):
                fired.append((self.node, cycle))

        monkeypatch.setattr(BaseRouter, "cycle", wrapped)
        return fired

    def test_packed_credit_decrement_trips_consistency_probe(
        self, monkeypatch
    ):
        """Stealing one credit from the flat ``_ovc_credits`` array
        breaks the per-link credit identity."""

        def steal_credit(router, cycle):
            if router.node != self.CENTER:
                return False
            # Flat index num_vcs == (EAST, vc 0); a real CreditCounter,
            # unlike the LOCAL port's InfiniteCredits at 0..v-1.
            counter = router._ovc_credits[router.num_vcs]
            assert isinstance(counter, CreditCounter)
            if counter._credits <= 0:
                return False
            counter._credits -= 1
            return True

        fired = self._corrupt_once_after(monkeypatch, steal_credit)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(RouterKind.SPECULATIVE_VC), MEAS, checked=True
            )
        assert fired, "the injected credit theft never fired"
        assert excinfo.value.violation.probe == "credit_consistency"

    @pytest.mark.parametrize("kind, mask, bit", MASK_FLIPS)
    def test_flipped_state_bitmask_bit_trips_exclusivity_probe(
        self, monkeypatch, kind, mask, bit
    ):
        """The three masks are the only copy of input-VC state, so a
        toggled bit is a VC that changed state without the fields beside
        it following: whichever mask, VC and direction, the probe names
        it on the cycle of the flip."""

        def flip_bit(router, cycle):
            if router.node != self.CENTER:
                return False
            setattr(router, mask, getattr(router, mask) ^ (1 << bit))
            return True

        fired = self._corrupt_once_after(monkeypatch, flip_bit)
        suite = ValidationSuite([VCExclusivityProbe()])
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(tiny_config(kind), MEAS, checked=suite)
        assert fired, "the injected mask flip never fired"
        violation = excinfo.value.violation
        assert violation.probe == "vc_exclusivity"
        # Probes run on the settled state of the step that made the
        # flip and stamp the clock after it.
        assert violation.cycle == fired[0][1] + 1
        assert "bitmasks out of sync" in violation.message

    def test_input_vc_state_is_a_view_of_the_masks(self):
        """``InputVC`` stores no state of its own: assigning
        ``ivc.state`` moves the VC's bit between the router's masks and
        reading it decodes them."""
        assert "state" not in InputVC.__slots__
        router = Network(
            tiny_config(RouterKind.SPECULATIVE_VC)
        ).routers[self.CENTER]
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

        def rewrite_route(router, cycle):
            for ivc in router._all_ivcs:
                if ivc.state is VCState.ACTIVE and ivc.out_vc is not None:
                    ivc.route = (ivc.route + 1) % NUM_PORTS
                    return True
            return False

        fired = self._corrupt_once_after(monkeypatch, rewrite_route)
        suite = ValidationSuite([VCExclusivityProbe()])
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(RouterKind.SPECULATIVE_VC), MEAS, checked=suite
            )
        assert fired, "the injected route rewrite never fired"
        assert excinfo.value.violation.probe == "vc_exclusivity"

    def test_silently_dropped_flit_trips_conservation_probe(
        self, monkeypatch
    ):
        """Popping a flit out of a flat buffer queue without forwarding
        it breaks the router's received/forwarded/buffered ledger."""

        def drop_flit(router, cycle):
            for queue in router._ivc_queues:
                if queue:
                    queue.popleft()
                    return True
            return False

        fired = self._corrupt_once_after(monkeypatch, drop_flit)
        suite = ValidationSuite([FlitConservationProbe()])
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(RouterKind.SPECULATIVE_VC), MEAS, checked=suite
            )
        assert fired, "the injected flit drop never fired"
        assert excinfo.value.violation.probe == "flit_conservation"


#: The static routing functions on speculative VC, plus xy on the
#: other pipelines: (router kind, routing function).  The
#: packet-dependent functions are covered by ``TestRouteMemoCorruption``.
ROUTE_TABLE_CASES = [
    pytest.param(kind, routing, id=f"{kind.value}-{routing}")
    for kind, routing in [
        (RouterKind.SPECULATIVE_VC, "xy"),
        (RouterKind.SPECULATIVE_VC, "yx"),
        (RouterKind.WORMHOLE, "xy"),
        (RouterKind.VIRTUAL_CHANNEL, "xy"),
    ]
]


class TestRouteTableCorruption:
    """Corrupting a router's routing table must be observable.

    ``_route_table`` is the router's only routing decision, read by the
    generic route methods as well as the compiled RC closures.  The
    injection wraps ``BaseRouter.cycle``, so these runs take the generic
    path, and a corrupted table steers real packets: the first head it
    misroutes ejects at the wrong sink and the delivery probe flags it
    the cycle it arrives.  If the generic path ever stopped reading the
    table, the corruption would become invisible and these tests would
    fail on ``fired``/``raises``.
    """

    CENTER = TestPackedStateCorruption.CENTER

    @staticmethod
    def _all_local(entry):
        """An entry of the same shape as ``entry`` that says "eject"."""
        if isinstance(entry, int):
            return LOCAL  # xy / yx: the output port
        if isinstance(entry[0], int):
            return (LOCAL, LOCAL)  # o1turn: (xy port, yx port)
        return ((LOCAL,), LOCAL)  # adaptive: (productive ports, DOR)

    @classmethod
    def assert_corruption_trips_delivery(cls, monkeypatch, kind, routing):
        def corrupt(router, cycle):
            if router.node != cls.CENTER:
                return False
            router._route_table = tuple(
                cls._all_local(entry) for entry in router._route_table
            )
            return True

        fired = TestPackedStateCorruption._corrupt_once_after(
            monkeypatch, corrupt
        )
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(kind, routing_function=routing),
                MEAS, checked=True,
            )
        assert fired, "the injected route-table corruption never fired"
        violation = excinfo.value.violation
        assert violation.probe == "in_order_delivery"
        assert f"ejected at node {cls.CENTER}" in violation.message

    @pytest.mark.parametrize("kind, routing", ROUTE_TABLE_CASES)
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
        from repro.sim.matching import MaximumMatchingAllocator

        real = MaximumMatchingAllocator._match
        fired = []

        def corrupting(self, adjacency, chooser):
            # Target the speculative switch sub-allocators (p resources);
            # leave the (p*v)-resource VC allocator alone.
            if self.num_resources == NUM_PORTS and adjacency:
                requested = 0
                for mask in adjacency.values():
                    requested |= mask
                group = sorted(adjacency)[0]
                for resource in range(self.num_resources):
                    if not requested >> resource & 1:
                        adjacency[group] = 1 << resource
                        chooser[group * self.num_resources + resource] = 0
                        fired.append((group, resource))
                        break
            return real(self, adjacency, chooser)

        monkeypatch.setattr(MaximumMatchingAllocator, "_match", corrupting)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate(
                tiny_config(
                    RouterKind.SPECULATIVE_VC, allocator_kind="maximum",
                    injection_fraction=0.4,
                ),
                MEAS, checked=True,
            )
        assert fired, "the injected adjacency flip never fired"
        violation = excinfo.value.violation
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
            packet=packet, index=index, is_tail=index == length - 1
        )

    def test_wrong_destination_is_flagged(self):
        probe, suite = self._bound_probe()
        sink = SimpleNamespace(node=9)
        probe._observe(sink, self._flit(7, 0, 3, destination=3), cycle=10)
        assert not suite.ok
        assert "destination 3" in suite.violations[0].message

    def test_out_of_order_flit_is_flagged(self):
        probe, suite = self._bound_probe()
        sink = SimpleNamespace(node=3)
        probe._observe(sink, self._flit(7, 0, 3), cycle=10)
        probe._observe(sink, self._flit(7, 2, 3), cycle=11)  # skipped 1
        assert not suite.ok
        assert "expected index 1" in suite.violations[0].message

    def test_split_across_sinks_is_flagged(self):
        probe, suite = self._bound_probe()
        probe._observe(SimpleNamespace(node=3), self._flit(7, 0, 3), 10)
        probe._observe(SimpleNamespace(node=9), self._flit(7, 1, 3), 11)
        assert any(
            "ejected at node 9" in v.message for v in suite.violations
        )

    def test_in_order_packet_is_clean(self):
        probe, suite = self._bound_probe()
        sink = SimpleNamespace(node=3)
        for index in range(3):
            probe._observe(sink, self._flit(7, index, 3), 10 + index)
        assert suite.ok
        assert probe._expected == {}  # tail retired the tracking entry
