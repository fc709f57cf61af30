"""Invariant probes for checked-mode simulation.

Two probe styles share one base class:

* *cycle probes* implement :meth:`Probe.check`, called by the
  :class:`~repro.sim.validation.suite.ValidationSuite` after every
  network step (or every ``interval`` steps) on the settled end-of-cycle
  state.  They read state both step paths keep, so a checked run
  executes the same compiled steps as an unchecked one;
* the one *event probe*, :class:`InOrderDeliveryProbe`, wraps sink
  ejection at attach time and reports a violation at the moment the
  illegal delivery happens.

Probes report through :meth:`Probe.fail`, which routes to the owning
suite: with ``fail_fast`` (the default) the first violation raises
:class:`InvariantViolation` out of the engine; otherwise violations
accumulate in the run's validation summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..allocators import Grant, grant_conflicts
from ..routers.base import VCState
from ..topology import LOCAL, NUM_PORTS, OPPOSITE, PORT_NAMES


@dataclass(frozen=True)
class Violation:
    """One invariant violation: where, when, and what went wrong."""

    probe: str
    cycle: int
    message: str
    snapshot: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "probe": self.probe,
            "cycle": self.cycle,
            "message": self.message,
            "snapshot": self.snapshot,
        }

    def __str__(self) -> str:
        text = f"[{self.probe} @ cycle {self.cycle}] {self.message}"
        if self.snapshot:
            text += "\n" + self.snapshot
        return text


class InvariantViolation(AssertionError):
    """Raised in fail-fast checked mode on the first violation.

    Subclasses :class:`AssertionError` so existing "the simulator never
    asserts" call sites treat probe trips and engine self-checks alike.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Probe:
    """Base class: bind to a suite, attach to a network, check cycles."""

    name = "probe"
    #: Checked after every step whatever the suite's ``interval``: the
    #: probe compares each step with the one before.
    every_step = False

    def __init__(self) -> None:
        self.suite = None          # set by ValidationSuite.attach
        self.checks = 0            # how many times this probe validated

    def bind(self, suite) -> None:
        self.suite = suite

    def attach(self, network) -> None:
        """Precompute structures / install wrappers.  Default: nothing."""

    def detach(self, network) -> None:
        """Undo :meth:`attach`'s wrappers.  Default: nothing."""

    def check(self, network, cycle: int) -> None:
        """Validate the settled end-of-cycle state.  Default: nothing."""

    def finalize(self, network) -> None:
        """End-of-run validation.  Default: nothing."""

    def fail(self, cycle: int, message: str,
             snapshot: Optional[str] = None) -> None:
        self.suite.report(Violation(self.name, cycle, message, snapshot))


class FlitConservationProbe(Probe):
    """No flit is ever created or destroyed, network-wide or per router.

    Network-wide: ``injected == ejected + in flight`` (buffers + links +
    ejection channels).  Per router: flits accepted on input ports equal
    flits forwarded through the crossbar plus flits still buffered.
    """

    name = "flit_conservation"

    def __init__(self) -> None:
        super().__init__()
        self._routers: List[Tuple[int, Any, List[Any]]] = []

    def attach(self, network) -> None:
        self._routers = [
            (
                router.node,
                router.stats,
                [ivc.buffer for port_vcs in router.input_vcs
                 for ivc in port_vcs],
            )
            for router in network.routers
        ]

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        total_buffered = 0
        for node, stats, buffers in self._routers:
            buffered = sum(map(len, buffers))
            total_buffered += buffered
            if stats.flits_received - stats.flits_forwarded != buffered:
                self.fail(
                    cycle,
                    f"router {node}: received {stats.flits_received} "
                    f"!= forwarded {stats.flits_forwarded} + buffered "
                    f"{buffered}",
                )
        on_links = sum(ch.occupancy for ch, _, _ in network._flit_links)
        ejecting = sum(ch.occupancy for ch, _ in network._ejection_links)
        in_flight = total_buffered + on_links + ejecting
        injected = network.total_flits_injected()
        ejected = network.total_flits_ejected()
        if injected != ejected + in_flight:
            self.fail(
                cycle,
                f"network: injected {injected} != ejected {ejected} + "
                f"in flight {in_flight}",
            )


class CreditConsistencyProbe(Probe):
    """Upstream credit counters mirror downstream free-buffer counts.

    For every (link, VC), at the settled end of a cycle::

        upstream credits available
        + flits in flight on the link (for this VC)
        + credits in flight on the reverse credit channel
        + flits buffered downstream
        - switch grants issued this cycle but not yet traversed

    must equal the buffer capacity.  The last term accounts for the
    "credit on read-out" convention: the credit for a granted flit's
    slot departs at grant time, one cycle before the flit pops.  The
    same identity is checked for each node's injection path (source
    credit views against the router's local input buffers).
    """

    name = "credit_consistency"

    def __init__(self) -> None:
        super().__init__()
        self._links: List[Tuple[Any, ...]] = []
        self._local: List[Tuple[Any, ...]] = []

    def attach(self, network) -> None:
        self._links = []
        routers = network.routers
        for node, port, neighbor in network.mesh.links():
            upstream = routers[node]
            downstream = routers[neighbor]
            dst_port = OPPOSITE[port]
            self._links.append((
                [ovc.credits for ovc in upstream.output_vcs[port]],
                upstream.output_channels[port]._in_flight,
                downstream.credit_channels[dst_port]._in_flight,
                [ivc.buffer for ivc in downstream.input_vcs[dst_port]],
                neighbor,
                dst_port,
                f"link {node}->{neighbor} ({PORT_NAMES[port]})",
            ))
        self._local = [
            (
                source.credits,
                router.credit_channels[LOCAL]._in_flight,
                [ivc.buffer for ivc in router.input_vcs[LOCAL]],
                source.node,
            )
            for source, router in zip(network.sources, network.routers)
        ]

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        capacity = network.config.buffers_per_vc
        num_vcs = network.config.num_vcs
        vc_range = range(num_vcs)
        # Grants issued this cycle whose flits have not yet traversed,
        # keyed (node, input port, vc): their credits are already in
        # flight while the flit still occupies its buffer slot.
        pending: Dict[Tuple[int, int, int], int] = {}
        for router in network.routers:
            node = router.node
            for port, vc in router.pending_st:
                key = (node, port, vc)
                pending[key] = pending.get(key, 0) + 1

        for (credits, flit_flight, credit_flight, buffers, neighbor,
             dst_port, label) in self._links:
            in_flight = [0] * num_vcs
            for _, flit in flit_flight:
                in_flight[flit.vcid] += 1
            credits_in_flight = [0] * num_vcs
            for _, vc in credit_flight:
                credits_in_flight[vc] += 1
            for vc in vc_range:
                total = (
                    credits[vc].available
                    + in_flight[vc]
                    + credits_in_flight[vc]
                    + len(buffers[vc])
                    - pending.get((neighbor, dst_port, vc), 0)
                )
                if total != capacity:
                    self.fail(
                        cycle,
                        f"{label} vc {vc}: credits {credits[vc].available} "
                        f"+ in-flight flits {in_flight[vc]} + in-flight "
                        f"credits {credits_in_flight[vc]} + buffered "
                        f"{len(buffers[vc])} - granted "
                        f"{pending.get((neighbor, dst_port, vc), 0)} = "
                        f"{total}, expected capacity {capacity}",
                    )

        for credits, credit_flight, buffers, node in self._local:
            credits_in_flight = [0] * num_vcs
            for _, vc in credit_flight:
                credits_in_flight[vc] += 1
            for vc in vc_range:
                total = (
                    credits[vc].available
                    + credits_in_flight[vc]
                    + len(buffers[vc])
                    - pending.get((node, LOCAL, vc), 0)
                )
                if total != capacity:
                    self.fail(
                        cycle,
                        f"injection at node {node} vc {vc}: source credits "
                        f"{credits[vc].available} + in-flight credits "
                        f"{credits_in_flight[vc]} + buffered "
                        f"{len(buffers[vc])} - granted "
                        f"{pending.get((node, LOCAL, vc), 0)} = {total}, "
                        f"expected capacity {capacity}",
                    )


class VCExclusivityProbe(Probe):
    """Each output VC (or held wormhole port) belongs to one packet.

    VC-family routers: every held :class:`OutputVC` points back at an
    input VC whose allocated route/out_vc agree, and no input VC holds
    two output VCs.  Wormhole-family routers: the per-output hold state
    is mutually consistent with the holding input's route, and no input
    holds two output ports.
    """

    name = "vc_exclusivity"

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        for router in network.routers:
            holds_ports = hasattr(router, "port_held_by")
            self._check_masks(router, cycle, holds_ports)
            if holds_ports:
                self._check_wormhole(router, cycle)
            else:
                self._check_vc(router, cycle)

    def _check_masks(self, router, cycle: int, holds_ports: bool) -> None:
        """The three state bitmasks are consistent with each other and
        with the fields beside them.

        The masks are the only store of input-VC state (``ivc.state``
        reads them), and both steppers and ``is_idle`` trust them; a
        stray bit would silently skip (or double-process) a VC.  What a
        single copy can still get wrong is checked here: a VC in two
        states at once, and a state its buffer, route or output VC
        contradict.
        """
        routing = router._routing_mask
        va = router._va_mask
        active = router._active_mask
        if routing & va or routing & active or va & active:
            self.fail(
                cycle,
                f"router {router.node}: state bitmasks out of sync with "
                f"each other: routing {routing:#x}, va {va:#x} and active "
                f"{active:#x} overlap",
            )
        for flat, queue in enumerate(router._ivc_queues):
            ivc = router._all_ivcs[flat]
            head_waiting = bool(queue) and queue[0].is_head
            routed = ivc.route is not None
            allocated = ivc.out_vc is not None
            if active >> flat & 1:
                ok = routed and (allocated or holds_ports)
            elif va >> flat & 1:
                ok = head_waiting and routed and not allocated
            elif routing >> flat & 1:
                ok = head_waiting and not routed and not allocated
            else:
                ok = not queue and not routed and not allocated
            if not ok:
                self.fail(
                    cycle,
                    f"router {router.node}: state bitmasks out of sync "
                    f"with input VC ({ivc.port}, {ivc.vc}): "
                    f"{ivc.state.name.lower()} with {len(queue)} flits "
                    f"buffered ({'head' if head_waiting else 'no head'} "
                    f"at the front), route={ivc.route} "
                    f"out_vc={ivc.out_vc}",
                )

    def _check_vc(self, router, cycle: int) -> None:
        active = VCState.ACTIVE
        holders: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for ovc in router._ovc_flat:
            holder = ovc.held_by
            if holder is None:
                continue
            if holder in holders:
                self.fail(
                    cycle,
                    f"router {router.node}: input VC {holder} holds two "
                    f"output VCs ({holders[holder]} and "
                    f"({ovc.port}, {ovc.vc}))",
                )
            holders[holder] = (ovc.port, ovc.vc)
            ivc = router.input_vcs[holder[0]][holder[1]]
            if (ivc.state is not active
                    or ivc.route != ovc.port or ivc.out_vc != ovc.vc):
                self.fail(
                    cycle,
                    f"router {router.node}: output VC "
                    f"({ovc.port}, {ovc.vc}) held by input {holder} but "
                    f"that VC is {ivc.state.name.lower()} with route="
                    f"{ivc.route} out_vc={ivc.out_vc}",
                )
        for ivc in router._all_ivcs:
            if ivc.state is active and ivc.out_vc is not None:
                ovc = router.output_vcs[ivc.route][ivc.out_vc]
                if ovc.held_by != (ivc.port, ivc.vc):
                    self.fail(
                        cycle,
                        f"router {router.node}: input VC "
                        f"({ivc.port}, {ivc.vc}) claims output VC "
                        f"({ivc.route}, {ivc.out_vc}) held by "
                        f"{ovc.held_by}",
                    )

    def _check_wormhole(self, router, cycle: int) -> None:
        seen_inputs: Dict[int, int] = {}
        for out_port, in_port in enumerate(router.port_held_by):
            if in_port is None:
                continue
            if in_port in seen_inputs:
                self.fail(
                    cycle,
                    f"router {router.node}: input port {in_port} holds two "
                    f"output ports ({seen_inputs[in_port]} and {out_port})",
                )
            seen_inputs[in_port] = out_port
            ivc = router.input_vcs[in_port][0]
            if ivc.state is not VCState.ACTIVE or ivc.route != out_port:
                self.fail(
                    cycle,
                    f"router {router.node}: output port {out_port} held by "
                    f"input {in_port} but that input is {ivc.state.name.lower()} "
                    f"with route={ivc.route}",
                )


class SwitchLegalityProbe(Probe):
    """Every switch grant answers a request, and the grants form a
    matching.

    Reads each pipelined router's grants from the settled state, so it
    checks whichever step ran, compiled or generic: ``pending_st``
    holds this cycle's switch grants.  A VC's state at the start of the
    cycle -- what the allocator saw -- is the masks this probe kept at
    the previous step.  Checks:

    * every grant goes to a VC ACTIVE across the cycle with a flit and
      a credit for its output VC;
    * at most one grant per input port and per output port.

    A single-cycle router traverses its grants within the step, so it
    leaves no ``pending_st`` to read; for it the probe checks the
    step's per-output delta of ``stats.forwarded_by_output``: no output
    forwards more than one flit per cycle.

    The compiled switch traversal has no duplicate-output check, so
    this probe is what catches a doubled grant on the fast stepper.
    """

    name = "switch_legality"
    every_step = True

    def __init__(self) -> None:
        super().__init__()
        self._routers: List[Any] = []
        self._before: List[Any] = []
        self._single: List[Any] = []
        self._forwarded: List[List[int]] = []

    def _watches(self, router) -> bool:
        from ..routers.spec_vc import SpeculativeVCRouter

        return not isinstance(router, SpeculativeVCRouter)

    def attach(self, network) -> None:
        watched = [
            router for router in network.routers if self._watches(router)
        ]
        single = network.config.router_kind.is_single_cycle
        self._routers = [] if single else watched
        self._single = watched if single else []
        self._snapshot()
        self._forwarded = self._forwarded_now()

    def detach(self, network) -> None:
        self._routers, self._before = [], []
        self._single, self._forwarded = [], []

    def _snapshot(self) -> None:
        self._before = [router._active_mask for router in self._routers]

    def _forwarded_now(self) -> List[List[int]]:
        return [list(router.stats.forwarded_by_output)
                for router in self._single]

    def check(self, network, cycle: int) -> None:
        before = self._before
        self._snapshot()
        for router, active in zip(self._routers, before):
            if router.pending_st:
                self.checks += 1
                self._check_router(router, active, cycle)
        if self._single:
            self._check_single_cycle(cycle)

    def _check_single_cycle(self, cycle: int) -> None:
        """At most one flit per output per step on single-cycle routers."""
        previous = self._forwarded
        self._forwarded = self._forwarded_now()
        for router, old, new in zip(self._single, previous, self._forwarded):
            if old == new:
                continue
            self.checks += 1
            for port, (was, now) in enumerate(zip(old, new)):
                if now - was > 1:
                    self.fail(
                        cycle,
                        f"router {router.node}: output {port} granted twice "
                        f"in one cycle ({now - was} flits forwarded)",
                    )

    def _check_router(self, router, active: int, cycle: int) -> None:
        v = router.num_vcs
        ivcs = router._all_ivcs
        both_active = active & router._active_mask
        grants: List[Grant] = []
        for port, vc in router.pending_st:
            ivc = ivcs[port * v + vc]
            grant = Grant(port, vc, ivc.route)
            grants.append(grant)
            if not self._answers(router, ivc, both_active):
                self._unanswered(router, grant, cycle)
        for conflict in grant_conflicts(grants):
            self.fail(cycle, f"router {router.node}: {conflict}")

    @staticmethod
    def _answers(router, ivc, both_active: int) -> bool:
        """A grant to ``ivc`` answers a request: the VC was ACTIVE
        across the cycle, with a flit and a credit for its output VC."""
        return bool(both_active >> ivc.flat & 1 and ivc.buffer
                    and ivc.out_vc is not None
                    and router.output_vcs[ivc.route][ivc.out_vc].credits)

    def _unanswered(self, router, grant: Grant, cycle: int) -> None:
        self.fail(
            cycle,
            f"router {router.node}: non-speculative grant {grant} answers "
            f"no submitted request",
        )


class SpeculationLegalityProbe(SwitchLegalityProbe):
    """A speculative grant never displaces a non-speculative one.

    The switch-grant checks of :class:`SwitchLegalityProbe`, on
    speculative routers, over the combined grant set: ``pending_st``
    holds this cycle's switch grants and ``spec_grant_mask`` every
    speculative grant the combiner received, wasted ones included; a
    grant in ``pending_st`` that is not in the mask is
    non-speculative.  Checks:

    * every grant answers a request that was actually submitted: a
      non-speculative grant goes to a VC ACTIVE across the cycle with a
      flit and a credit; a speculative grant goes to a VC that was
      waiting for VC allocation, ready, with a permitted output VC
      free, for the output it routed to; and the mask holds as many
      grants as ``spec_grants`` counted;
    * at most one grant per input port and per output port across the
      combined (non-speculative + speculative) grant set;
    * under conservative priority, no speculative grant shares an input
      or an output with a non-speculative grant (skipped for the
      ``equal`` ablation, where displacement is the deliberate point).
    """

    name = "speculation_legality"

    def __init__(self, enforce_priority: bool = True) -> None:
        super().__init__()
        self.enforce_priority = enforce_priority

    def _watches(self, router) -> bool:
        from ..routers.spec_vc import SpeculativeVCRouter

        return isinstance(router, SpeculativeVCRouter)

    def _snapshot(self) -> None:
        self._before = [
            (router._active_mask, router._va_mask, router.stats.spec_grants)
            for router in self._routers
        ]

    def check(self, network, cycle: int) -> None:
        before = self._before
        self._snapshot()
        for router, (active, va, counted) in zip(self._routers, before):
            if (router.pending_st or router.spec_grant_mask
                    or router.stats.spec_grants != counted):
                self.checks += 1
                self._check_spec_router(router, active, va, counted, cycle)

    def _check_spec_router(self, router, active: int, va: int, counted: int,
                           cycle: int) -> None:
        v = router.num_vcs
        ivcs = router._all_ivcs
        node = router.node
        # Output VCs free when the requests were built: free now, or
        # held by a VC that won VC allocation this cycle.
        won = va & router._active_mask
        was_free = {None} | {(f // v, f % v) for f in _bits(won)}
        spec: List[Grant] = []
        for bit in _bits(router.spec_grant_mask):
            flat, output = divmod(bit, NUM_PORTS)
            grant = Grant(flat // v, flat % v, output)
            spec.append(grant)
            ivc = ivcs[flat]
            if not (va >> flat & 1 and ivc.route == output
                    and ivc.va_ready < cycle
                    and any(router.output_vcs[output][c].held_by in was_free
                            for c in router._candidate_vcs(ivc))):
                self.fail(
                    cycle,
                    f"router {node}: speculative grant {grant} answers no "
                    f"submitted request",
                )
        issued = router.stats.spec_grants - counted
        if issued != len(spec):
            self.fail(
                cycle,
                f"router {node}: {issued} speculative grants counted but "
                f"{len(spec)} distinct ones recorded",
            )

        nonspec: List[Grant] = []
        survived = {grant.group * v + grant.member for grant in spec}
        both_active = active & router._active_mask
        for port, vc in router.pending_st:
            flat = port * v + vc
            if flat in survived:
                survived.discard(flat)  # won its VC and a credit
                continue
            ivc = ivcs[flat]
            grant = Grant(port, vc, ivc.route)
            nonspec.append(grant)
            if not self._answers(router, ivc, both_active):
                self._unanswered(router, grant, cycle)

        for conflict in grant_conflicts(nonspec, spec):
            self.fail(cycle, f"router {node}: {conflict}")

        if self.enforce_priority and spec and nonspec:
            taken_inputs = {g.group for g in nonspec}
            taken_outputs = {g.resource for g in nonspec}
            for grant in spec:
                if grant.group in taken_inputs or (
                        grant.resource in taken_outputs):
                    self.fail(
                        cycle,
                        f"router {node}: speculative grant {grant} "
                        f"displaced a non-speculative grant (priority "
                        f"inversion)",
                    )


def _bits(mask: int):
    """The set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask -= low
        yield low.bit_length() - 1


class InOrderDeliveryProbe(Probe):
    """Every packet's flits eject in index order, at exactly one sink --
    the sink at the packet's destination.  The destination check is what
    catches a corrupted route table: a misrouted packet that ejects
    cleanly anywhere else is flagged the cycle it arrives."""

    name = "in_order_delivery"

    def __init__(self) -> None:
        super().__init__()
        self._expected: Dict[int, int] = {}
        self._sink_of: Dict[int, int] = {}
        self._originals: List[Tuple[Any, Any]] = []

    def attach(self, network) -> None:
        self._originals = []
        for sink in network.sinks:
            original = sink.accept
            # The instance-level ``accept`` being wrapped, if any.
            shadowed = vars(sink).get("accept")

            def wrapped(flit, cycle, _sink=sink, _original=original):
                self._observe(_sink, flit, cycle)
                _original(flit, cycle)

            sink.accept = wrapped
            self._originals.append((sink, shadowed))

    def detach(self, network) -> None:
        for sink, shadowed in self._originals:
            if shadowed is None:
                # Storing the bound method back would tie the sink to
                # itself; dropping the wrapper unshadows the class's.
                del sink.accept
            else:
                sink.accept = shadowed
        self._originals = []

    def _observe(self, sink, flit, cycle: int) -> None:
        self.checks += 1
        packet = flit.packet
        pid = packet.packet_id
        if sink.node != packet.destination:
            self.fail(
                cycle,
                f"packet {pid} (destination {packet.destination}) ejected "
                f"at node {sink.node}",
            )
        claimed = self._sink_of.setdefault(pid, sink.node)
        if claimed != sink.node:
            self.fail(
                cycle,
                f"packet {pid} ejected at node {sink.node} after earlier "
                f"flits ejected at node {claimed}",
            )
        expected = self._expected.get(pid, 0)
        if flit.index != expected:
            self.fail(
                cycle,
                f"packet {pid}: flit index {flit.index} ejected at node "
                f"{sink.node}, expected index {expected}",
            )
        if flit.is_tail:
            if flit.index != packet.length - 1:
                self.fail(
                    cycle,
                    f"packet {pid}: tail flit has index {flit.index}, "
                    f"packet length is {packet.length}",
                )
            self._expected.pop(pid, None)
            self._sink_of.pop(pid, None)
        else:
            self._expected[pid] = expected + 1


class WatchdogProbe(Probe):
    """Deadlock/livelock watchdog with a configurable stall horizon.

    Trips when flits are in the network but none has moved through any
    crossbar for ``stall_horizon`` cycles (deadlock), or flits keep
    moving but none ejects for ``ejection_horizon`` cycles (livelock).
    On trip the violation carries a network snapshot -- the occupancy
    heat map plus the most congested routers' VC states -- so the stuck
    configuration can be reproduced and inspected offline.
    """

    name = "watchdog"

    def __init__(self, stall_horizon: int = 1_000,
                 ejection_horizon: Optional[int] = None) -> None:
        super().__init__()
        if stall_horizon < 1:
            raise ValueError("stall_horizon must be >= 1 cycle")
        self.stall_horizon = stall_horizon
        self.ejection_horizon = (
            ejection_horizon if ejection_horizon is not None
            else 10 * stall_horizon
        )
        self._last_forwarded = -1
        self._last_forward_cycle = 0
        self._last_ejected = -1
        self._last_eject_cycle = 0

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        ejected = network.total_flits_ejected()
        # injected - ejected equals flits_in_flight() whenever flit
        # conservation holds (its probe runs alongside); computing it
        # from the O(nodes) totals keeps the watchdog cheap.
        if network.total_flits_injected() == ejected:
            self._last_forward_cycle = cycle
            self._last_eject_cycle = cycle
            return
        forwarded = sum(r.stats.flits_forwarded for r in network.routers)
        if forwarded != self._last_forwarded:
            self._last_forwarded = forwarded
            self._last_forward_cycle = cycle
        if ejected != self._last_ejected:
            self._last_ejected = ejected
            self._last_eject_cycle = cycle

        if cycle - self._last_forward_cycle >= self.stall_horizon:
            self.fail(
                cycle,
                f"deadlock: flits in flight but none traversed a crossbar "
                f"for {cycle - self._last_forward_cycle} cycles "
                f"(stall_horizon={self.stall_horizon})",
                snapshot=self._snapshot(network),
            )
            self._last_forward_cycle = cycle  # avoid re-trip when collecting
        elif cycle - self._last_eject_cycle >= self.ejection_horizon:
            self.fail(
                cycle,
                f"livelock: flits moving but none ejected for "
                f"{cycle - self._last_eject_cycle} cycles "
                f"(ejection_horizon={self.ejection_horizon})",
                snapshot=self._snapshot(network),
            )
            self._last_eject_cycle = cycle

    def _snapshot(self, network) -> str:
        from ..snapshot import busiest_routers, describe_router, occupancy_map

        sections = [occupancy_map(network)]
        for router in busiest_routers(network, count=3):
            if router.buffered_flits():
                sections.append(describe_router(router))
        sections.append(
            f"config: {network.config!r}\n"
            f"reproduce: Simulator(config, measurement, checked=True).run()"
        )
        return "\n".join(sections)


def default_probes(config) -> List[Probe]:
    """The probe set checked mode runs for ``config``."""
    probes: List[Probe] = [
        FlitConservationProbe(),
        CreditConsistencyProbe(),
        VCExclusivityProbe(),
        InOrderDeliveryProbe(),
        WatchdogProbe(),
    ]
    from ..config import RouterKind

    if config.router_kind is RouterKind.SPECULATIVE_VC:
        probes.append(SpeculationLegalityProbe(
            enforce_priority=config.speculation_priority == "conservative"
        ))
    else:
        probes.append(SwitchLegalityProbe())
    return probes
