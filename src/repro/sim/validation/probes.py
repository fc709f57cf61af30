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
from itertools import compress
from operator import add, attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..allocators import Grant, grant_conflicts
from ..config import RouterKind
from ..credit import CreditCounter
from ..routers.spec_vc import SpeculativeVCRouter
from ..topology import LOCAL, NUM_PORTS, OPPOSITE, PORT_NAMES

_credits_of = attrgetter("_credits")
_held_by = attrgetter("held_by")
_active_of = attrgetter("_active_mask")
_va_of = attrgetter("_va_mask")


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
    """No flit is ever created or destroyed: ``injected == ejected + in
    flight`` (buffers + links + ejection channels) network-wide, the
    check :meth:`Network.check_conservation` defines.

    A flit lost from or duplicated in an input buffer breaks that VC's
    credit identity the same cycle (``credit_consistency``); what only
    this probe sees is a flit lost where no credit covers it, on an
    ejection channel.
    """

    name = "flit_conservation"

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        try:
            network.check_conservation()
        except AssertionError as error:
            message = str(error)
        else:
            return
        self.fail(cycle, message)


class CreditConsistencyProbe(Probe):
    """Upstream credit counters mirror downstream free-buffer counts.

    For every input VC of every router, at the settled end of a cycle::

        upstream credits available
        + flits in flight on the link (for this VC)
        + credits in flight on the reverse credit channel
        + flits buffered
        - switch grants issued this cycle but not yet traversed

    must equal the buffer capacity.  The last term accounts for the
    "credit on read-out" convention: the credit for a granted flit's
    slot departs at grant time, one cycle before the flit pops.  A
    local input port's upstream is the node's source; a port at the
    mesh edge has none, so it reads a full counter that never moves.

    The terms are gathered into one list per check, indexed like the
    routers' flat input VCs in node order: two C-level passes over the
    counters and buffers, then a walk over the channels with something
    in flight and this cycle's grants.
    """

    name = "credit_consistency"

    def attach(self, network) -> None:
        config = network.config
        v = self._v = config.num_vcs
        per_router = NUM_PORTS * v
        upstream = {
            (neighbor, OPPOSITE[port]): (network.routers[node], port)
            for node, port, neighbor in network.mesh.links()
        }
        edge = CreditCounter(config.buffers_per_vc)
        self._counters: List[Any] = []
        self._queues: List[Any] = []
        self._labels: List[str] = []
        flits, credits = [], []
        for router, source in zip(network.routers, network.sources):
            self._queues += router._ivc_queues
            for port in range(NUM_PORTS):
                first = router.node * per_router + port * v
                credit_channel = router.credit_channels[port]
                if credit_channel is not None:
                    credits.append((credit_channel._in_flight, first))
                if port == LOCAL:
                    self._counters += source.credits
                    self._labels.append(f"injection at node {router.node}")
                elif (router.node, port) in upstream:
                    up, out = upstream[router.node, port]
                    self._counters += [ovc.credits for ovc in up.output_vcs[out]]
                    flits.append((up.output_channels[out]._in_flight, first))
                    self._labels.append(
                        f"link {up.node}->{router.node} ({PORT_NAMES[out]})"
                    )
                else:
                    self._counters += [edge] * v
                    self._labels.append(f"edge port {port} of node {router.node}")
        # compress() walks only the entries whose deque is non-empty.
        self._flits = (flits, [entry[0] for entry in flits])
        self._credits = (credits, [entry[0] for entry in credits])
        self._routers = [(router, router.node * per_router)
                         for router in network.routers]
        self._full = [config.buffers_per_vc] * len(self._queues)

    def detach(self, network) -> None:
        self._counters, self._queues, self._routers = [], [], []
        self._flits = self._credits = ([], [])

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        v = self._v
        totals = list(map(add, map(_credits_of, self._counters),
                          map(len, self._queues)))
        for in_flight, first in compress(*self._flits):
            for _, flit in in_flight:
                totals[first + flit.vcid] += 1
        for in_flight, first in compress(*self._credits):
            for _, vc in in_flight:
                totals[first + vc] += 1
        for router, base in self._routers:
            for port, vc in router.pending_st:
                totals[base + port * v + vc] -= 1
        if totals != self._full:
            self._report(totals, cycle)

    def _report(self, totals: List[int], cycle: int) -> None:
        capacity = self._full[0]
        for index, total in enumerate(totals):
            if total != capacity:
                credits = self._counters[index]._credits
                buffered = len(self._queues[index])
                self.fail(
                    cycle,
                    f"{self._labels[index // self._v]} vc {index % self._v}: "
                    f"credits {credits} + buffered {buffered} + in-flight "
                    f"flits and credits - granted {total - credits - buffered}"
                    f" = {total}, expected capacity {capacity}",
                )


class VCExclusivityProbe(Probe):
    """Each input VC's state agrees with its fields, and each held
    output VC (or wormhole output port) belongs to exactly one packet.

    The three state bitmasks are the only store of input-VC state
    (``ivc.state`` reads them), and both steppers and ``is_idle`` trust
    them; a stray bit would silently skip (or double-process) a VC.  Per
    router the probe builds four masks from the VCs' fields once --
    buffered, head at the front, routed, holding an output -- and checks
    by mask algebra that no VC is in two states and that each state's
    fields hold:

    * idle: an empty buffer, no route, no output;
    * routing: a head at the front, no route, no output;
    * VC allocation: a head at the front, a route, no output;
    * active: a route and an output (a wormhole head gets its output
      port with its first switch grant).

    Then the holders: every active VC holding an output is that
    output's recorded holder (``OutputVC.held_by``, or a wormhole
    router's ``port_held_by``), and no other output is held.

    Only a router's step and ``accept_flit`` change what this probe
    reads, so a check right after the previous one skips each router
    the fast stepper left asleep across the cycle that received no
    flit: it did not step.
    """

    name = "vc_exclusivity"

    def attach(self, network) -> None:
        v = network.config.num_vcs
        self._routers = []
        for router in network.routers:
            wormhole = hasattr(router, "port_held_by")
            keys = [ivc.port if wormhole else (ivc.port, ivc.vc)
                    for ivc in router._all_ivcs]
            self._routers.append((router, router._all_ivcs,
                                  router._ivc_queues, keys, wormhole))
        self._v = v
        self._bits = [1 << flat for flat in range(NUM_PORTS * v)]
        self._awake = [True] * len(self._routers)
        self._received = [0] * len(self._routers)
        self._cycle = None

    def detach(self, network) -> None:
        self._routers = []

    def check(self, network, cycle: int) -> None:
        self.checks += 1
        v = self._v
        after_last = cycle - 1 == self._cycle
        self._cycle = cycle
        was_awake = self._awake
        self._awake = awake = [entry[0].active for entry in self._routers]
        for entry, now, before in zip(self._routers, awake, was_awake):
            router, ivcs, queues, keys, wormhole = entry
            if not now:
                received = sum(router.stats.received_by_input)
                if (after_last and not before
                        and received == self._received[router.node]):
                    continue
                self._received[router.node] = received
            routing = router._routing_mask
            va = router._va_mask
            active = router._active_mask
            holders = (router.port_held_by if wormhole
                       else list(map(_held_by, router._ovc_flat)))
            occupied = heads = routed = allocated = claimed = stray = 0
            for ivc, queue, bit, key in zip(ivcs, queues, self._bits, keys):
                if queue:
                    occupied |= bit
                    if queue[0].is_head:
                        heads |= bit
                route = ivc.route
                if route is not None:
                    routed |= bit
                out_vc = ivc.out_vc
                if out_vc is not None:
                    allocated |= bit
                    if active & bit and route is not None:
                        if holders[route * v + out_vc] == key:
                            claimed += 1
                        else:
                            stray |= bit
            waiting = routing | va
            if (routing & (va | active) or va & active
                    or routed != va | active or waiting & ~heads
                    or occupied & ~(waiting | active)
                    or (allocated & ~active if wormhole
                        else allocated != active)):
                self._out_of_sync(entry, occupied, heads, routed, allocated,
                                  cycle)
            elif stray or len(holders) - holders.count(None) != claimed:
                self._unclaimed(entry, holders, stray, cycle)

    def _out_of_sync(self, entry, occupied: int, heads: int, routed: int,
                     allocated: int, cycle: int) -> None:
        """Name the first VC whose state its fields contradict."""
        router, ivcs, queues, _, wormhole = entry
        routing = router._routing_mask
        va = router._va_mask
        active = router._active_mask
        if routing & (va | active) or va & active:
            self.fail(
                cycle,
                f"router {router.node}: state bitmasks out of sync with "
                f"each other: routing {routing:#x}, va {va:#x} and active "
                f"{active:#x} overlap",
            )
            return
        waiting = routing | va
        bad = (waiting & ~heads | (va | active) & ~routed | routing & routed
               | waiting & allocated
               | ~(waiting | active) & (occupied | routed | allocated))
        if not wormhole:
            bad |= active & ~allocated
        flat = (bad & -bad).bit_length() - 1
        ivc, queue = ivcs[flat], queues[flat]
        head = "head" if heads >> flat & 1 else "no head"
        self.fail(
            cycle,
            f"router {router.node}: state bitmasks out of sync with input "
            f"VC ({ivc.port}, {ivc.vc}): {ivc.state.name.lower()} with "
            f"{len(queue)} flits buffered ({head} at the front), "
            f"route={ivc.route} out_vc={ivc.out_vc}",
        )

    def _unclaimed(self, entry, holders, stray: int, cycle: int) -> None:
        """Name an active VC its output does not record as the holder,
        or an output held by no VC that claims it."""
        router, ivcs, _, keys, _ = entry
        v = self._v
        if stray:
            ivc = ivcs[(stray & -stray).bit_length() - 1]
            slot = ivc.route * v + ivc.out_vc
            self.fail(
                cycle,
                f"router {router.node}: input VC ({ivc.port}, {ivc.vc}) "
                f"claims output {divmod(slot, v)} held by {holders[slot]}",
            )
            return
        claimed = {ivc.route * v + ivc.out_vc
                   for ivc in router._ivcs_in(router._active_mask)
                   if ivc.out_vc is not None}
        slot = next(slot for slot, holder in enumerate(holders)
                    if holder is not None and slot not in claimed)
        self.fail(
            cycle,
            f"router {router.node}: output {divmod(slot, v)} held by "
            f"{holders[slot]}, which claims no such output",
        )


class SwitchLegalityProbe(Probe):
    """Every switch grant answers a request, and the grants form a
    matching.

    Reads each pipelined router's grants from the settled state, so it
    checks whichever step ran, compiled or generic: ``pending_st``
    holds this cycle's switch grants.  A VC's state at the start of the
    cycle -- what the allocator saw -- is the mask this probe kept at
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

    def _watches(self, router) -> bool:
        return not isinstance(router, SpeculativeVCRouter)

    def attach(self, network) -> None:
        watched = [
            router for router in network.routers if self._watches(router)
        ]
        single = network.config.router_kind.is_single_cycle
        self._v = network.config.num_vcs
        self._routers = [] if single else watched
        self._grants = [(router, router._all_ivcs, router._ivc_queues,
                         router._ovc_credits) for router in self._routers]
        self._single = watched if single else []
        self._before = self._masks()
        self._forwarded = self._forwarded_now()

    def detach(self, network) -> None:
        self._routers, self._grants, self._before = [], [], []
        self._single, self._forwarded = [], []

    def _masks(self) -> List[int]:
        return list(map(_active_of, self._routers))

    def _forwarded_now(self) -> List[List[int]]:
        return [list(router.stats.forwarded_by_output)
                for router in self._single]

    def check(self, network, cycle: int) -> None:
        before = self._before
        self._before = self._masks()
        for entry, active in zip(self._grants, before):
            if entry[0].pending_st:
                self.checks += 1
                self._check_grants(entry, active, entry[0].pending_st, [],
                                   cycle)
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

    def _check_grants(self, entry, active: int, nonspec, spec: List[Grant],
                      cycle: int) -> None:
        """``nonspec`` (``(port, vc)`` pairs) must each answer a request
        of a VC ACTIVE across the cycle with a flit and a credit; with
        ``spec`` (checked by the caller) they must form a matching."""
        router, ivcs, queues, credits = entry
        v = self._v
        both_active = active & router._active_mask
        inputs = outputs = 0
        for grant in spec:
            inputs |= 1 << grant.group
            outputs |= 1 << grant.resource
        for port, vc in nonspec:
            flat = port * v + vc
            ivc = ivcs[flat]
            route = ivc.route
            out_vc = ivc.out_vc
            if not (both_active >> flat & 1 and queues[flat]
                    and out_vc is not None and route is not None
                    and credits[route * v + out_vc]._credits > 0):
                self.fail(
                    cycle,
                    f"router {router.node}: non-speculative grant "
                    f"{Grant(port, vc, route)} answers no submitted request",
                )
            inputs |= 1 << port
            outputs |= 1 << (route or 0)
        granted = len(nonspec) + len(spec)
        if inputs.bit_count() != granted or outputs.bit_count() != granted:
            grants = [Grant(port, vc, ivcs[port * v + vc].route)
                      for port, vc in nonspec]
            for conflict in grant_conflicts(grants, spec):
                self.fail(cycle, f"router {router.node}: {conflict}")


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
      free, for the output it routed to;
    * at most one grant per input port and per output port across the
      combined (non-speculative + speculative) grant set.  So no
      speculative grant shares an input or an output with a
      non-speculative one: under conservative priority that is a
      priority inversion, and under the ``equal`` ablation one
      allocator issues both kinds, so they form a matching too.
    """

    name = "speculation_legality"

    def _watches(self, router) -> bool:
        return isinstance(router, SpeculativeVCRouter)

    def _masks(self) -> Tuple[List[int], List[int]]:
        return (list(map(_active_of, self._routers)),
                list(map(_va_of, self._routers)))

    def check(self, network, cycle: int) -> None:
        before = self._before
        self._before = self._masks()
        for entry, active, va in zip(self._grants, *before):
            router = entry[0]
            if router.spec_grant_mask:
                self.checks += 1
                self._check_spec_router(entry, active, va, cycle)
            elif router.pending_st:
                self.checks += 1
                self._check_grants(entry, active, router.pending_st, [],
                                   cycle)

    def _check_spec_router(self, entry, active: int, va: int,
                           cycle: int) -> None:
        router, ivcs = entry[:2]
        v = self._v
        output_vcs = router.output_vcs
        # An output VC was free when the requests were built if it is
        # free now or held by a VC that won VC allocation this cycle.
        won = va & router._active_mask
        spec: List[Grant] = []
        survived = 0
        mask = router.spec_grant_mask
        while mask:
            low = mask & -mask
            mask -= low
            flat, output = divmod(low.bit_length() - 1, NUM_PORTS)
            grant = Grant(flat // v, flat % v, output)
            spec.append(grant)
            survived |= 1 << flat
            ivc = ivcs[flat]
            if not (va >> flat & 1 and ivc.route == output
                    and ivc.va_ready < cycle
                    and any(holder is None
                            or won >> holder[0] * v + holder[1] & 1
                            for holder in map(_held_by, map(
                                output_vcs[output].__getitem__,
                                router._candidate_vcs(ivc))))):
                self.fail(
                    cycle,
                    f"router {router.node}: speculative grant {grant} "
                    f"answers no submitted request",
                )
        nonspec = []
        for port, vc in router.pending_st:
            bit = 1 << port * v + vc
            if survived & bit:
                survived ^= bit  # won its VC and a credit
            else:
                nonspec.append((port, vc))
        self._check_grants(entry, active, nonspec, spec, cycle)


class InOrderDeliveryProbe(Probe):
    """Every packet's flits eject in index order, each at its packet's
    destination.

    The wrapper around each sink's ``accept`` checks the index, then
    runs the sink, whose own assertion is the destination check
    (:meth:`Sink.accept`); the probe reports that assertion as its
    violation, so a misrouted packet -- a corrupted route table -- is
    flagged under the probe's name the cycle it arrives.  With every
    flit at its destination a packet cannot split across sinks.
    """

    name = "in_order_delivery"

    def __init__(self) -> None:
        super().__init__()
        self._expected: Dict[int, int] = {}
        self._originals: List[Tuple[Any, Any]] = []

    def attach(self, network) -> None:
        self._originals = []
        for sink in network.sinks:
            original = sink.accept
            # The instance-level ``accept`` being wrapped, if any.
            shadowed = vars(sink).get("accept")

            def wrapped(flit, cycle, _sink=sink, _original=original):
                self._observe(_sink, flit, cycle)
                try:
                    _original(flit, cycle)
                except AssertionError as error:
                    self.fail(cycle, str(error))
                    raise

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
        pid = flit.packet.packet_id
        expected = self._expected.get(pid, 0)
        if flit.index != expected:
            self.fail(
                cycle,
                f"packet {pid}: flit index {flit.index} ejected at node "
                f"{sink.node}, expected index {expected}",
            )
        if flit.is_tail:
            self._expected.pop(pid, None)
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
        self._forwarded: List[List[int]] = []

    def attach(self, network) -> None:
        self._forwarded = [router.stats.forwarded_by_output
                           for router in network.routers]

    def detach(self, network) -> None:
        self._forwarded = []

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
        forwarded = sum(map(sum, self._forwarded))
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
    speculative = config.router_kind is RouterKind.SPECULATIVE_VC
    return [
        FlitConservationProbe(),
        CreditConsistencyProbe(),
        # Before exclusivity: a doubled wormhole grant trips both in the
        # same cycle, and the grant is the root cause.
        SpeculationLegalityProbe() if speculative else SwitchLegalityProbe(),
        VCExclusivityProbe(),
        InOrderDeliveryProbe(),
        WatchdogProbe(),
    ]
