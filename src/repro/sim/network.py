"""The mesh network: routers, channels, sources and sinks.

``Network`` wires one router per mesh node with pipelined flit channels
(and reverse credit channels) along every mesh link, an injection source
and an ejection sink per node.  ``Network.step()`` advances one clock:

1. deliver arriving flits and credits (and ejections to the sinks);
2. sources generate and inject traffic;
3. every router runs its ST / allocation / RC phases.

Sources own per-VC views of the local input port's credits, injecting at
most one flit per cycle (the injection channel has the same bandwidth as
a network channel).  Sinks model the paper's "immediate ejection": each
counts what it ejects and keeps only the latencies of the measured
sample, so a delivered packet is freed the moment its tail ejects and
a point's memory is O(network) plus 8 bytes per sample packet.

Two steppers implement the clock, selected by ``SimConfig.stepper``:

``"fast"`` (default)
    Event-driven hot loop.  Channel arrivals are scheduled on a timing
    wheel at ``send()`` time, so a step drains exactly the channels with
    traffic arriving this cycle instead of polling every channel.
    Routers track their own activity (``BaseRouter.active``) and the
    step skips the phase pipeline of provably idle routers; constant
    rate generators fast-forward between firing cycles instead of
    accumulating cycle by cycle.

``"reference"``
    The original full-scan stepper, kept as the oracle baseline.

Both steppers are cycle-for-cycle bit-identical for a fixed seed: the
per-cycle delivery set is the same (the wheel only reorders same-cycle
deliveries, which commute -- each touches a distinct buffer, credit
counter or sink), idle routers' phases are provable no-ops (see
``BaseRouter.is_idle``), and the generator
fast-forward performs the exact floating-point accumulator additions
per-cycle polling would (``PacketSource.offer_horizon``).  The
``fast_vs_reference`` oracle and the property suite enforce this.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from .channel import PipelinedChannel
from .config import SimConfig
from .credit import CreditCounter
from .flit import Flit, Packet
from .routers import BaseRouter, make_router
from .routers.specialized import compile_step
from .topology import LOCAL, OPPOSITE, make_topology
from .traffic import (
    PacketSource,
    make_destination_pattern,
    rate_from_capacity_fraction,
)

class _EventWheel:
    """Power-of-two timing wheel scheduling channel arrivals.

    One ring of buckets per endpoint kind: router flit inputs
    (``flits``), router credit inputs (``credits``), source credit
    refills (``refills``) and sink ejections (``ejections``).  Each
    ``send()`` on a bound channel appends the channel's entry -- its
    ``_in_flight`` deque followed by the endpoint's node index (and,
    for routers, input port) -- to its ring's bucket for the arrival
    cycle; ``drain`` visits only that cycle's four buckets and
    delivers every payload whose arrival is due.

    Entries name their endpoint instead of holding it: ``drain``
    resolves ``routers[node].accept_flit`` / ``receive_credit``,
    ``sources[node].restore_credit`` and ``sinks[node].accept`` at
    call time.  So instance-level wrappers (tracers and in-order probes
    around ``Sink.accept``) and class-level monkeypatches keep
    intercepting deliveries exactly as they do under the reference
    stepper, and no channel refers back to a router: the network's
    object graph has no reference cycle, and dropping the last
    reference to it frees it at once.

    The wheel has ``>= max_delay + 2`` slots, so an arrival offset
    (``delay + 1``, in ``[1, max_delay + 1]``) can never alias the slot
    currently being drained: every scheduled entry survives until its
    own cycle.  Entries hold the channel's ``_in_flight`` deque rather
    than individual payloads, so delivery order *within* a channel is
    the channel's FIFO order, and a duplicate entry (or one whose
    payloads were already consumed via ``deliver()``) is a harmless
    no-op.  Same-cycle deliveries commute (each touches a distinct
    buffer, credit counter or sink), so draining kind by kind is
    unobservable.
    """

    __slots__ = ("flits", "credits", "refills", "ejections", "_mask")

    def __init__(self, max_delay: int) -> None:
        size = 1
        while size < max_delay + 2:
            size <<= 1
        self._mask = size - 1
        self.flits: List[list] = [[] for _ in range(size)]
        self.credits: List[list] = [[] for _ in range(size)]
        self.refills: List[list] = [[] for _ in range(size)]
        self.ejections: List[list] = [[] for _ in range(size)]

    def drain(
        self,
        cycle: int,
        routers: List[BaseRouter],
        sinks: List["Sink"],
        sources: List["Source"],
    ) -> None:
        slot = cycle & self._mask
        bucket = self.flits[slot]
        if bucket:
            for in_flight, node, port in bucket:
                while in_flight and in_flight[0][0] <= cycle:
                    routers[node].accept_flit(
                        port, in_flight.popleft()[1], cycle
                    )
            bucket.clear()
        bucket = self.credits[slot]
        if bucket:
            for in_flight, node, port in bucket:
                while in_flight and in_flight[0][0] <= cycle:
                    routers[node].receive_credit(port, in_flight.popleft()[1])
            bucket.clear()
        bucket = self.refills[slot]
        if bucket:
            for in_flight, node in bucket:
                while in_flight and in_flight[0][0] <= cycle:
                    sources[node].restore_credit(in_flight.popleft()[1])
            bucket.clear()
        bucket = self.ejections[slot]
        if bucket:
            for in_flight, node in bucket:
                while in_flight and in_flight[0][0] <= cycle:
                    sinks[node].accept(in_flight.popleft()[1], cycle)
            bucket.clear()


class _FlitTotals:
    """Network-wide flit counters, kept by the sources and sinks.

    One instance is shared by a network and its sources and sinks, so
    ``Network.drained()`` and the ``total_*`` reads are O(1) per cycle
    without any endpoint referring back to the network.  A source or
    sink built on its own keeps a private instance.
    """

    __slots__ = ("injected", "ejected", "measured_ejected")

    def __init__(self) -> None:
        self.injected = 0
        self.ejected = 0
        self.measured_ejected = 0


class Source:
    """Per-node injection queue feeding the router's local input port.

    Holds an unbounded packet queue (the paper measures source queueing
    time).  Packets are assigned to idle local VCs; one flit per cycle
    moves into the router, round-robin across VCs with buffer space.
    """

    def __init__(
        self,
        node: int,
        num_vcs: int,
        buffer_capacity: int,
        totals: Optional[_FlitTotals] = None,
    ) -> None:
        self.node = node
        self.num_vcs = num_vcs
        self.pending: Deque[Packet] = deque()
        self._streams: List[Deque[Flit]] = [deque() for _ in range(num_vcs)]
        self.credits = [CreditCounter(buffer_capacity) for _ in range(num_vcs)]
        self._round_robin = 0
        self.flits_injected = 0
        #: Flits waiting here, maintained incrementally so the stepper's
        #: "anything to inject?" test is O(1).
        self._backlog = 0
        #: Aggregate counters shared with the owning network.
        self._totals = totals if totals is not None else _FlitTotals()

    def enqueue(self, packet: Packet) -> None:
        self.pending.append(packet)
        self._backlog += packet.length

    @property
    def queued_packets(self) -> int:
        return len(self.pending) + sum(1 for s in self._streams if s)

    @property
    def backlog_flits(self) -> int:
        """Flits waiting at this source (queued packets + partial streams)."""
        return self._backlog

    def restore_credit(self, vc: int) -> None:
        self.credits[vc].restore()

    def inject(self, router: BaseRouter, cycle: int) -> Optional[Flit]:
        """Move at most one flit into the router's local port."""
        # Assign waiting packets to idle VC streams.
        pending = self.pending
        for vc in range(self.num_vcs):
            if not self._streams[vc] and pending:
                self._streams[vc].extend(pending.popleft().make_flits())
        # Inject one flit from a VC with space, round-robin.
        for offset in range(self.num_vcs):
            vc = (self._round_robin + offset) % self.num_vcs
            if self._streams[vc] and self.credits[vc]:
                flit = self._streams[vc].popleft()
                flit.vcid = vc
                self.credits[vc].consume()
                router.accept_flit(LOCAL, flit, cycle)
                self.flits_injected += 1
                self._backlog -= 1
                self._totals.injected += 1
                self._round_robin = (vc + 1) % self.num_vcs
                if flit.is_head:
                    flit.packet.injection_cycle = cycle
                return flit
        return None


class Sink:
    """Per-node ejection endpoint: delivery counts and sample latencies.

    ``latencies`` holds ``ejection_cycle - creation_cycle`` of each
    measured packet, in this sink's ejection order -- the only thing
    the simulator reads back about delivered packets.  No ``Packet``
    outlives its own delivery: the sink keeps counts and 8 bytes per
    sample packet, so a point's memory does not grow with its length.
    A test that needs the delivered packets themselves records them
    with :func:`repro.sim.validation.oracle.record_deliveries`.

    Deliberately *not* ``__slots__``-ed: tracers, in-order probes and
    delivery recorders wrap ``accept`` as an instance attribute.
    """

    def __init__(self, node: int, totals: Optional[_FlitTotals] = None) -> None:
        self.node = node
        self.flits_ejected = 0
        self.packets_ejected = 0
        self.measured_ejected = 0
        self.latencies = array("q")
        #: Aggregate counters shared with the owning network.
        self._totals = totals if totals is not None else _FlitTotals()

    def accept(self, flit: Flit, cycle: int) -> None:
        if flit.destination != self.node:
            raise AssertionError(
                f"flit for node {flit.destination} ejected at node {self.node}"
            )
        self.flits_ejected += 1
        totals = self._totals
        totals.ejected += 1
        if flit.is_tail:
            packet = flit.packet
            packet.ejection_cycle = cycle
            self.packets_ejected += 1
            if packet.measured:
                self.measured_ejected += 1
                self.latencies.append(cycle - packet.creation_cycle)
                totals.measured_ejected += 1


class Network:
    """A k x k mesh of routers under a single synchronous clock."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.mesh = make_topology(config.topology, config.mesh_radix)
        self.cycle = 0
        self.rng = random.Random(config.seed)

        self.routers: List[BaseRouter] = [
            make_router(node, self.mesh, config) for node in self.mesh.nodes()
        ]
        # Aggregate flit counters, maintained by sources/sinks as flits
        # move, so draining/sampling tests are O(1) per cycle.
        self._totals = _FlitTotals()
        self.sources = [
            Source(node, config.num_vcs, config.buffers_per_vc, self._totals)
            for node in self.mesh.nodes()
        ]
        self.sinks = [Sink(node, self._totals) for node in self.mesh.nodes()]

        pattern = make_destination_pattern(config.traffic_pattern)
        rate = rate_from_capacity_fraction(
            self.mesh, config.injection_fraction, config.packet_length
        )
        if rate > 1.0:
            raise ValueError(
                f"injection fraction {config.injection_fraction} needs "
                f"{rate:.2f} packets/node/cycle, beyond channel bandwidth"
            )
        # One id sequence per network, shared by all sources, so packet
        # ids are a pure function of the run regardless of what else ran
        # in the process (o1turn's hash split reads the id).
        self._packet_ids = itertools.count()
        self.generators = [
            PacketSource(
                node=node,
                mesh=self.mesh,
                rate_packets_per_cycle=rate,
                packet_length=config.packet_length,
                rng=random.Random(self.rng.randrange(2**62)),
                pattern=pattern,
                process=config.injection_process,
                burst_length=config.burst_length,
                ids=self._packet_ids,
            )
            for node in self.mesh.nodes()
        ]

        # Constant-rate generators never touch the RNG between firing
        # cycles, so the fast stepper jumps straight to each generator's
        # next offer cycle; stochastic processes draw every cycle and
        # must be polled.  ``offer_horizon()`` performs the exact same
        # accumulator additions per-cycle polling would, keeping the
        # fast-forward bit-identical.
        self._poll_generators = config.injection_process != "constant"
        self._next_offer: List[int] = []
        if config.stepper == "fast":
            # Reference-stepper networks must not touch the generators
            # here: offer_horizon() advances the accumulators.
            for generator in self.generators:
                if (
                    self._poll_generators
                    or generator.rate_packets_per_cycle <= 0.0
                ):
                    # Zero-rate generators stay polled: maybe_generate
                    # is a cheap early-return for them, and tests flip
                    # the rate mid-run in both directions.
                    self._next_offer.append(0)
                else:
                    self._next_offer.append(generator.offer_horizon() - 1)

        # (channel, destination router, input port) for link delivery.
        self._flit_links: List[Tuple[PipelinedChannel, BaseRouter, int]] = []
        # (channel, upstream router or source, output port) for credits;
        # the port is None for a source's injection credits.
        self._credit_links: List[Tuple[PipelinedChannel, object, int]] = []
        # (channel, sink) for ejection.
        self._ejection_links: List[Tuple[PipelinedChannel, Sink]] = []
        self._wheel: Optional[_EventWheel] = None
        self._wire()

        #: Packets whose generation was recorded, for conservation checks.
        self.packets_generated = 0
        self.measuring_generation = True

        #: The stepper, chosen once so the hot loop pays no per-cycle
        #: branch for it.  A plain function, called with the network:
        #: a bound method stored on the instance would be a reference
        #: cycle that only the cyclic collector could free.
        self._stepper: Callable[["Network"], None] = (
            type(self)._step_fast if config.stepper == "fast"
            else type(self)._step_reference
        )

        #: Why the routers run the generic ``cycle`` path instead of a
        #: compiled step function; None while specialization is live.
        self.generic_step_reason: Optional[str] = None
        #: Routers currently bound to a compiled step closure (the rest
        #: run the generic path); surfaced on ``RunCounters``.
        self.routers_specialized: int = 0
        #: Per router (indexed by ``router.node``), the config-specialized
        #: step function compiled at wiring time by
        #: :mod:`repro.sim.routers.specialized` (fast stepper only);
        #: ``None`` means the router's generic ``cycle`` runs.  The
        #: closures capture their router, so they live here rather than
        #: on it: a router never refers to its own step.
        self._step_fns: List[Optional[Callable[[int], None]]] = (
            [None] * len(self.routers)
        )
        if config.stepper == "fast":
            self._specialize_routers()
        else:
            self.generic_step_reason = "reference-stepper"

    def _specialize_routers(self) -> None:
        """Compile a config-specialized step function for each router.

        Runs once at wiring time (channels must already be connected).
        Every built-in config compiles; a router whose instance state
        :func:`compile_step` refuses keeps a ``None`` entry in
        ``_step_fns`` and runs the generic path.
        """
        self._step_fns = [compile_step(router) for router in self.routers]
        self.routers_specialized = sum(
            step_fn is not None for step_fn in self._step_fns
        )

    def force_generic_step(self, reason: str) -> None:
        """Drop every compiled step function; the generic path runs.

        Called by ``Tracer.attach`` alone: trace events come from the
        generic methods' ``tracer`` branches, which the compiled
        closures leave out.  Checked mode's probes and a
        ``TelemetrySession`` read state both step paths keep, so they
        never call this (a session that captures a trace attaches a
        tracer).
        """
        self.generic_step_reason = reason
        self.routers_specialized = 0
        self._step_fns = [None] * len(self.routers)

    # ------------------------------------------------------------------

    def _wire(self) -> None:
        flit_delay = self.config.flit_propagation
        credit_delay = self.config.credit_channel_delay
        for node, port, neighbor in self.mesh.links():
            src_router = self.routers[node]
            dst_router = self.routers[neighbor]
            dst_port = OPPOSITE[port]

            flit_channel: PipelinedChannel = PipelinedChannel(flit_delay)
            src_router.connect_output(port, flit_channel)
            self._flit_links.append((flit_channel, dst_router, dst_port))

            credit_channel: PipelinedChannel = PipelinedChannel(credit_delay)
            dst_router.connect_credit(dst_port, credit_channel)
            self._credit_links.append((credit_channel, src_router, port))

        for node in self.mesh.nodes():
            router = self.routers[node]
            # Ejection: local output port -> sink.
            ejection: PipelinedChannel = PipelinedChannel(flit_delay)
            router.connect_output(LOCAL, ejection)
            self._ejection_links.append((ejection, self.sinks[node]))
            # Injection credits: local input port -> source.  One extra
            # cycle compared to network credit links: a source places its
            # flit straight into the local buffer (no switch/link stages),
            # so without it the new flit could land before the granted
            # flit's traversal frees the slot.
            credit_channel = PipelinedChannel(credit_delay + 1)
            router.connect_credit(LOCAL, credit_channel)
            self._credit_links.append((credit_channel, self.sources[node], None))

        #: Every place a flit can be inside the network -- input buffers,
        #: links, ejection channels -- for the physical in-flight count.
        self._flit_stores = [
            *(queue for router in self.routers for queue in router._ivc_queues),
            *(channel._in_flight for channel, _, _ in self._flit_links),
            *(channel._in_flight for channel, _ in self._ejection_links),
        ]
        if self.config.stepper != "fast":
            return
        # Bind every channel to the arrival wheel, naming its endpoint
        # by node index (and port).  Deliveries wake the receiving
        # router through accept_flit/receive_credit, so a sleeping
        # router is reactivated by exactly the events that can give it
        # work.
        max_delay = max(flit_delay, credit_delay + 1)
        wheel = self._wheel = _EventWheel(max_delay)
        for flit_channel, dst_router, dst_port in self._flit_links:
            flit_channel.bind_wheel(wheel.flits, (dst_router.node, dst_port))
        for credit_channel, endpoint, port in self._credit_links:
            if port is None:
                credit_channel.bind_wheel(wheel.refills, (endpoint.node,))
            else:
                credit_channel.bind_wheel(wheel.credits, (endpoint.node, port))
        for ejection, sink in self._ejection_links:
            ejection.bind_wheel(wheel.ejections, (sink.node,))

    # ------------------------------------------------------------------

    def _step_fast(self) -> None:
        """Advance one clock: event-driven deliveries + active routers."""
        cycle = self.cycle

        # Phase 1: deliveries.  Only the wheel bucket for this cycle is
        # visited; same-cycle deliveries commute (disjoint endpoints and
        # additive stats), so bucket order vs. link-list order is
        # unobservable.
        routers = self.routers
        self._wheel.drain(cycle, routers, self.sinks, self.sources)

        # Phase 2: generation and injection.
        measuring = self.measuring_generation
        if self._poll_generators:
            for generator, source in zip(self.generators, self.sources):
                packet = generator.maybe_generate(cycle)
                if packet is not None:
                    packet.measured = measuring
                    self.packets_generated += 1
                    source.enqueue(packet)
                if source._backlog:
                    source.inject(routers[source.node], cycle)
        else:
            next_offer = self._next_offer
            node = 0
            for generator, source in zip(self.generators, self.sources):
                if next_offer[node] <= cycle:
                    packet = generator.maybe_generate(cycle)
                    if packet is not None:
                        # The common case: a constant-rate source fires
                        # at its horizon cycle.
                        packet.measured = measuring
                        self.packets_generated += 1
                        source.enqueue(packet)
                        next_offer[node] = cycle + generator.offer_horizon()
                    elif generator.rate_packets_per_cycle <= 0.0:
                        # Zero rate (possibly zeroed mid-run): poll again
                        # next cycle; the early-return in maybe_generate
                        # keeps the accumulator untouched, exactly as
                        # per-cycle polling would.
                        next_offer[node] = cycle + 1
                    else:
                        next_offer[node] = cycle + generator.offer_horizon()
                if source._backlog:
                    source.inject(routers[source.node], cycle)
                node += 1

        # Phase 3: router pipelines, skipping provably idle routers.
        # Every built-in allocator is pure on an empty request set, so
        # an idle router's cycle is a no-op; only accept_flit wakes one.
        step_fns = self._step_fns
        for router in routers:
            if router.active:
                step_fn = step_fns[router.node]
                if step_fn is not None:
                    step_fn(cycle)
                else:
                    router.cycle(cycle)
                if router.is_idle():
                    router.active = False

        self.cycle = cycle + 1

    def _step_reference(self) -> None:
        """Advance one clock with the original full-scan stepper."""
        cycle = self.cycle

        for channel, router, port in self._flit_links:
            for flit in channel.deliver(cycle):
                router.accept_flit(port, flit, cycle)

        for channel, endpoint, port in self._credit_links:
            for vc in channel.deliver(cycle):
                if port is None:
                    endpoint.restore_credit(vc)
                else:
                    endpoint.receive_credit(port, vc)

        for channel, sink in self._ejection_links:
            for flit in channel.deliver(cycle):
                sink.accept(flit, cycle)

        for generator, source in zip(self.generators, self.sources):
            packet = generator.maybe_generate(cycle)
            if packet is not None:
                packet.measured = self.measuring_generation
                self.packets_generated += 1
                source.enqueue(packet)
            source.inject(self.routers[source.node], cycle)

        for router in self.routers:
            router.cycle(cycle)

        self.cycle += 1

    def step(self) -> None:
        """Advance one clock with the configured stepper."""
        self._stepper(self)

    def run(self, cycles: int) -> None:
        stepper = self._stepper
        for _ in range(cycles):
            stepper(self)

    # ------------------------------------------------------------------
    # Introspection / invariants.
    # ------------------------------------------------------------------

    def flits_in_flight(self) -> int:
        """Flits inside routers or on channels (not in sources/sinks).

        Deliberately a physical scan rather than an ``injected -
        ejected`` identity: the conservation check relies on this
        counting what is *actually there*, so a vanished flit is
        detected instead of defined away.
        """
        return sum(map(len, self._flit_stores))

    def total_flits_injected(self) -> int:
        return self._totals.injected

    def total_flits_ejected(self) -> int:
        return self._totals.ejected

    def total_measured_ejected(self) -> int:
        """Measured packets fully delivered (tail ejected), O(1)."""
        return self._totals.measured_ejected

    def check_conservation(self) -> None:
        """No flit is ever created or destroyed inside the network."""
        injected = self.total_flits_injected()
        ejected = self.total_flits_ejected()
        in_flight = self.flits_in_flight()
        if injected != ejected + in_flight:
            raise AssertionError(
                f"flit conservation violated: injected {injected} != "
                f"ejected {ejected} + in flight {in_flight}"
            )

    def drained(self) -> bool:
        """True when no traffic remains anywhere in the system."""
        totals = self._totals
        if totals.injected != totals.ejected:
            return False
        return all(not s._backlog for s in self.sources)
