"""Common router machinery: ports, input VCs, credits, pipeline phasing.

Every router processes three phase groups per cycle, in this order:

1. **ST** -- flits granted switch passage in the *previous* cycle
   traverse the crossbar, depart on their output channels, consume a
   credit, and return a credit upstream for the freed buffer slot.
2. **Allocation** -- switch allocation (and, for VC routers, virtual
   channel allocation) computes the grants consumed by the next cycle's
   ST phase.  Running ST before allocation within a cycle is what makes
   flits stream back-to-back at one per cycle.
3. **RC** -- routing computation for heads that became routable this
   cycle.  Running RC last means a head arriving at cycle ``t`` routes
   at ``t`` and can first bid for allocation at ``t+1``, giving the
   canonical per-hop pipelines (RC | SA | ST and RC | VA | SA | ST).

The network delivers arriving flits and credits *before* phase 1, so a
flit STing upstream at cycle ``t`` (processable here at ``t + 2`` with
1-cycle links) spends exactly ``pipeline depth + 1`` cycles per hop.
"""

from __future__ import annotations

import enum
import weakref
from typing import List, Optional, Tuple

from ..buffers import FlitBuffer
from ..channel import PipelinedChannel
from ..config import SimConfig
from ..credit import CreditCounter, InfiniteCredits
from ..dateline import o1turn_choice
from ..flit import Flit
from ..routing import build_route_table
from ..topology import LOCAL, Mesh, NUM_PORTS
from ..trace import EventKind


class VCState(enum.IntEnum):
    """Input virtual-channel states (Section 3.1's inpc/invc_state).

    Int-coded so hot loops compare machine integers; ``IDLE`` is 0 so
    ``bool(ivc.state)`` doubles as "this VC has work in progress".
    Display code should use ``state.name.lower()`` (the old string
    values) rather than ``state.value``.
    """

    IDLE = 0
    ROUTING = 1
    VC_ALLOC = 2              # waiting for an output VC (VC routers only)
    ACTIVE = 3                # has resources; flits bid for the switch


# Cached members for hot loops: enum attribute access resolves through
# the class dict every time, a local/module binding does not.
_IDLE = VCState.IDLE
_ROUTING = VCState.ROUTING
_VC_ALLOC = VCState.VC_ALLOC
_ACTIVE = VCState.ACTIVE


class InputVC:
    """One input virtual channel: its FIFO and channel state.

    ``flat`` is the VC's port-major index (``port * v + vc``) into the
    owning router's struct-of-arrays views (flat VC list, flat buffer
    list, and the per-state bitmasks).  The VC's state is stored only
    there: :attr:`state` reads bit ``flat`` of the owner's three masks
    and assigning it rewrites that bit, so ``ivc.state = _ACTIVE`` is
    the whole transition.

    The owner is held through a weak reference: the router holds its
    input VCs, and a strong back-reference would put every router in a
    reference cycle that only the cyclic collector could free.
    """

    __slots__ = (
        "port", "vc", "buffer", "route", "out_vc", "routing_ready",
        "reroute_count", "va_ready", "flat", "_owner",
    )

    def __init__(self, owner: "BaseRouter", port: int, vc: int,
                 capacity: int) -> None:
        self._owner = weakref.ref(owner)
        self.port = port
        self.vc = vc
        self.flat = port * owner.num_vcs + vc
        self.buffer = FlitBuffer(capacity)
        self.route: Optional[int] = None       # output port from RC
        self.out_vc: Optional[int] = None      # output VC from VA
        self.routing_ready: int = 0             # earliest cycle RC may run
        self.reroute_count: int = 0             # adaptive re-iterations
        self.va_ready: int = 0                  # earliest cycle VA may run

    @property
    def state(self) -> VCState:
        owner = self._owner()
        bit = 1 << self.flat
        if owner._active_mask & bit:
            return _ACTIVE
        if owner._va_mask & bit:
            return _VC_ALLOC
        if owner._routing_mask & bit:
            return _ROUTING
        return _IDLE

    @state.setter
    def state(self, state: VCState) -> None:
        owner = self._owner()
        bit = 1 << self.flat
        keep = ~bit
        owner._routing_mask &= keep
        owner._va_mask &= keep
        owner._active_mask &= keep
        if state == _ROUTING:
            owner._routing_mask |= bit
        elif state == _VC_ALLOC:
            owner._va_mask |= bit
        elif state == _ACTIVE:
            owner._active_mask |= bit

    def reset_to_idle(self) -> None:
        self.state = _IDLE
        self.route = None
        self.out_vc = None
        self.reroute_count = 0


class OutputVC:
    """One output virtual channel: downstream-buffer credits and holder."""

    __slots__ = ("port", "vc", "credits", "held_by")

    def __init__(self, port: int, vc: int, credits) -> None:
        self.port = port
        self.vc = vc
        self.credits = credits
        #: The input VC currently holding this output VC (None = free).
        self.held_by: Optional[Tuple[int, int]] = None

    @property
    def is_free(self) -> bool:
        return self.held_by is None


class RouterStats:
    """Per-router event counters.

    Crossbar activity is counted per direction where it happens:
    ``forwarded_by_output`` at switch traversal (generic ``_traverse``
    and the compiled ST closure), ``received_by_input`` at
    :meth:`BaseRouter.accept_flit`.  The scalar totals are read-only
    sums, and traversals by *input* port need no counter of their own:
    they are ``received_by_input[p]`` minus the flits still buffered
    at ``p``.
    """

    __slots__ = (
        "received_by_input", "forwarded_by_output", "packets_routed",
        "spec_grants", "spec_wasted", "credits_stalled", "sa_grants",
        "reroutes",
    )

    def __init__(self) -> None:
        self.received_by_input = [0] * NUM_PORTS
        self.forwarded_by_output = [0] * NUM_PORTS
        self.packets_routed = 0
        self.spec_grants = 0
        self.spec_wasted = 0
        self.credits_stalled = 0
        self.sa_grants = 0
        self.reroutes = 0

    @property
    def flits_received(self) -> int:
        return sum(self.received_by_input)

    @property
    def flits_forwarded(self) -> int:
        return sum(self.forwarded_by_output)


class BaseRouter:
    """Shared structure of all simulated routers.

    Subclasses implement :meth:`_allocation_phase` (and may override the
    other phases).  The network attaches output flit channels and input
    credit channels via :meth:`connect`.
    """

    def __init__(self, node: int, mesh: Mesh, config: SimConfig) -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.num_vcs = config.num_vcs
        self.stats = RouterStats()

        capacity = config.buffers_per_vc
        self.input_vcs: List[List[InputVC]] = [
            [InputVC(self, port, vc, capacity) for vc in range(self.num_vcs)]
            for port in range(NUM_PORTS)
        ]
        #: Flattened (port-major) view of every input VC, for hot loops.
        self._all_ivcs: List[InputVC] = [
            ivc for port_vcs in self.input_vcs for ivc in port_vcs
        ]
        #: The input-VC state register, as three bitmasks over the flat
        #: (port-major) input-VC index: ``_all_ivcs[i]`` is ROUTING /
        #: VC_ALLOC / ACTIVE iff bit ``i`` of ``_routing_mask`` /
        #: ``_va_mask`` / ``_active_mask`` is set, and IDLE iff none is.
        #: This is the only copy (``InputVC.state`` is a view of it);
        #: both steppers iterate set bits instead of scanning VC
        #: objects, and :meth:`is_idle` is O(1).  Checked mode asserts
        #: every cycle that the masks are disjoint and agree with each
        #: VC's buffer, route and output VC (``VCExclusivityProbe``).
        self._routing_mask: int = 0
        self._va_mask: int = 0
        self._active_mask: int = 0
        #: Activity flag for the network's fast stepper.  Routers start
        #: active (covers state poked in before the first cycle) and are
        #: re-armed by :meth:`accept_flit`; the network clears the flag
        #: once :meth:`is_idle` proves the next :meth:`cycle` a no-op.
        self.active = True
        self.output_vcs: List[List[OutputVC]] = [
            [
                OutputVC(
                    port,
                    vc,
                    InfiniteCredits() if port == LOCAL else CreditCounter(capacity),
                )
                for vc in range(self.num_vcs)
            ]
            for port in range(NUM_PORTS)
        ]
        #: Flat (port-major) struct-of-arrays views of the output VCs
        #: and their credit counters, mirrors of ``output_vcs``: index
        #: ``port * v + vc``.  The specialized steppers index these with
        #: precomputed flat offsets instead of chasing the nested lists.
        self._ovc_flat: List[OutputVC] = [
            ovc for port_vcs in self.output_vcs for ovc in port_vcs
        ]
        self._ovc_credits: List = [ovc.credits for ovc in self._ovc_flat]
        #: Flat (port-major) list of the raw input-buffer deques.
        self._ivc_queues: List = [ivc.buffer._queue for ivc in self._all_ivcs]
        #: Output flit channels; None for ports at the mesh edge.
        self.output_channels: List[Optional[PipelinedChannel]] = [None] * NUM_PORTS
        #: Upstream credit channels, indexed by *input* port.
        self.credit_channels: List[Optional[PipelinedChannel]] = [None] * NUM_PORTS
        #: Switch grants to execute next ST phase: (input port, input vc).
        self.pending_st: List[Tuple[int, int]] = []
        #: Optional :class:`repro.sim.trace.Tracer` (set via Tracer.attach).
        self.tracer = None
        self._routing_name = config.routing_function
        #: The routing function as a table, built once here and never
        #: reassigned: per destination, the output port (xy/yx), the
        #: ``(xy port, yx port)`` pair the packet's committed order
        #: indexes (o1turn), or the ``(productive ports, DOR port)``
        #: pair (adaptive) -- see :func:`~repro.sim.routing.build_route_table`.
        #: The generic route methods and every compiled RC closure read
        #: it, so corrupting it is observable under checked mode.
        self._route_table = build_route_table(self._routing_name, mesh, node)

    # ------------------------------------------------------------------
    # Wiring (called by the network).
    # ------------------------------------------------------------------

    def connect_output(self, port: int, channel: PipelinedChannel) -> None:
        self.output_channels[port] = channel

    def connect_credit(self, port: int, channel: PipelinedChannel) -> None:
        self.credit_channels[port] = channel

    # ------------------------------------------------------------------
    # Network-facing events (delivered before the router's phases).
    # ------------------------------------------------------------------

    def accept_flit(self, port: int, flit: Flit, cycle: int) -> None:
        """A flit arrives on an input port; the vcid field selects the VC."""
        self.active = True
        ivc = self.input_vcs[port][flit.vcid]
        ivc.buffer.push(flit)
        self.stats.received_by_input[port] += 1
        if self.tracer is not None:
            self.tracer.record(
                cycle, EventKind.BUFFER_WRITE, self.node, port, flit.vcid,
                flit.packet.packet_id, flit.index,
            )
        # IDLE -> ROUTING, spelled on the masks: this runs per flit under
        # the compiled steps, which never go through ``ivc.state``.
        if flit.is_head and not (
            self._routing_mask | self._va_mask | self._active_mask
        ) >> ivc.flat & 1:
            if ivc.buffer.front() is not flit:
                raise AssertionError(
                    "head flit arrived at an idle VC with a non-empty buffer"
                )
            ivc.routing_ready = cycle
            self._routing_mask |= 1 << ivc.flat

    def receive_credit(self, port: int, vc: int) -> None:
        """A credit returned for output ``port``/``vc``.

        Deliberately does *not* wake a sleeping router: an idle router
        (no pending grants, every input VC IDLE) has no flit a credit
        could unblock, so its phases stay provable no-ops whatever the
        credit counters hold.  Only :meth:`accept_flit` creates work.
        """
        self.output_vcs[port][vc].credits.restore()

    # ------------------------------------------------------------------
    # Per-cycle phases.
    # ------------------------------------------------------------------

    def cycle(self, cycle: int) -> None:
        self._st_phase(cycle)
        self._allocation_phase(cycle)
        self._rc_phase(cycle)

    def _st_phase(self, cycle: int) -> None:
        """Execute last cycle's switch grants: crossbar + link traversal."""
        if not self.pending_st:
            return
        grants, self.pending_st = self.pending_st, []
        used_outputs = set()
        for port, vc in grants:
            ivc = self.input_vcs[port][vc]
            self._traverse(ivc, cycle, used_outputs)

    def _traverse(self, ivc: InputVC, cycle: int, used_outputs: set) -> None:
        """Move the front flit of ``ivc`` through the crossbar."""
        flit = ivc.buffer.front()
        if flit is None:
            raise AssertionError("switch granted to an empty input VC")
        out_port = ivc.route
        out_vc_index = ivc.out_vc
        if out_port is None or out_vc_index is None:
            raise AssertionError("switch granted before resources allocated")
        if out_port in used_outputs:
            raise AssertionError("two flits granted the same output port")
        used_outputs.add(out_port)

        ovc = self.output_vcs[out_port][out_vc_index]
        ovc.credits.consume()
        ivc.buffer.pop()
        flit.vcid = out_vc_index
        channel = self.output_channels[out_port]
        if channel is None:
            raise AssertionError(
                f"router {self.node}: no channel on output port {out_port}"
            )
        channel.send(flit, cycle)
        self.stats.forwarded_by_output[out_port] += 1
        if self.tracer is not None:
            self.tracer.record(
                cycle, EventKind.TRAVERSAL, self.node, ivc.port, ivc.vc,
                flit.packet.packet_id, flit.index,
            )

        if flit.is_tail:
            self._release_resources(ivc, ovc, cycle)

    def _release_resources(self, ivc: InputVC, ovc: OutputVC, cycle: int) -> None:
        """Tail departed: free the output VC and recycle the input VC."""
        ovc.held_by = None
        ivc.reset_to_idle()
        front = ivc.buffer.front()
        if front is not None:
            if not front.is_head:
                raise AssertionError("non-head flit at VC front after tail departed")
            ivc.state = _ROUTING
            # Channel-state update settles at the cycle's end; the next
            # packet routes from the following cycle.
            ivc.routing_ready = cycle + 1

    def _grant_switch(self, port: int, vc: int, cycle: int) -> None:
        """Record a switch grant and dispatch the flow-control credit.

        The credit for the buffer slot departs *at grant time*: the flit
        is committed and read out of the input queue into the crossbar
        stage, so the slot is handed back upstream a cycle before the
        physical traversal ("credit on read-out").  With 1-cycle credit
        propagation this yields the 5-cycle (wormhole / speculative VC),
        6-cycle (non-speculative VC) and 3-cycle (single-cycle) credit
        loops that reproduce the paper's measured zero-load latencies --
        notably the 1-cycle penalty of the speculative router with
        4-buffer VCs (30 vs 29 cycles, Figure 13 and footnote 15) and
        the 1-cycle turnaround gap between the speculative and
        non-speculative VC routers (Section 5.2).
        """
        self.pending_st.append((port, vc))
        self.stats.sa_grants += 1
        credit_channel = self.credit_channels[port]
        if credit_channel is not None:
            credit_channel.send(vc, cycle)
        if self.tracer is not None:
            flit = self.input_vcs[port][vc].buffer.front()
            if flit is not None:
                self.tracer.record(
                    cycle, EventKind.SWITCH_GRANT, self.node, port, vc,
                    flit.packet.packet_id, flit.index,
                )

    def _allocation_phase(self, cycle: int) -> None:
        raise NotImplementedError

    def _rc_phase(self, cycle: int) -> None:
        """Routing computation for heads that became routable."""
        tracer = self.tracer
        for ivc in self._ivcs_in(self._routing_mask):
            if ivc.routing_ready <= cycle:
                flit = ivc.buffer.front()
                if flit is None or not flit.is_head:
                    raise AssertionError("ROUTING state without a head flit")
                ivc.route = self._route_vc(ivc, flit)
                self.stats.packets_routed += 1
                if tracer is not None:
                    tracer.record(
                        cycle, EventKind.RC, self.node, ivc.port, ivc.vc,
                        flit.packet.packet_id, flit.index,
                    )
                self._after_routing(ivc, cycle)

    def _ivcs_in(self, mask: int):
        """The input VCs whose bit is set in ``mask``, in ``_all_ivcs``
        order.  Walks the value passed in, so a transition made by the
        loop body does not change which VCs are visited."""
        all_ivcs = self._all_ivcs
        while mask:
            low = mask & -mask
            mask -= low
            yield all_ivcs[low.bit_length() - 1]

    def is_idle(self) -> bool:
        """True when the next :meth:`cycle` is provably a no-op.

        No granted traversals are pending and every input VC is IDLE
        (an IDLE VC has an empty buffer -- :meth:`accept_flit` asserts
        it).  Idle routers hold no output VCs or ports either: a held
        resource implies a non-IDLE holder VC in this router.  O(1):
        a VC is IDLE iff its bit is clear in all three state bitmasks.
        """
        if self.pending_st:
            return False
        return not (self._routing_mask | self._va_mask | self._active_mask)

    def _route_vc(self, ivc: InputVC, flit: Flit) -> int:
        """Route a head; subclasses may use per-VC state (adaptivity)."""
        return self._route(flit)

    def _route(self, flit: Flit) -> int:
        entry = self._route_table[flit.destination]
        if self._routing_name == "o1turn":
            return entry[o1turn_choice(flit.packet) == "yx"]
        return entry

    def _after_routing(self, ivc: InputVC, cycle: int) -> None:
        """State transition after RC; VC routers go to VC_ALLOC."""
        ivc.state = _ACTIVE

    # ------------------------------------------------------------------
    # Introspection helpers (tests and invariant checks).
    # ------------------------------------------------------------------

    def buffered_flits(self) -> int:
        return sum(map(len, self._ivc_queues))
