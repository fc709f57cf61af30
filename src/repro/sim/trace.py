"""Flit-level event tracing.

A :class:`Tracer` attached to a network records timestamped events as
flits move: buffer writes, switch grants, crossbar traversals, and
ejections.  Used by the timing tests to pin per-stage behaviour (e.g.
that a head flit's RC, allocation and traversal land on consecutive
cycles) and handy when debugging router changes::

    net = Network(config)
    tracer = Tracer.attach(net)
    ...
    tracer.detach(net)
    for event in tracer.packet_events(packet_id):
        print(event)

Tracing costs one branch per event when disabled and is off by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple


class EventKind(enum.Enum):
    BUFFER_WRITE = "buffer_write"   # flit written into an input VC
    RC = "route_computed"           # head's output port computed (RC)
    VC_GRANT = "vc_grant"           # output VC allocated to the head (VA)
    SWITCH_GRANT = "switch_grant"   # switch allocated to the flit's VC
    TRAVERSAL = "traversal"         # flit crossed the crossbar (ST)
    EJECTION = "ejection"           # flit delivered to the sink


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped flit event."""

    cycle: int
    kind: EventKind
    node: int
    port: int
    vc: int
    packet_id: int
    flit_index: int

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle:5d}: {self.kind.value:12s} "
            f"node {self.node:3d} port {self.port} vc {self.vc} "
            f"pkt {self.packet_id} flit {self.flit_index}"
        )


class Tracer:
    """Collects :class:`TraceEvent` records from an attached network."""

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self._shadowed: List[Tuple[Any, Any]] = []

    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, network, max_events: Optional[int] = None) -> "Tracer":
        """Create a tracer and hook it into every router and sink."""
        tracer = cls(max_events)
        # Trace events are emitted by the generic-path methods; a
        # compiled step function has those branches compiled out.
        force = getattr(network, "force_generic_step", None)
        if force is not None:
            force("trace")
        for router in network.routers:
            router.tracer = tracer
        # The instance-level ``accept`` each sink had before the wrap
        # (None: the class's method), for :meth:`detach`.
        tracer._shadowed = [
            (sink, vars(sink).get("accept")) for sink in network.sinks
        ]
        for sink in network.sinks:
            original = sink.accept

            def accept(flit, cycle, original=original, node=sink.node):
                tracer.record(
                    cycle, EventKind.EJECTION, node, 0, flit.vcid,
                    flit.packet.packet_id, flit.index,
                )
                original(flit, cycle)

            sink.accept = accept
        return tracer

    def detach(self, network) -> None:
        """Unhook from ``network``; its routers and sinks stop tracing.

        Each sink's wrapper refers back to the sink, so a network left
        attached is freed only by the cyclic collector.  Recorded
        events stay readable, and the network keeps running the
        generic step ``attach`` forced.
        """
        for router in network.routers:
            router.tracer = None
        for sink, shadowed in self._shadowed:
            if shadowed is None:
                # Storing the bound method back would tie the sink to
                # itself; dropping the wrapper unshadows the class's.
                del sink.accept
            else:
                sink.accept = shadowed
        self._shadowed = []

    def record(
        self, cycle: int, kind: EventKind, node: int, port: int, vc: int,
        packet_id: int, flit_index: int,
    ) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            return
        self.events.append(
            TraceEvent(cycle, kind, node, port, vc, packet_id, flit_index)
        )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def packet_events(self, packet_id: int) -> List[TraceEvent]:
        return [e for e in self.events if e.packet_id == packet_id]

    def flit_events(self, packet_id: int, flit_index: int) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.packet_id == packet_id and e.flit_index == flit_index
        ]

    def events_of_kind(self, kind: EventKind) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def traversal_cycles(self, packet_id: int, flit_index: int) -> List[int]:
        """ST cycles of one flit, hop by hop."""
        return [
            e.cycle for e in self.flit_events(packet_id, flit_index)
            if e.kind is EventKind.TRAVERSAL
        ]

    def per_hop_latencies(self, packet_id: int, flit_index: int = 0) -> List[int]:
        """Traversal-to-traversal gaps of one flit across its path."""
        cycles = self.traversal_cycles(packet_id, flit_index)
        return [b - a for a, b in zip(cycles, cycles[1:])]

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        return "\n".join(str(e) for e in (events or self.events))
