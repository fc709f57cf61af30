"""Textual network state snapshots for debugging and teaching.

:func:`occupancy_map` renders per-node buffer occupancy as an ASCII heat
map of the mesh; :func:`describe_router` dumps one router's VC states.
Used interactively when a simulation behaves unexpectedly ("where is
everything stuck?") -- and by the congestion examples to *show* hotspot
formation rather than assert it.

:func:`state_digest` condenses every router's microarchitectural state
(VC states and the three bitmasks that store them, routes, buffered
flits, credits, held ports/VCs, and channel in-flight contents) into
one hex digest.  The high-load differential battery compares digests
across steppers: two runs that agree on metrics but diverge in buffered
state still fail.
"""

from __future__ import annotations

import hashlib
from typing import List

from .network import Network
from .routers.base import BaseRouter, VCState
from .topology import PORT_NAMES

#: Occupancy-fraction thresholds and their glyphs, light to heavy.
_GLYPHS = ((0.0, "."), (0.25, "-"), (0.5, "+"), (0.75, "#"), (1.0, "@"))


def _glyph(fraction: float) -> str:
    glyph = _GLYPHS[0][1]
    for threshold, candidate in _GLYPHS:
        if fraction >= threshold and fraction > 0:
            glyph = candidate
    return glyph


def occupancy_map(network: Network) -> str:
    """ASCII heat map of buffer occupancy across the mesh.

    Each node shows the fill fraction of its input buffers:
    ``.`` empty, ``-`` <=25%, ``+`` <=50%, ``#`` <=75%, ``@`` full.
    """
    k = network.mesh.k
    lines = [f"cycle {network.cycle}: buffer occupancy ({k}x{k})"]
    for y in range(k):
        row = []
        for x in range(k):
            router = network.routers[network.mesh.node_at(x, y)]
            capacity = sum(
                ivc.buffer.capacity
                for port_vcs in router.input_vcs
                for ivc in port_vcs
            )
            used = router.buffered_flits()
            row.append(_glyph(used / capacity if capacity else 0.0))
        lines.append(" ".join(row))
    legend = ", ".join(f"{g} >= {t:.0%}" for t, g in _GLYPHS[1:])
    lines.append(f"(. empty; {legend})")
    return "\n".join(lines)


def describe_router(router: BaseRouter) -> str:
    """One router's input-VC states, routes, and buffer fills."""
    lines = [f"router {router.node}:"]
    for port, port_vcs in enumerate(router.input_vcs):
        for ivc in port_vcs:
            if ivc.state is VCState.IDLE and not ivc.buffer:
                continue
            route = (
                PORT_NAMES[ivc.route] if ivc.route is not None else "-"
            )
            lines.append(
                f"  in {PORT_NAMES[port]:6s} vc{ivc.vc}: "
                f"{ivc.state.name.lower():9s} route={route:6s} "
                f"outvc={ivc.out_vc if ivc.out_vc is not None else '-':>2} "
                f"buffered={len(ivc.buffer)}/{ivc.buffer.capacity}"
            )
    held = [
        f"{PORT_NAMES[out_port]}<-{PORT_NAMES[holder]}"
        for out_port, holder in enumerate(getattr(router, "port_held_by", []))
        if holder is not None
    ]
    if held:
        lines.append(f"  held ports: {', '.join(held)}")
    if len(lines) == 1:
        lines.append("  (idle)")
    return "\n".join(lines)


def state_digest(network: Network) -> str:
    """Hex digest of the network's complete microarchitectural state.

    Covers, per router: every input VC's state, route, output VC,
    readiness cycles and buffered ``(packet_id, flit_index)`` sequence;
    every output VC's holder and credit count; wormhole port holds;
    pending switch traversals; and the three state bitmasks the VC
    states are read from (hashed raw as well, so overlapping masks
    change the digest even where the decoded state name does not).
    Channel in-flight contents (flits and credits, with arrival
    cycles) are included so two networks agree only if their wires
    match too.  Excludes stepper bookkeeping (sleep states, wheel
    buckets) -- the digest is for comparing *physical* state across
    steppers.
    """
    parts: List[object] = [network.cycle]
    for router in network.routers:
        ivcs = []
        for port_vcs in router.input_vcs:
            for ivc in port_vcs:
                ivcs.append((
                    ivc.state.name, ivc.route, ivc.out_vc,
                    ivc.routing_ready, ivc.va_ready,
                    tuple(
                        (f.packet.packet_id, f.index)
                        for f in ivc.buffer
                    ),
                ))
        ovcs = [
            (ovc.held_by, ovc.credits.available)
            for port_vcs in router.output_vcs
            for ovc in port_vcs
        ]
        parts.append((
            router.node,
            tuple(ivcs),
            tuple(ovcs),
            tuple(getattr(router, "port_held_by", ())),
            tuple(router.pending_st),
            router._routing_mask,
            router._va_mask,
            router._active_mask,
        ))
        for channel in router.output_channels:
            if channel is not None:
                parts.append(tuple(
                    (arrival, flit.packet.packet_id, flit.index)
                    for arrival, flit in channel._in_flight
                ))
        for channel in router.credit_channels:
            if channel is not None:
                parts.append(tuple(channel._in_flight))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def busiest_routers(network: Network, count: int = 5) -> List[BaseRouter]:
    """The ``count`` routers holding the most buffered flits."""
    return sorted(
        network.routers, key=lambda r: r.buffered_flits(), reverse=True
    )[:count]
