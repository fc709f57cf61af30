"""Virtual cut-through router (Related Work: Miller & Najjar's target).

Virtual cut-through (VCT) is wormhole's packet-buffered sibling: a head
flit only wins the switch when the downstream input queue has room for
the *entire packet*, so a blocked packet always fits completely in one
node's buffer instead of spreading across the network holding channels
hostage.  The price is buffering: each input queue must hold at least
one whole packet.

Structurally the router is the 3-stage wormhole router with one changed
eligibility rule (whole-packet credit check at the head).  Comparing it
against wormhole isolates the Related Work's point that flow control and
buffer sizing interact: measured on this canonical single-queue
architecture, VCT tracks wormhole with deep buffers but *loses* with
buffers near the packet size, where the whole-packet admission stalls
heads wormhole would trickle forward (quantified in
``tests/sim/test_vct.py``).
"""

from __future__ import annotations

from ..allocators import Request
from ..config import SimConfig
from ..topology import Mesh
from .wormhole import WormholeRouter


class VirtualCutThroughRouter(WormholeRouter):
    """Wormhole datapath + whole-packet admission (VCT flow control)."""

    def __init__(self, node: int, mesh: Mesh, config: SimConfig) -> None:
        if config.buffers_per_vc < config.packet_length:
            raise ValueError(
                "virtual cut-through needs buffers >= packet length "
                f"({config.buffers_per_vc} < {config.packet_length})"
            )
        super().__init__(node, mesh, config)
        self._packet_length = config.packet_length

    def _allocation_phase(self, cycle: int) -> None:
        # Identical to the wormhole allocation except that a *head* may
        # only bid when the downstream queue can absorb the whole packet.
        held_inputs = set()
        for out_port, in_port in enumerate(self.port_held_by):
            if in_port is None:
                continue
            held_inputs.add(in_port)
            ivc = self.input_vcs[in_port][0]
            # body/tail flits continue under the per-flit credit rule --
            # space for them was reserved at admission.
            if ivc.buffer and self.output_vcs[out_port][0].credits:
                self._grant_switch(in_port, 0, cycle)
            elif ivc.buffer:
                self.stats.credits_stalled += 1

        requests = []
        for ivc in self._ivcs_in(self._active_mask):
            in_port = ivc.port
            if in_port in held_inputs or ivc.route is None:
                continue
            flit = ivc.buffer.front()
            if flit is None or not flit.is_head:
                continue
            if self.port_held_by[ivc.route] is not None:
                continue
            credits = self.output_vcs[ivc.route][0].credits
            if credits.available < flit.packet.length:
                self.stats.credits_stalled += 1
                continue
            requests.append(Request(group=in_port, member=0, resource=ivc.route))

        if not requests:
            return
        held_outputs = [p for p, holder in enumerate(self.port_held_by)
                        if holder is not None]
        for grant in self._switch_arbiter.allocate(requests, held_outputs):
            ivc = self.input_vcs[grant.group][0]
            ivc.out_vc = 0
            self.port_held_by[grant.resource] = grant.group
            self._grant_switch(grant.group, 0, cycle)