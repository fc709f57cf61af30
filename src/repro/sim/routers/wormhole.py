"""The canonical 3-stage pipelined wormhole router (Figure 2).

Pipeline: route+decode | switch arbitration | crossbar traversal.

One flit queue per input port.  The global switch arbiter allocates an
output port to a packet's head flit and *holds* it until the tail
departs (per-packet switch allocation); body and tail flits of the
holding packet pass without re-arbitrating.  Credits are kept per
output port (the downstream input queue).
"""

from __future__ import annotations

from typing import List, Optional

from ..allocators import Request, SeparableAllocator
from ..config import SimConfig
from ..topology import Mesh, NUM_PORTS
from .base import BaseRouter, InputVC


class WormholeRouter(BaseRouter):
    """3-stage wormhole router with per-packet switch arbitration."""

    def __init__(self, node: int, mesh: Mesh, config: SimConfig) -> None:
        if config.num_vcs != 1:
            raise ValueError("wormhole routers have one queue per input port")
        super().__init__(node, mesh, config)
        #: Output-port hold state: the input port owning each output port.
        self.port_held_by: List[Optional[int]] = [None] * NUM_PORTS
        # Switch arbiter: one pi:1 matrix arbiter per output port
        # (Figure 7a); modelled as a separable allocator with singleton
        # first-stage groups.
        self._switch_arbiter = SeparableAllocator(
            num_groups=NUM_PORTS,
            members_per_group=1,
            num_resources=NUM_PORTS,
            arbiter_kind=config.arbiter_kind,
        )

    def _allocation_phase(self, cycle: int) -> None:
        # 1. Held ports: the holder streams its next flit when one is
        #    buffered and a credit is available (no arbitration needed).
        held_inputs = set()
        for out_port, in_port in enumerate(self.port_held_by):
            if in_port is None:
                continue
            held_inputs.add(in_port)
            ivc = self.input_vcs[in_port][0]
            if ivc.buffer and self.output_vcs[out_port][0].credits:
                self._grant_switch(in_port, 0, cycle)
            elif ivc.buffer:
                self.stats.credits_stalled += 1

        # 2. Free ports: head flits in ACTIVE state arbitrate.
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
            if not self.output_vcs[ivc.route][0].credits:
                self.stats.credits_stalled += 1
                continue
            requests.append(Request(group=in_port, member=0, resource=ivc.route))

        if not requests:
            # The separable arbiter grants nothing (and mutates nothing)
            # on an empty request set; skip the call entirely.
            return
        # repro: hot-ok[bounded per-cycle scratch in the reference wormhole arbiter]
        held_outputs = [p for p, holder in enumerate(self.port_held_by)
                        if holder is not None]
        for grant in self._switch_arbiter.allocate(requests, held_outputs):
            ivc = self.input_vcs[grant.group][0]
            ivc.out_vc = 0
            self.port_held_by[grant.resource] = grant.group
            self._grant_switch(grant.group, 0, cycle)

    def _release_resources(self, ivc: InputVC, ovc, cycle: int) -> None:
        # The tail frees the held output port as it departs.
        self.port_held_by[ovc.port] = None
        super()._release_resources(ivc, ovc, cycle)
