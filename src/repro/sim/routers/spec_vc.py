"""The 3-stage speculative virtual-channel router (Figure 4c).

Pipeline: route+decode | VC & speculative switch allocation | crossbar.

A head flit waiting for an output VC bids for the switch *in the same
cycle* as it bids for the VC, speculating that VC allocation will
succeed.  The switch allocator runs as two separable allocators in
parallel (Figure 7c): non-speculative requests (flits that already hold
an output VC) have absolute priority; a speculative grant survives the
combiner only if neither its input port nor its output port was claimed
non-speculatively.  A surviving speculative grant still yields a wasted
crossbar passage if VC allocation failed that cycle, or if the granted
output VC has no credit -- both are counted in the router stats.

Because the switch is allocated cycle-by-cycle (never held), failed
speculation cannot deadlock anything; it only wastes the slot
(Section 3.1).
"""

from __future__ import annotations

from ..allocators import Request, SpeculativeSwitchAllocator
from ..config import SimConfig
from ..topology import Mesh, NUM_PORTS
from .base import _ACTIVE
from .vc import VirtualChannelRouter


class SpeculativeVCRouter(VirtualChannelRouter):
    """3-stage speculative virtual-channel router."""

    def __init__(self, node: int, mesh: Mesh, config: SimConfig) -> None:
        super().__init__(node, mesh, config)
        #: This cycle's speculative grants, wasted ones included: bit
        #: ``(port * v + vc) * NUM_PORTS + output``, stored on both paths.
        self.spec_grant_mask = 0

    def _build_switch_allocator(self, config: SimConfig) -> None:
        # Two allocators in parallel (Figure 7c) replace the plain
        # router's one.
        self._spec_switch_allocator = SpeculativeSwitchAllocator(
            NUM_PORTS, self.num_vcs, config.arbiter_kind,
            config.allocator_kind, config.speculation_priority,
        )

    def _allocation_phase(self, cycle: int) -> None:
        nonspec_requests = []
        spec_requests = []
        for ivc in self._ivcs_in(self._active_mask):
            if self._sa_eligible(ivc):
                nonspec_requests.append(
                    Request(group=ivc.port, member=ivc.vc, resource=ivc.route)
                )
        for ivc in self._ivcs_in(self._va_mask):
            if ivc.route is None or ivc.va_ready > cycle:
                continue
            # Bid speculatively only if VC allocation could possibly
            # succeed this cycle (some permitted candidate VC is free).
            candidates = self._candidate_vcs(ivc)
            if any(
                self.output_vcs[ivc.route][c].is_free for c in candidates
            ):
                spec_requests.append(
                    Request(group=ivc.port, member=ivc.vc, resource=ivc.route)
                )

        if nonspec_requests or spec_requests:
            nonspec_grants, spec_grants = self._spec_switch_allocator.allocate(
                nonspec_requests, spec_requests
            )
        else:
            nonspec_grants, spec_grants = (), ()

        for grant in nonspec_grants:
            self._grant_switch(grant.group, grant.member, cycle)

        # VC allocation runs in parallel with switch allocation.
        self._vc_allocation(cycle)

        # Combine: a speculative switch grant is useful only if the same
        # head also won an output VC with a credit available.
        spec_mask = 0
        for grant in spec_grants:
            self.stats.spec_grants += 1
            spec_mask |= 1 << (
                (grant.group * self.num_vcs + grant.member) * NUM_PORTS
                + grant.resource
            )
            ivc = self.input_vcs[grant.group][grant.member]
            if ivc.state is not _ACTIVE or ivc.out_vc is None:
                self.stats.spec_wasted += 1  # lost the VC allocation
                continue
            if not self.output_vcs[ivc.route][ivc.out_vc].credits:
                self.stats.spec_wasted += 1  # won a VC without a credit
                continue
            self._grant_switch(grant.group, grant.member, cycle)
        self.spec_grant_mask = spec_mask
