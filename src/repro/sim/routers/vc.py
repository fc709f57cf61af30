"""The canonical 4-stage virtual-channel router (Figure 3).

Pipeline: route+decode | VC allocation | switch allocation | crossbar.

Each input port has ``v`` virtual channels, each with its own flit queue
and state.  Crossbar ports are shared across the VCs of a physical
channel and allocated *per flit*, cycle by cycle -- the architectural
point that distinguishes this canonical router from Chien's (Section 2).
The VC allocator and switch allocator are both separable two-stage
designs (Figures 7b and 8b); routing is ``R -> p`` (dimension-ordered),
so a head's candidate output VCs are all VCs of its routed port.
"""

from __future__ import annotations

from typing import List, Tuple

from ..allocators import Request
from ..config import SimConfig
from ..topology import Mesh, NUM_PORTS
from ..trace import EventKind
from .base import _ACTIVE, _ROUTING, _VC_ALLOC, BaseRouter, InputVC


class VirtualChannelRouter(BaseRouter):
    """4-stage non-speculative virtual-channel router."""

    def __init__(self, node: int, mesh: Mesh, config: SimConfig) -> None:
        super().__init__(node, mesh, config)
        v = self.num_vcs
        from ..dateline import make_vc_policy
        from ..matching import make_allocator

        #: Candidate-VC policy: unrestricted on a mesh, dateline classes
        #: on a torus, O1TURN classes under o1turn routing.
        self._vc_policy = make_vc_policy(config.routing_function, mesh, v)
        #: Precomputed candidate-VC table for flit-independent policies
        #: (AllVCs, DatelineVCs -- their ``allowed_vcs`` ignores the
        #: head flit): ``_candidate_table[flat_ivc][route_port]`` is the
        #: permitted output-VC tuple.  None for O1TURN / adaptive-escape
        #: policies, which key off the packet.  Shared by the generic
        #: and specialized paths.
        from ..dateline import AllVCs, DatelineVCs

        self._candidate_table = None
        if type(self._vc_policy) in (AllVCs, DatelineVCs):
            policy = self._vc_policy
            self._candidate_table = [
                tuple(
                    tuple(policy.allowed_vcs(
                        mesh, node, port, vc, route_port, None
                    ))
                    for route_port in range(NUM_PORTS)
                )
                for port in range(NUM_PORTS)
                for vc in range(v)
            ]

        # VC allocator (Figure 8b): first stage is a v:1 arbiter per
        # input VC choosing among its candidate output VCs; second stage
        # is a (p*v):1 arbiter per output VC.
        self._vc_allocator = make_allocator(
            config.allocator_kind,
            num_groups=NUM_PORTS * v,
            members_per_group=v,
            num_resources=NUM_PORTS * v,
            arbiter_kind=config.arbiter_kind,
        )
        self._build_switch_allocator(config)

    def _build_switch_allocator(self, config: SimConfig) -> None:
        """Switch allocator (Figure 7b): v:1 per input port, then p:1
        per output port."""
        from ..matching import make_allocator

        self._switch_allocator = make_allocator(
            config.allocator_kind,
            num_groups=NUM_PORTS,
            members_per_group=self.num_vcs,
            num_resources=NUM_PORTS,
            arbiter_kind=config.arbiter_kind,
        )

    # ------------------------------------------------------------------

    def _after_routing(self, ivc: InputVC, cycle: int) -> None:
        ivc.state = _VC_ALLOC
        # +1: allocation naturally happens the cycle after routing; the
        # extra cycles model a VC allocator straddling stage boundaries.
        ivc.va_ready = cycle + 1 + self.config.va_extra_cycles

    #: Adaptive reroutes before a head falls back to the DOR port, where
    #: the escape VC guarantees progress.
    ADAPTIVE_REROUTE_FALLBACK = 4

    def _route_vc(self, ivc: InputVC, flit) -> int:
        if self._routing_name != "adaptive":
            return self._route(flit)
        ports, dor_port = self._route_table[flit.destination]
        if len(ports) == 1 or ivc.reroute_count >= self.ADAPTIVE_REROUTE_FALLBACK:
            return dor_port

        def freedom(port: int) -> int:
            allowed = self._vc_policy.allowed_vcs(
                self.mesh, self.node, ivc.port, ivc.vc, port, flit
            )
            # repro: hot-ok[route-freedom scoring on the adaptive-candidate branch; bounded by num_vcs]
            return sum(
                1
                for c in allowed
                if self.output_vcs[port][c].is_free
                and self.output_vcs[port][c].credits
            )

        # Most free (and credited) permitted output VCs wins; ties go to
        # the dimension-order port, which also offers the escape VC.
        return max(ports, key=lambda p: (freedom(p), p == dor_port))

    def _allocation_phase(self, cycle: int) -> None:
        # Switch allocation runs on the state at the start of the cycle;
        # VCs winning VC allocation this cycle bid for the switch from
        # the next cycle (the VA -> SA pipeline dependency, Figure 4b).
        self._switch_allocation(cycle)
        self._vc_allocation(cycle)
        if self._routing_name == "adaptive":
            self._reiterate_blocked_heads(cycle)

    def _reiterate_blocked_heads(self, cycle: int) -> None:
        """Footnote 5 (option b): a head whose routed port has no free
        permitted output VC goes back through the routing stage, where it
        may pick the other productive port (or the DOR fallback)."""
        for ivc in self._ivcs_in(self._va_mask):
            if ivc.route is None:
                continue
            candidates = self._candidate_vcs(ivc)
            if any(
                self.output_vcs[ivc.route][c].is_free for c in candidates
            ):
                continue
            ivc.state = _ROUTING
            ivc.routing_ready = cycle + 1
            ivc.route = None
            ivc.reroute_count += 1
            self.stats.reroutes += 1

    # ------------------------------------------------------------------

    def _vc_allocation(self, cycle: int) -> None:
        requests = self._collect_va_requests(cycle)
        if not requests:
            return  # every allocator kind is pure on empty inputs
        tracer = self.tracer
        for grant in self._vc_allocator.allocate(requests):
            in_port, in_vc = divmod(grant.group, self.num_vcs)
            out_port, out_vc = divmod(grant.resource, self.num_vcs)
            ivc = self.input_vcs[in_port][in_vc]
            ovc = self.output_vcs[out_port][out_vc]
            if not ovc.is_free:
                raise AssertionError("VC allocator granted a held output VC")
            ovc.held_by = (in_port, in_vc)
            ivc.out_vc = out_vc
            ivc.state = _ACTIVE
            if tracer is not None:
                head = ivc.buffer.front()
                if head is not None:
                    tracer.record(
                        cycle, EventKind.VC_GRANT, self.node, in_port,
                        in_vc, head.packet.packet_id, head.index,
                    )

    def _candidate_vcs(self, ivc: InputVC) -> Tuple[int, ...]:
        """Output-VC candidates the routing function's range (and the
        VC-class policy) permits for a routed head."""
        head = ivc.buffer.front()
        if head is None:
            raise AssertionError("candidate query on an empty VC")
        table = self._candidate_table
        if table is not None:
            return table[ivc.flat][ivc.route]
        return tuple(
            self._vc_policy.allowed_vcs(
                self.mesh, self.node, ivc.port, ivc.vc, ivc.route, head
            )
        )

    def _collect_va_requests(self, cycle: int) -> List[Request]:
        """One request per (input VC, candidate output VC) pair."""
        requests: List[Request] = []
        v = self.num_vcs
        for ivc in self._ivcs_in(self._va_mask):
            if ivc.route is None or ivc.va_ready > cycle:
                continue
            group = ivc.port * v + ivc.vc
            for candidate in self._candidate_vcs(ivc):
                ovc = self.output_vcs[ivc.route][candidate]
                if ovc.is_free:
                    requests.append(
                        Request(
                            group=group,
                            member=candidate,
                            resource=ivc.route * v + candidate,
                        )
                    )
        return requests

    # ------------------------------------------------------------------

    def _switch_allocation(self, cycle: int) -> None:
        requests = []
        for ivc in self._ivcs_in(self._active_mask):
            if self._sa_eligible(ivc):
                requests.append(
                    Request(group=ivc.port, member=ivc.vc, resource=ivc.route)
                )
        if not requests:
            return
        for grant in self._switch_allocator.allocate(requests):
            self._grant_switch(grant.group, grant.member, cycle)

    def _sa_eligible(self, ivc: InputVC) -> bool:
        """An ACTIVE VC bids with an output VC, a buffered flit at the
        front, and a credit downstream."""
        if ivc.out_vc is None or not ivc.buffer:
            return False
        if not self.output_vcs[ivc.route][ivc.out_vc].credits:
            self.stats.credits_stalled += 1
            return False
        return True
