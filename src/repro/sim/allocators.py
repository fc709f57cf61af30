"""Separable two-stage allocators (Section 3.2, Figures 7 and 8).

An allocator matches *requestors* (input VCs) to *resources* (output
ports for switch allocation; output VCs for VC allocation) such that
each requestor wins at most one resource and each resource is granted to
at most one requestor.  A *separable* allocator does this in two arbiter
stages:

1. per requestor *group* (an input port's VCs), a ``v:1`` arbiter picks
   one candidate request;
2. per resource, an arbiter picks among the surviving candidates.

Separability trades a little matching efficiency for a fast, simple
circuit -- we reproduce that behaviour exactly (including the lost
matches), since it affects saturation throughput.

``allocate`` (``Request`` tuples plus an optional ``busy_resources``
mask) is the executable spec every generic router phase calls.  The
compiled steps run the same two stages as one closure per allocator
over flat request arrays (``_make_separable_switch`` in
``sim/routers/specialized.py``), which evolves this allocator's arbiter
state exactly as ``allocate`` does.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .arbiters import Arbiter, make_arbiter


class Request(NamedTuple):
    """One allocation request.

    ``group``/``member`` identify the requestor (e.g. input port /
    input VC); ``resource`` is the requested resource index.

    A named tuple rather than a frozen dataclass: routers build
    thousands of these per simulated cycle, and tuple construction is
    several times cheaper than ``object.__setattr__``-based init.
    """

    group: int
    member: int
    resource: int


class Grant(NamedTuple):
    """A granted request."""

    group: int
    member: int
    resource: int


def grant_conflicts(*grant_sets: Sequence[Grant]) -> List[str]:
    """Structural conflicts across one or more grant sets, as messages.

    A legal allocation (even combined across a speculative router's two
    parallel allocators) grants each input group at most once and each
    resource at most once.  Returns one message per conflict; an empty
    list means the combined grants form a valid matching.  Used by the
    allocator property tests and the speculation-legality probe.
    """
    conflicts: List[str] = []
    seen_groups: Dict[int, Grant] = {}
    seen_resources: Dict[int, Grant] = {}
    for grants in grant_sets:
        for grant in grants:
            if grant.group in seen_groups:
                conflicts.append(
                    f"input group {grant.group} granted twice: "
                    f"{seen_groups[grant.group]} and {grant}"
                )
            else:
                seen_groups[grant.group] = grant
            if grant.resource in seen_resources:
                conflicts.append(
                    f"resource {grant.resource} granted twice: "
                    f"{seen_resources[grant.resource]} and {grant}"
                )
            else:
                seen_resources[grant.resource] = grant
    return conflicts


class SeparableAllocator:
    """Input-first separable allocator with persistent arbiter state.

    Parameters
    ----------
    num_groups:
        Number of requestor groups (input ports).
    members_per_group:
        Requestors per group (VCs per input port).
    num_resources:
        Number of resources (output ports, or output VCs).
    arbiter_kind:
        ``"matrix"`` (paper default) or ``"round_robin"``.
    """

    def __init__(
        self,
        num_groups: int,
        members_per_group: int,
        num_resources: int,
        arbiter_kind: str = "matrix",
    ) -> None:
        if num_groups < 1 or members_per_group < 1 or num_resources < 1:
            raise ValueError(
                "allocator dimensions must be positive: "
                f"{num_groups} groups x {members_per_group} members, "
                f"{num_resources} resources"
            )
        self.num_groups = num_groups
        self.members_per_group = members_per_group
        self.num_resources = num_resources
        self._stage1: List[Arbiter] = [
            make_arbiter(arbiter_kind, members_per_group) for _ in range(num_groups)
        ]
        self._stage2: List[Arbiter] = [
            make_arbiter(arbiter_kind, num_groups) for _ in range(num_resources)
        ]
        # Matrix arbiters expose their flat-int priority state, letting
        # the compiled switch closure inline the single-candidate
        # rotation (the dominant case under load) instead of paying an
        # arbitrate call.
        self._matrix = arbiter_kind == "matrix"

    def allocate(
        self, requests: Sequence[Request], busy_resources: Sequence[int] = ()
    ) -> List[Grant]:
        """Run one allocation cycle.

        ``busy_resources`` are masked out entirely (e.g. output ports
        already consumed by higher-priority non-speculative grants, or
        ports held by a wormhole packet).
        """
        self._validate(requests)
        if len(requests) == 1:
            # Fast path for the common light-load case.  The general
            # path would run exactly these two arbitrations (each a
            # single-candidate call that still rotates priority state),
            # so the state updates are identical.
            request = requests[0]
            if request.resource in busy_resources:
                return []
            self._stage1[request.group].arbitrate((request.member,))
            self._stage2[request.resource].arbitrate((request.group,))
            return [Grant(request.group, request.member, request.resource)]
        busy = set(busy_resources)

        # Stage 1: per group, pick one surviving request.
        survivors: Dict[int, Request] = {}
        by_group: Dict[int, List[Request]] = {}
        for request in requests:
            if request.resource in busy:
                continue
            # repro: hot-ok[per-cycle request grouping in the reference allocator; bounded by requests]
            by_group.setdefault(request.group, []).append(request)
        for group, group_requests in by_group.items():
            # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
            members = [r.member for r in group_requests]
            winner_member = self._stage1[group].arbitrate(members)
            # A member may post several requests (general routing
            # functions); the member's own choice among its resources is
            # resolved by the first matching request (callers submit one
            # resource per member for the flows modelled here).
            for request in group_requests:
                if request.member == winner_member:
                    survivors[group] = request
                    break

        # Stage 2: per resource, pick one group among the survivors.
        by_resource: Dict[int, List[Request]] = {}
        for request in survivors.values():
            # repro: hot-ok[per-cycle request grouping in the reference allocator; bounded by requests]
            by_resource.setdefault(request.resource, []).append(request)
        grants: List[Grant] = []
        for resource, resource_requests in by_resource.items():
            # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
            groups = [r.group for r in resource_requests]
            winner_group = self._stage2[resource].arbitrate(groups)
            for request in resource_requests:
                if request.group == winner_group:
                    grants.append(Grant(request.group, request.member, request.resource))
                    break
        return grants

    def _validate(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if not 0 <= r.group < self.num_groups:
                raise ValueError(f"group {r.group} out of range")
            if not 0 <= r.member < self.members_per_group:
                raise ValueError(f"member {r.member} out of range")
            if not 0 <= r.resource < self.num_resources:
                raise ValueError(f"resource {r.resource} out of range")


class SpeculativeSwitchAllocator:
    """Two separable switch allocators in parallel (Figure 7c).

    Non-speculative requests go to the primary allocator; speculative
    requests to the secondary.  The combiner gives non-speculative
    grants absolute priority: a speculative grant is discarded if its
    output port *or* its input port was claimed non-speculatively, so
    speculation never costs certain traffic anything ("conservative
    speculation", Section 3.1).

    ``priority="equal"`` removes that protection for the ablation the
    paper argues away: speculative and non-speculative requests compete
    in one allocator, so a failed speculation can have displaced a
    certain flit, costing throughput.
    """

    def __init__(
        self,
        num_ports: int,
        vcs_per_port: int,
        arbiter_kind: str = "matrix",
        allocator_kind: str = "separable",
        priority: str = "conservative",
    ) -> None:
        from .matching import make_allocator

        if priority not in ("conservative", "equal"):
            raise ValueError(f"unknown speculation priority {priority!r}")
        self.num_ports = num_ports
        self.vcs_per_port = vcs_per_port
        self.priority = priority
        self._nonspec = make_allocator(
            allocator_kind, num_ports, vcs_per_port, num_ports, arbiter_kind
        )
        self._spec = make_allocator(
            allocator_kind, num_ports, vcs_per_port, num_ports, arbiter_kind
        )

    def allocate(
        self,
        nonspec_requests: Sequence[Request],
        spec_requests: Sequence[Request],
    ) -> Tuple[List[Grant], List[Grant]]:
        """Returns ``(nonspec_grants, surviving_spec_grants)``."""
        if self.priority == "equal":
            return self._allocate_equal(nonspec_requests, spec_requests)
        # Both sub-allocator kinds are pure on an empty request set
        # (the maximum matcher's rotation only advances on nonempty
        # input), so an empty side skips its allocate call outright.
        if nonspec_requests:
            nonspec_grants = self._nonspec.allocate(nonspec_requests)
        else:
            nonspec_grants = []
        if not spec_requests:
            return nonspec_grants, []
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        taken_outputs = {g.resource for g in nonspec_grants}
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        taken_inputs = {g.group for g in nonspec_grants}
        spec_grants = self._spec.allocate(
            spec_requests, busy_resources=sorted(taken_outputs)
        )
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        surviving = [g for g in spec_grants if g.group not in taken_inputs]
        return nonspec_grants, surviving

    def _allocate_equal(
        self,
        nonspec_requests: Sequence[Request],
        spec_requests: Sequence[Request],
    ) -> Tuple[List[Grant], List[Grant]]:
        """One allocator, no priority: speculation can displace certainty."""
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        spec_keys = {(r.group, r.member, r.resource) for r in spec_requests}
        grants = self._nonspec.allocate(
            list(nonspec_requests) + list(spec_requests)
        )
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        nonspec_grants = [
            g for g in grants
            if (g.group, g.member, g.resource) not in spec_keys
        ]
        # repro: hot-ok[bounded same-cycle scratch in the reference allocator]
        spec_grants = [
            g for g in grants
            if (g.group, g.member, g.resource) in spec_keys
        ]
        return nonspec_grants, spec_grants
