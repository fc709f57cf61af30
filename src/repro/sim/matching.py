"""Maximum-matching allocator: the upper bound separable designs give up.

Section 3.2: "Separable allocators admit a simple implementation while
sacrificing a small amount of allocation efficiency compared to more
complex approaches."  This module supplies the *more complex approach* --
an exact maximum bipartite matching between requestor groups and
resources -- so the ablation benchmarks can quantify that sacrifice.

The matcher is deliberately hardware-naive (it would never fit a clock
cycle; that is the paper's point), but it is fair: requestors are
considered in a rotating order so no group or member is starved.

The augmenting-path search runs over int bitmasks: each group's
adjacency is one int (bit ``r`` set iff the group may use resource
``r``), and the visited set of a search is a single int, so the inner
loop is bit arithmetic instead of set/dict churn.  Three callers --
:meth:`MaximumMatchingAllocator.allocate` (the ``Request``-object
executable spec), the compiled switch closure
(``_make_matching_switch`` in ``sim/routers/specialized.py``, over flat
request arrays and a busy-output mask) and the compiled VA closure that
builds the masks during its state scan -- reduce to the same
``(adjacency, chooser)`` masks and share one matcher
(:meth:`MaximumMatchingAllocator._match`), so their grants and
rotation-state evolution are bit-identical by construction.

An empty request set is a pure no-op (no rotation advance), which is
what lets maximum-matching routers participate in activity-tracked
sleeping: an idle router skips its allocate calls entirely, and the
allocator state a later wake observes is the same as if the empty calls
had been made.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .allocators import Grant, Request


class MaximumMatchingAllocator:
    """Exact maximum matching with rotating tie-break priority.

    Drop-in replacement for
    :class:`repro.sim.allocators.SeparableAllocator` (same ``allocate``
    signature and matching constraints: at most one grant per group and
    per resource).
    """

    def __init__(
        self,
        num_groups: int,
        members_per_group: int,
        num_resources: int,
        arbiter_kind: str = "matrix",  # accepted for interface parity
    ) -> None:
        if num_groups < 1 or members_per_group < 1 or num_resources < 1:
            raise ValueError("allocator dimensions must be positive")
        self.num_groups = num_groups
        self.members_per_group = members_per_group
        self.num_resources = num_resources
        self._rotation = 0

    def allocate(
        self, requests: Sequence[Request], busy_resources: Sequence[int] = ()
    ) -> List[Grant]:
        self._validate(requests)
        if not requests:
            return []
        busy = 0
        for resource in busy_resources:
            busy |= 1 << resource
        pivot = self._rotation % self.members_per_group
        mpg = self.members_per_group
        nr = self.num_resources

        # Adjacency: group -> bitmask of resources it may use (via any
        # member); chooser remembers, per (group, resource) edge, which
        # member claims it -- rotating member preference so none starves.
        adjacency: Dict[int, int] = {}
        chooser: Dict[int, int] = {}
        for request in requests:
            resource = request.resource
            if busy >> resource & 1:
                continue
            group = request.group
            adjacency[group] = adjacency.get(group, 0) | (1 << resource)
            key = group * nr + resource
            member = request.member
            held = chooser.get(key)
            if held is None or (member - pivot) % mpg < (held - pivot) % mpg:
                chooser[key] = member
        return self._match(adjacency, chooser)

    def _match(
        self, adjacency: Dict[int, int], chooser: Dict[int, int]
    ) -> List[Grant]:
        """Augmenting-path maximum matching over adjacency bitmasks.

        Called with the busy-filtered adjacency of a *nonempty* raw
        request set; advances the rotation exactly once per such call
        (even when filtering emptied the adjacency), matching the
        historical per-allocation rotation cadence.
        """
        rotation = self._rotation
        self._rotation = rotation + 1
        if not adjacency:
            return []

        # Hopcroft-Karp would be overkill at p=5; classic augmenting-path
        # matching in rotating group order is exact and fair.
        groups = sorted(adjacency)
        offset = rotation % len(groups)
        groups = groups[offset:] + groups[:offset]

        match_group: Dict[int, int] = {}  # resource *bit* -> group
        # The depth-first search for an augmenting path, as a loop over
        # an explicit stack: each frame is a group being displaced, its
        # still-untried resources and the resource its child holds.
        # Frames try resources lowest bit first, exactly the recursive
        # formulation's order, so the matching is the same.
        path: List[Tuple[int, int, int]] = []
        for root in groups:
            visited = 0
            group = root
            mask = adjacency[root]
            while True:
                if not mask:
                    if not path:
                        break  # no augmenting path from ``root``
                    group, mask, _ = path.pop()
                    continue
                low = mask & -mask
                mask -= low
                if visited & low:
                    continue
                visited |= low
                holder = match_group.get(low)
                if holder is not None:
                    path.append((group, mask, low))
                    group = holder
                    mask = adjacency[holder]
                    continue
                # ``low`` is free: flip the path ending here.
                match_group[low] = group
                for group, _, low in path:
                    match_group[low] = group
                path.clear()
                break

        nr = self.num_resources
        grants = []
        for bit, group in sorted(match_group.items()):
            resource = bit.bit_length() - 1
            grants.append(Grant(group, chooser[group * nr + resource], resource))
        return grants

    def _validate(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if not 0 <= r.group < self.num_groups:
                raise ValueError(f"group {r.group} out of range")
            if not 0 <= r.member < self.members_per_group:
                raise ValueError(f"member {r.member} out of range")
            if not 0 <= r.resource < self.num_resources:
                raise ValueError(f"resource {r.resource} out of range")


def make_allocator(
    kind: str,
    num_groups: int,
    members_per_group: int,
    num_resources: int,
    arbiter_kind: str = "matrix",
):
    """Factory over allocation strategies: ``"separable"`` (the paper's)
    or ``"maximum"`` (exact matching, for the efficiency ablation)."""
    from .allocators import SeparableAllocator

    if kind == "separable":
        return SeparableAllocator(
            num_groups, members_per_group, num_resources, arbiter_kind
        )
    if kind == "maximum":
        return MaximumMatchingAllocator(
            num_groups, members_per_group, num_resources, arbiter_kind
        )
    raise ValueError(f"unknown allocator kind {kind!r}")
