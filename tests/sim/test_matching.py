"""Tests for the maximum-matching allocator (the efficiency upper bound)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.allocators import Grant, Request, SeparableAllocator
from repro.sim.matching import MaximumMatchingAllocator, make_allocator

request_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=20,
)

#: Wider request sets (10 groups x 4 members x 10 resources), so the
#: augmenting paths get long enough to displace several holders.
wide_request_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=40,
)


class RecursiveMatcher(MaximumMatchingAllocator):
    """The augmenting-path search written recursively: the reference
    the allocator's loop over an explicit stack must reproduce grant
    for grant, rotation step for rotation step."""

    def _match(self, adjacency, chooser):
        rotation = self._rotation
        self._rotation = rotation + 1
        if not adjacency:
            return []
        groups = sorted(adjacency)
        offset = rotation % len(groups)
        groups = groups[offset:] + groups[:offset]
        match_group = {}
        visited = 0

        def augment(group):
            nonlocal visited
            mask = adjacency[group]
            while mask:
                low = mask & -mask
                mask -= low
                if visited & low:
                    continue
                visited |= low
                holder = match_group.get(low)
                if holder is None or augment(holder):
                    match_group[low] = group
                    return True
            return False

        for group in groups:
            visited = 0
            augment(group)
        nr = self.num_resources
        return [
            Grant(group, chooser[group * nr + bit.bit_length() - 1],
                  bit.bit_length() - 1)
            for bit, group in sorted(match_group.items())
        ]


class TestMaximumMatchingAllocator:
    def test_single_request(self):
        allocator = MaximumMatchingAllocator(2, 2, 3)
        grants = allocator.allocate([Request(0, 1, 2)])
        assert len(grants) == 1
        assert grants[0].resource == 2

    def test_finds_perfect_matching_where_separable_fails(self):
        """The defining case: group 0 can use resources {0, 1}, group 1
        only {0}.  A maximum matching serves both; a separable allocator
        can give resource 0 to group 0 and strand group 1."""
        requests = [
            Request(0, 0, 0), Request(0, 1, 1),   # group 0 -> {0, 1}
            Request(1, 0, 0),                     # group 1 -> {0}
        ]
        maximum = MaximumMatchingAllocator(2, 2, 2)
        assert len(maximum.allocate(requests)) == 2

    def test_busy_resources_masked(self):
        allocator = MaximumMatchingAllocator(2, 1, 2)
        grants = allocator.allocate(
            [Request(0, 0, 0), Request(1, 0, 1)], busy_resources=[1]
        )
        assert [g.resource for g in grants] == [0]

    def test_rotating_fairness_under_contention(self):
        allocator = MaximumMatchingAllocator(2, 1, 1)
        requests = [Request(0, 0, 0), Request(1, 0, 0)]
        winners = [allocator.allocate(requests)[0].group for _ in range(10)]
        assert set(winners) == {0, 1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MaximumMatchingAllocator(2, 2, 2).allocate([Request(3, 0, 0)])

    @given(request_lists)
    def test_matching_constraints(self, triples):
        allocator = MaximumMatchingAllocator(5, 2, 5)
        requests = [Request(*t) for t in triples]
        grants = allocator.allocate(requests)
        groups = [g.group for g in grants]
        resources = [g.resource for g in grants]
        assert len(set(groups)) == len(groups)
        assert len(set(resources)) == len(resources)
        request_set = {(r.group, r.member, r.resource) for r in requests}
        assert all((g.group, g.member, g.resource) in request_set for g in grants)

    @given(request_lists)
    def test_never_fewer_grants_than_separable(self, triples):
        """Maximum matching dominates the separable allocator -- the
        'allocation efficiency' the paper says separable designs give up."""
        requests = [Request(*t) for t in triples]
        separable = SeparableAllocator(5, 2, 5)
        maximum = MaximumMatchingAllocator(5, 2, 5)
        assert len(maximum.allocate(requests)) >= len(separable.allocate(requests))

    @given(st.lists(wide_request_lists, min_size=1, max_size=4))
    def test_same_grants_as_the_recursive_search(self, batches):
        iterative = MaximumMatchingAllocator(10, 4, 10)
        recursive = RecursiveMatcher(10, 4, 10)
        for triples in batches:
            requests = [Request(*t) for t in triples]
            assert iterative.allocate(requests) == recursive.allocate(requests)

    @given(request_lists)
    @settings(deadline=None)
    def test_maximum_cardinality(self, triples):
        """Cross-check the matching size with networkx's matcher."""
        requests = [Request(*t) for t in triples]
        grants = MaximumMatchingAllocator(5, 2, 5).allocate(requests)

        graph = nx.Graph()
        for r in requests:
            graph.add_edge(("g", r.group), ("r", r.resource))
        if graph.number_of_edges():
            expected = len(nx.algorithms.matching.max_weight_matching(
                graph, maxcardinality=True
            ))
        else:
            expected = 0
        assert len(grants) == expected


class TestFactory:
    def test_kinds(self):
        assert isinstance(
            make_allocator("separable", 2, 2, 2), SeparableAllocator
        )
        assert isinstance(
            make_allocator("maximum", 2, 2, 2), MaximumMatchingAllocator
        )

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_allocator("magic", 2, 2, 2)
