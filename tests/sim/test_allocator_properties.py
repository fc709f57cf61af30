"""Property tests: arbiters and allocators over random inputs.

Grant legality (a valid matching, every grant answering a real request)
must hold for *every* request pattern, not just the structured ones the
routers produce -- so these tests drive the allocators with seeded
random request sets.  The arbiter tests pin the matrix arbiter's
least-recently-served discipline: exact fairness under full contention
and a hard starvation bound under arbitrary contention.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.allocators import (
    Grant,
    Request,
    SeparableAllocator,
    SpeculativeSwitchAllocator,
    grant_conflicts,
)
from repro.sim.arbiters import MatrixArbiter, RoundRobinArbiter
from repro.sim.matching import make_allocator
from repro.sim.routers.specialized import _make_switch

GROUPS, MEMBERS, RESOURCES = 5, 4, 5
ROUNDS = 200


def random_requests(rng, *, density=0.4):
    """One request per (group, member) with probability ``density``."""
    return [
        Request(group, member, rng.randrange(RESOURCES))
        for group in range(GROUPS)
        for member in range(MEMBERS)
        if rng.random() < density
    ]


def assert_legal(requests, grants):
    request_keys = {(r.group, r.member, r.resource) for r in requests}
    for grant in grants:
        assert (grant.group, grant.member, grant.resource) in request_keys
    assert grant_conflicts(grants) == []


class TestSeparableAllocatorProperties:
    @pytest.mark.parametrize("arbiter_kind", ["matrix", "round_robin"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grants_always_legal(self, seed, arbiter_kind):
        rng = random.Random(seed)
        allocator = SeparableAllocator(
            GROUPS, MEMBERS, RESOURCES, arbiter_kind
        )
        for _ in range(ROUNDS):
            requests = random_requests(rng)
            assert_legal(requests, allocator.allocate(requests))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_busy_resources_never_granted(self, seed):
        rng = random.Random(seed)
        allocator = SeparableAllocator(GROUPS, MEMBERS, RESOURCES)
        for _ in range(ROUNDS):
            requests = random_requests(rng)
            busy = [
                r for r in range(RESOURCES) if rng.random() < 0.3
            ]
            grants = allocator.allocate(requests, busy_resources=busy)
            assert_legal(requests, grants)
            assert not {g.resource for g in grants} & set(busy)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_maximum_matching_allocator_legal_and_no_smaller(self, seed):
        """The exact-matching ablation obeys the same legality rules and
        never finds a smaller matching than the separable allocator."""
        rng = random.Random(seed)
        separable = SeparableAllocator(GROUPS, MEMBERS, RESOURCES)
        maximum = make_allocator(
            "maximum", GROUPS, MEMBERS, RESOURCES, "matrix"
        )
        for _ in range(ROUNDS // 2):
            requests = random_requests(rng)
            separable_grants = separable.allocate(requests)
            maximum_grants = maximum.allocate(requests)
            assert_legal(requests, maximum_grants)
            assert len(maximum_grants) >= len(separable_grants)


def allocator_state(allocator):
    """Everything the next cycle's arbitration depends on."""
    if hasattr(allocator, "_rotation"):
        return allocator._rotation
    return [
        arbiter._state if isinstance(arbiter, MatrixArbiter) else arbiter._next
        for arbiter in allocator._stage1 + allocator._stage2
    ]


@st.composite
def request_cycles(draw):
    """One cycle's requests and busy-resource mask, in the shape every
    compiled scan submits: each (group, member) at most once, each
    group's requests contiguous; groups and members in any order (the
    ``equal`` kernel's merged set is in first-appearance order)."""
    requests = []
    groups = draw(st.permutations(range(GROUPS)))
    for group in groups[:draw(st.integers(0, GROUPS))]:
        members = draw(st.permutations(range(MEMBERS)))
        for member in members[:draw(st.integers(0, MEMBERS))]:
            resource = draw(st.integers(0, RESOURCES - 1))
            requests.append(Request(group, member, resource))
    busy = draw(st.integers(0, (1 << RESOURCES) - 1))
    return requests, busy


SWITCH_KINDS = pytest.mark.parametrize("kind,arbiter_kind", [
    ("separable", "matrix"),
    ("separable", "round_robin"),
    ("maximum", "matrix"),
])


class TestSwitchClosuresMatchRequestPath:
    """The compiled steps' switch closures (``_make_separable_switch``,
    ``_make_matching_switch``) against ``allocate(requests, busy)``, the
    executable spec, on a twin allocator: same grants, same grant
    order, and every stage arbiter's state or the matcher's rotation
    the same afterwards."""

    @staticmethod
    def _twins(kind, arbiter_kind):
        spec, compiled = (
            make_allocator(kind, GROUPS, MEMBERS, RESOURCES, arbiter_kind)
            for _ in range(2)
        )
        return spec, compiled, _make_switch(compiled)

    @staticmethod
    def _step(spec, switch, requests, busy):
        expected = spec.allocate(
            requests, [r for r in range(RESOURCES) if busy >> r & 1]
        )
        granted = switch(
            [r.group for r in requests], [r.member for r in requests],
            [r.resource for r in requests], busy,
        )
        assert [tuple(g) for g in granted] == [tuple(g) for g in expected]
        return granted

    @SWITCH_KINDS
    @settings(max_examples=60, deadline=None)
    @given(cycles=st.lists(request_cycles(), min_size=1, max_size=6))
    def test_same_grants_same_order_same_state(
        self, kind, arbiter_kind, cycles
    ):
        spec, compiled, switch = self._twins(kind, arbiter_kind)
        for requests, busy in cycles:
            self._step(spec, switch, requests, busy)
            assert allocator_state(compiled) == allocator_state(spec)

    @SWITCH_KINDS
    def test_all_requests_busy_grants_nothing(self, kind, arbiter_kind):
        """A non-empty request set whose every resource is busy grants
        nothing; the matcher's rotation still advances once, as
        ``allocate`` advances it, and no arbiter moves."""
        spec, compiled, switch = self._twins(kind, arbiter_kind)
        before = allocator_state(compiled)
        requests = [Request(0, 1, 2), Request(3, 0, 2), Request(3, 2, 4)]
        assert not self._step(spec, switch, requests, 1 << 2 | 1 << 4)
        assert allocator_state(compiled) == allocator_state(spec)
        if kind == "maximum":
            assert compiled._rotation == before + 1
        else:
            assert allocator_state(compiled) == before

    @SWITCH_KINDS
    def test_no_requests_advance_nothing(self, kind, arbiter_kind):
        spec, compiled, switch = self._twins(kind, arbiter_kind)
        before = allocator_state(compiled)
        assert not self._step(spec, switch, [], 0)
        assert allocator_state(compiled) == allocator_state(spec) == before


class TestSpeculativeAllocatorProperties:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_combined_grants_legal_and_priority_respected(self, seed):
        rng = random.Random(seed)
        allocator = SpeculativeSwitchAllocator(GROUPS, MEMBERS)
        for _ in range(ROUNDS):
            nonspec = random_requests(rng, density=0.3)
            spec = random_requests(rng, density=0.3)
            nonspec_grants, spec_grants = allocator.allocate(nonspec, spec)
            assert_legal(nonspec, nonspec_grants)
            # Combined: still one grant per input and per output.
            assert grant_conflicts(nonspec_grants, spec_grants) == []
            # Conservative priority: speculation never touches an input
            # or output a non-speculative grant claimed.
            taken_inputs = {g.group for g in nonspec_grants}
            taken_outputs = {g.resource for g in nonspec_grants}
            for grant in spec_grants:
                assert grant.group not in taken_inputs
                assert grant.resource not in taken_outputs

    @pytest.mark.parametrize("seed", [4, 5])
    def test_equal_priority_still_forms_valid_matching(self, seed):
        rng = random.Random(seed)
        allocator = SpeculativeSwitchAllocator(
            GROUPS, MEMBERS, priority="equal"
        )
        for _ in range(ROUNDS):
            nonspec = random_requests(rng, density=0.3)
            spec = random_requests(rng, density=0.3)
            nonspec_grants, spec_grants = allocator.allocate(nonspec, spec)
            assert grant_conflicts(nonspec_grants, spec_grants) == []


class TestGrantConflictsHelper:
    def test_clean_sets_report_nothing(self):
        assert grant_conflicts([Grant(0, 0, 1), Grant(1, 0, 2)]) == []

    def test_duplicate_group_and_resource_reported(self):
        conflicts = grant_conflicts(
            [Grant(0, 0, 1)], [Grant(0, 1, 2), Grant(2, 0, 1)]
        )
        assert len(conflicts) == 2
        assert any("input group 0" in c for c in conflicts)
        assert any("resource 1" in c for c in conflicts)


class TestMatrixArbiterProperties:
    def test_full_contention_is_exactly_fair(self):
        """Least-recently-served under full contention degenerates to a
        strict rotation: counts over any multiple-of-n window are equal."""
        n = 6
        arbiter = MatrixArbiter(n)
        wins = [0] * n
        everyone = list(range(n))
        for _ in range(50 * n):
            wins[arbiter.arbitrate(everyone)] += 1
        assert max(wins) - min(wins) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_starvation_bound_under_random_contention(self, seed):
        """A requestor that keeps requesting loses at most n-1 rounds in
        a row: each loss strictly raises its priority rank."""
        n = 5
        rng = random.Random(seed)
        arbiter = MatrixArbiter(n)
        streak = 0
        for _ in range(400):
            requests = {0} | {
                i for i in range(1, n) if rng.random() < 0.7
            }
            winner = arbiter.arbitrate(sorted(requests))
            streak = 0 if winner == 0 else streak + 1
            assert streak <= n - 1
            assert arbiter.check_invariant()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_winner_always_among_requests(self, seed):
        n = 7
        rng = random.Random(seed)
        arbiter = MatrixArbiter(n)
        for _ in range(300):
            requests = [i for i in range(n) if rng.random() < 0.5]
            winner = arbiter.arbitrate(requests)
            if requests:
                assert winner in requests
            else:
                assert winner is None

    def test_round_robin_starvation_bound(self):
        n = 5
        rng = random.Random(9)
        arbiter = RoundRobinArbiter(n)
        streak = 0
        for _ in range(400):
            requests = sorted(
                {0} | {i for i in range(1, n) if rng.random() < 0.7}
            )
            streak = 0 if arbiter.arbitrate(requests) == 0 else streak + 1
            assert streak <= n - 1
