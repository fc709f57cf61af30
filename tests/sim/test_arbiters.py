"""Tests for matrix and round-robin arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.arbiters import MatrixArbiter, RoundRobinArbiter, make_arbiter


class TestMatrixArbiter:
    def test_empty_requests(self):
        assert MatrixArbiter(4).arbitrate([]) is None

    def test_single_request_wins(self):
        assert MatrixArbiter(4).arbitrate([2]) == 2

    def test_initial_priority_is_index_order(self):
        assert MatrixArbiter(4).arbitrate([1, 3]) == 1

    def test_winner_drops_to_lowest_priority(self):
        arbiter = MatrixArbiter(3)
        assert arbiter.arbitrate([0, 1, 2]) == 0
        assert arbiter.arbitrate([0, 1, 2]) == 1
        assert arbiter.arbitrate([0, 1, 2]) == 2
        assert arbiter.arbitrate([0, 1, 2]) == 0

    def test_least_recently_served_fairness(self):
        arbiter = MatrixArbiter(4)
        wins = {i: 0 for i in range(4)}
        for _ in range(100):
            wins[arbiter.arbitrate([0, 1, 2, 3])] += 1
        assert all(count == 25 for count in wins.values())

    def test_nonrequesting_inputs_unaffected(self):
        arbiter = MatrixArbiter(3)
        arbiter.arbitrate([1])  # 1 now lowest priority
        assert arbiter.arbitrate([1, 2]) == 2
        assert arbiter.has_priority(0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MatrixArbiter(2).arbitrate([2])

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            MatrixArbiter(0)

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=1, max_size=n, unique=True,
                    ),
                    max_size=30,
                ),
            )
        )
    )
    def test_matrix_invariant_and_winner_membership(self, case):
        n, request_rounds = case
        arbiter = MatrixArbiter(n)
        for requests in request_rounds:
            winner = arbiter.arbitrate(requests)
            assert winner in requests
            assert arbiter.check_invariant()

    @given(st.integers(min_value=2, max_value=6))
    def test_starvation_freedom(self, n):
        """Under continuous full contention, every input wins within n rounds."""
        arbiter = MatrixArbiter(n)
        everyone = list(range(n))
        recent = [arbiter.arbitrate(everyone) for _ in range(n)]
        assert sorted(recent) == everyone


class TestSharedTables:
    """Matrix arbiters of one size share their masks, never their state."""

    def test_same_size_shares_tables_but_not_state(self):
        first, second = MatrixArbiter(5), MatrixArbiter(5)
        assert first._shift is second._shift
        assert first._col is second._col
        assert first._row_keep is second._row_keep
        untouched = second._state
        assert first.arbitrate([0, 1, 2]) == 0
        assert first._state != untouched
        assert second._state == untouched
        assert second.check_invariant()
        assert second.arbitrate([0, 1]) == 0    # still index order
        assert first.arbitrate([0, 1]) == 1     # 0 dropped to lowest

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_are_the_per_size_formulas(self, n):
        full = (1 << n) - 1
        arbiter = MatrixArbiter(n)
        assert arbiter._state == sum(
            (full & ~((1 << (i + 1)) - 1)) << (i * n) for i in range(n)
        )
        assert arbiter._shift == tuple(i * n for i in range(n))
        assert arbiter._col == tuple(
            sum(1 << (j * n + w) for j in range(n)) for w in range(n)
        )
        assert arbiter._row_keep == tuple(
            ~(full << (w * n)) for w in range(n)
        )
        assert arbiter.check_invariant()


class TestRoundRobinArbiter:
    def test_rotation(self):
        arbiter = RoundRobinArbiter(3)
        assert arbiter.arbitrate([0, 1, 2]) == 0
        assert arbiter.arbitrate([0, 1, 2]) == 1
        assert arbiter.arbitrate([0, 1, 2]) == 2
        assert arbiter.arbitrate([0, 1, 2]) == 0

    def test_skips_idle_inputs(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.arbitrate([0])
        assert arbiter.arbitrate([3]) == 3

    def test_empty(self):
        assert RoundRobinArbiter(4).arbitrate([]) is None

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                     max_size=5, unique=True),
            max_size=30,
        )
    )
    def test_winner_always_a_requestor(self, rounds):
        arbiter = RoundRobinArbiter(5)
        for requests in rounds:
            assert arbiter.arbitrate(requests) in requests


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_arbiter("matrix", 3), MatrixArbiter)
        assert isinstance(make_arbiter("round_robin", 3), RoundRobinArbiter)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_arbiter("coin_flip", 3)
