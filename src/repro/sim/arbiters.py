"""Functional arbiters used by the allocators.

The paper's routers use *matrix arbiters*: an upper-triangular matrix of
priority bits records, for every pair of requestors, which currently has
priority.  The winner is the requestor with priority over every other
active requestor; after winning, its priority is set lowest, giving a
least-recently-served discipline.  A round-robin arbiter is provided as
an alternative policy for ablation studies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple


class Arbiter:
    """Interface: pick one winner among requesting indices."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"arbiter size must be >= 1, got {n}")
        self.n = n

    def arbitrate(self, requests: Sequence[int]) -> Optional[int]:
        """Return the winning index among ``requests`` (None if empty).

        Winning updates the arbiter's internal priority state.
        """
        raise NotImplementedError

    def _check(self, requests: Sequence[int]) -> None:
        for r in requests:
            if not 0 <= r < self.n:
                raise ValueError(f"request index {r} out of range 0..{self.n - 1}")


@lru_cache(maxsize=None)
def _matrix_tables(
    n: int,
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """A size-``n`` matrix arbiter's initial state and rotation masks.

    Initially lower indices have priority (all bits above the diagonal
    set in each row).  ``shift[i]`` is row ``i``'s bit offset; OR-ing
    ``col[w]`` sets bit ``w`` in every row, and AND-ing ``row_keep[w]``
    then clears row ``w`` (including the diagonal bit the column OR just
    set).
    """
    full = (1 << n) - 1
    state = 0
    for i in range(n):
        state |= (full & ~((1 << (i + 1)) - 1)) << (i * n)
    shift = tuple(i * n for i in range(n))
    col = tuple(
        sum(1 << (j * n + w) for j in range(n)) for w in range(n)
    )
    row_keep = tuple(~(full << (w * n)) for w in range(n))
    return state, shift, col, row_keep


class MatrixArbiter(Arbiter):
    """Least-recently-served matrix arbiter (Figure 10).

    The whole priority matrix is one flat int ``self._state``: bit
    ``i * n + j`` set means ``i`` has priority over ``j`` (the diagonal
    is unused and kept clear).  Row ``i`` is the bitfield at shift
    ``i * n``, so the winner test is a shift-and-mask pair, and the
    after-win rotation -- set the winner's column everywhere, clear its
    row -- is two integer operations against precomputed masks instead
    of a per-row Python loop.  This arbiter runs on every switch and VC
    allocation of every simulated cycle; the flat-int layout is what
    keeps it off the saturation-load profile.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        # The masks are pure functions of ``n``, shared read-only by
        # every arbiter of that size; only the int state is per arbiter.
        state, shift, col, row_keep = _matrix_tables(n)
        self._state = state
        self._shift = shift
        self._col = col
        self._row_keep = row_keep

    def has_priority(self, i: int, j: int) -> bool:
        """True if requestor ``i`` currently beats requestor ``j``."""
        return bool(self._state >> (i * self.n + j) & 1)

    def arbitrate(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        if not requests:
            return None
        if len(requests) == 1:
            # Sole requestor wins unconditionally; priority still
            # rotates exactly as the general path would rotate it.
            winner = requests[0]
        else:
            # Iterate the request sequence directly: duplicates are
            # harmless to both loops (OR is idempotent; the matrix
            # invariant makes the winner unique), and sequence order --
            # unlike set order -- is part of the deterministic contract.
            active_mask = 0
            for i in requests:
                active_mask |= 1 << i
            state = self._state
            shift = self._shift
            winner = None
            for i in requests:
                others = active_mask & ~(1 << i)
                if (state >> shift[i]) & others == others:
                    winner = i
                    break
            if winner is None:
                # The matrix invariant (antisymmetry) guarantees a
                # unique winner exists among any non-empty subset;
                # reaching here means state corruption.
                raise AssertionError("matrix arbiter found no winner")
        self._state = (self._state | self._col[winner]) & self._row_keep[winner]
        return winner

    def check_invariant(self) -> bool:
        """Antisymmetry: exactly one of (i beats j), (j beats i) holds."""
        return all(
            self.has_priority(i, j) != self.has_priority(j, i)
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter: the winner becomes lowest priority."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._next = 0

    def arbitrate(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        if not requests:
            return None
        if len(requests) == 1:
            winner = requests[0]
            self._next = (winner + 1) % self.n
            return winner
        active = set(requests)
        for offset in range(self.n):
            candidate = (self._next + offset) % self.n
            if candidate in active:
                self._next = (candidate + 1) % self.n
                return candidate
        raise AssertionError("round-robin arbiter found no winner")


def make_arbiter(kind: str, n: int) -> Arbiter:
    """Factory: ``kind`` is ``"matrix"`` (the paper's) or ``"round_robin"``."""
    if kind == "matrix":
        return MatrixArbiter(n)
    if kind == "round_robin":
        return RoundRobinArbiter(n)
    raise ValueError(f"unknown arbiter kind {kind!r}")
