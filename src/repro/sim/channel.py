"""Pipelined inter-router channels for flits and credits.

Timing convention (matching the paper's per-hop accounting, DESIGN.md
section 4): a flit that traverses the crossbar (ST) during cycle ``t``
spends cycle ``t+1`` on the wire and is written into the downstream
input buffer at the end of that cycle, becoming *processable* at cycle
``t + 1 + propagation``.  With the paper's 1-cycle propagation delay a
flit STing at ``t`` is processable downstream at ``t+2``, which makes
per-hop latency = pipeline depth + 1 (e.g. 4 cycles for the 3-stage
wormhole router, so the 29-cycle zero-load latency of Figure 13 falls
out exactly).

Credits use the same structure in the reverse direction with delay =
credit propagation + credit pipeline (processing) cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Shared empty result for idle channels: ``deliver()`` on a channel
#: with nothing in flight is by far the most common call in a polling
#: stepper, and allocating a fresh list for each would dominate the
#: allocation profile.  Callers only iterate (or compare) the result.
_NOTHING: Tuple = ()


class PipelinedChannel(Generic[T]):
    """A delay line delivering items ``delay + 1`` cycles after send.

    The ``+1`` models the receiver-side register write: an item sent
    during cycle ``t`` is available for processing at cycle
    ``t + delay + 1``.

    A channel may additionally be bound to one ring of a :class:`network
    event wheel <repro.sim.network._EventWheel>`: ``send()`` then
    appends the channel's drain entry to the ring's bucket for the
    arrival cycle, so the fast stepper touches only channels with due
    arrivals instead of polling ``deliver()`` on every channel every
    cycle.  The entry names the receiving endpoint by index, never
    holds it, so a channel keeps no reference to a router.
    """

    __slots__ = ("delay", "_in_flight", "_ring", "_ring_mask", "_wheel_entry")

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError(f"channel delay must be >= 0, got {delay}")
        self.delay = delay
        self._in_flight: Deque[Tuple[int, T]] = deque()
        self._ring: Optional[List[list]] = None
        self._ring_mask = 0
        self._wheel_entry: Optional[tuple] = None

    def bind_wheel(self, ring: List[list], endpoint: Tuple[int, ...]) -> None:
        """Register arrivals on ``ring``, a power-of-two list of buckets.

        Each ``send()`` appends ``(in_flight, *endpoint)`` to the bucket
        of its arrival cycle; ``endpoint`` is the receiver's node index
        (and input port) that the wheel resolves when it drains.
        """
        self._ring = ring
        self._ring_mask = len(ring) - 1
        self._wheel_entry = (self._in_flight, *endpoint)

    def send(self, item: T, cycle: int) -> None:
        """Inject an item at cycle ``cycle``; it arrives at ``cycle+delay+1``."""
        arrival = cycle + self.delay + 1
        if self._in_flight and self._in_flight[-1][0] > arrival:
            raise ValueError("channel sends must be in non-decreasing cycle order")
        self._in_flight.append((arrival, item))
        ring = self._ring
        if ring is not None:
            ring[arrival & self._ring_mask].append(self._wheel_entry)

    def deliver(self, cycle: int) -> Sequence[T]:
        """Pop every item whose arrival cycle is <= ``cycle``.

        Returns a shared empty tuple when nothing is due (the common
        case under polling), a fresh list otherwise.
        """
        in_flight = self._in_flight
        if not in_flight or in_flight[0][0] > cycle:
            return _NOTHING
        arrived: List[T] = []
        while in_flight and in_flight[0][0] <= cycle:
            arrived.append(in_flight.popleft()[1])
        return arrived

    @property
    def occupancy(self) -> int:
        """Number of items still in flight."""
        return len(self._in_flight)

    def __bool__(self) -> bool:
        return bool(self._in_flight)

    def peek_all(self) -> List[T]:
        """Items in flight, in order (for invariant checks)."""
        return [item for _, item in self._in_flight]
