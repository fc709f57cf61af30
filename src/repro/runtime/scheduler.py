"""The job-scheduler core: chunked, work-stealing dispatch of grid points.

A batch of simulation points (one :class:`Job` each) is partitioned into
:class:`Chunk` s -- contiguous slices of the batch -- and queued on a
:class:`JobQueue`.  Execution backends *pull* chunks from the queue as
their workers go idle instead of receiving a static partition up front:
a worker that finishes early steals the chunks a static split would have
handed to its slower peers, and when the queue runs dry while several
workers are still asking, the tail chunk is split so the last stragglers
share the remaining work.

Chunking is the fix for the per-task overhead of the original
ProcessPoolExecutor path: one pickle/spawn round-trip now carries
``chunk_size`` points instead of one.  What that buys is measured by
the ``figs_parallel`` workload of ``benchmarks/e2e``
(``runtime.parallel_speedup``).

Scheduling never changes results.  Every knob on :class:`Plan` steers
*how* points execute -- chunk granularity -- and a point's
:class:`~repro.sim.metrics.RunResult` stays a pure function of its
config + measurement.  That contract is machine-checked: the
``CACHE003`` rule of :mod:`repro.analysis` requires every :class:`Plan`
field to either ride the result-cache key or be declared in
:data:`RESULT_NEUTRAL` below.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: :class:`Plan` fields that steer scheduling only and provably cannot
#: change a point's results -- which is why they are allowed to stay out
#: of the result-cache key.  The CACHE003 lint rule fails the build when
#: a new Plan field is neither keyed nor declared here, so a future knob
#: that *does* change results cannot silently alias cached entries.
RESULT_NEUTRAL = {
    "Plan.chunk_size",
}

#: Target chunks per worker when :attr:`Plan.chunk_size` is automatic.
#: More than one chunk per worker is what makes stealing possible; four
#: keeps chunks large enough to amortize the pickle/spawn round-trip
#: while leaving slack for slow-point imbalance.
DEFAULT_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class Plan:
    """How one :meth:`Experiment.map` batch is scheduled.

    A plan is pure scheduling: no field here may change what any point
    computes (enforced by CACHE003 -- see :data:`RESULT_NEUTRAL`).

    Parameters
    ----------
    chunk_size:
        Points per dispatch unit.  ``None`` sizes chunks automatically
        from the batch and worker count (see :meth:`resolve_chunk_size`).
    """

    chunk_size: Optional[int] = None

    def resolve_chunk_size(self, jobs: int, slots: int) -> int:
        """The chunk size to use for ``jobs`` points on ``slots`` workers.

        Explicit :attr:`chunk_size` wins; otherwise aim for
        :data:`DEFAULT_CHUNKS_PER_WORKER` chunks per worker slot so the
        queue always holds spare chunks for stealing, never below one
        point.
        """
        if self.chunk_size is not None:
            if self.chunk_size < 1:
                raise ValueError(
                    f"chunk_size must be >= 1, got {self.chunk_size}"
                )
            return self.chunk_size
        slots = max(1, slots)
        target_chunks = slots * DEFAULT_CHUNKS_PER_WORKER
        return max(1, -(-jobs // target_chunks))  # ceil division


@dataclass(frozen=True)
class Job:
    """One simulation point of a batch, ready to execute anywhere.

    ``payload`` is the picklable argument tuple the worker entry point
    consumes; ``index`` is the point's position in the caller's batch
    (results come back in batch order regardless of execution order);
    ``key`` is its content-address in the result cache.
    """

    index: int
    key: str
    payload: Tuple[Any, ...]


@dataclass
class Chunk:
    """A contiguous run of jobs dispatched as one unit."""

    chunk_id: int
    jobs: List[Job]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class SchedulerStats:
    """What the dispatch loop did: mergeable across batches.

    ``steals`` counts chunks a worker pulled that a static round-robin
    partition would have assigned to a different worker -- the
    work-stealing win.  ``splits`` counts tail chunks divided so idle
    workers could share the last of the queue.  Latency/busy/lag fields
    aggregate as (count, total, max) so they merge by addition/extrema.
    """

    chunks_total: int = 0
    chunks_completed: int = 0
    jobs_completed: int = 0
    steals: int = 0
    splits: int = 0
    #: Per-chunk wall seconds, aggregated.
    chunk_seconds_total: float = 0.0
    chunk_seconds_max: float = 0.0
    #: Per-worker busy seconds (worker id -> seconds executing chunks).
    worker_busy_seconds: Dict[int, float] = field(default_factory=dict)
    #: Wall seconds the dispatch loop ran (utilization denominator).
    dispatch_seconds: float = 0.0
    #: Completion-to-cache-write lag of streamed results, aggregated.
    stream_lag_count: int = 0
    stream_lag_total: float = 0.0
    stream_lag_max: float = 0.0

    @property
    def mean_chunk_seconds(self) -> float:
        if not self.chunks_completed:
            return 0.0
        return self.chunk_seconds_total / self.chunks_completed

    @property
    def mean_stream_lag(self) -> float:
        if not self.stream_lag_count:
            return 0.0
        return self.stream_lag_total / self.stream_lag_count

    def worker_utilization(self) -> Dict[int, float]:
        """Busy fraction of the dispatch wall time, per worker."""
        if self.dispatch_seconds <= 0:
            return {worker: 0.0 for worker in self.worker_busy_seconds}
        return {
            worker: min(1.0, busy / self.dispatch_seconds)
            for worker, busy in sorted(self.worker_busy_seconds.items())
        }

    def record_stream_lag(self, seconds: float) -> None:
        self.stream_lag_count += 1
        self.stream_lag_total += seconds
        self.stream_lag_max = max(self.stream_lag_max, seconds)

    def merge(self, other: "SchedulerStats") -> None:
        self.chunks_total += other.chunks_total
        self.chunks_completed += other.chunks_completed
        self.jobs_completed += other.jobs_completed
        self.steals += other.steals
        self.splits += other.splits
        self.chunk_seconds_total += other.chunk_seconds_total
        self.chunk_seconds_max = max(
            self.chunk_seconds_max, other.chunk_seconds_max
        )
        for worker, busy in other.worker_busy_seconds.items():
            self.worker_busy_seconds[worker] = (
                self.worker_busy_seconds.get(worker, 0.0) + busy
            )
        self.dispatch_seconds += other.dispatch_seconds
        self.stream_lag_count += other.stream_lag_count
        self.stream_lag_total += other.stream_lag_total
        self.stream_lag_max = max(self.stream_lag_max, other.stream_lag_max)


class JobQueue:
    """Pull-based chunk queue shared by an execution backend's workers.

    The queue owns the chunk partition and the scheduling accounting;
    backends own the mechanics of running a chunk somewhere.  Workers
    call :meth:`pull` when idle and :meth:`chunk_done` when a chunk's
    results land; the queue splits its tail (:meth:`rebalance`) when
    fewer chunks remain than workers asking for them.
    """

    def __init__(self, jobs: Sequence[Job], chunk_size: int,
                 workers: int = 1) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = max(1, workers)
        self.chunk_size = chunk_size
        jobs = list(jobs)
        self._pending: deque = deque(
            Chunk(chunk_id, jobs[start:start + chunk_size])
            for chunk_id, start in enumerate(range(0, len(jobs), chunk_size))
        )
        self._next_chunk_id = len(self._pending)
        self._in_flight = 0
        self.stats = SchedulerStats(chunks_total=len(self._pending))

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def exhausted(self) -> bool:
        """No work left anywhere: queue empty and nothing executing."""
        return not self._pending and self._in_flight == 0

    def pull(self, worker: int) -> Optional[Chunk]:
        """The next chunk for an idle worker, or ``None`` when drained.

        A chunk whose id a static round-robin partition would have
        assigned to a different worker counts as stolen: the pull model
        means fast workers absorb the slack of slow ones instead of the
        batch waiting on the worst static share.
        """
        if not self._pending:
            return None
        chunk = self._pending.popleft()
        self._in_flight += 1
        if chunk.chunk_id % self.workers != worker % self.workers:
            self.stats.steals += 1
        return chunk

    def rebalance(self, idle_workers: int) -> int:
        """Split tail chunks so ``idle_workers`` can share the remnant.

        Called by backends when a worker goes idle and the queue holds
        fewer chunks than there are workers to feed.  Splits the largest
        pending chunks in half until counts match or chunks reach single
        points; returns how many splits happened.
        """
        splits = 0
        while 0 < len(self._pending) < idle_workers:
            largest = max(self._pending, key=len)
            if len(largest) < 2:
                break
            self._pending.remove(largest)
            middle = len(largest) // 2
            left = Chunk(largest.chunk_id, largest.jobs[:middle])
            right = Chunk(self._next_chunk_id, largest.jobs[middle:])
            self._next_chunk_id += 1
            self._pending.appendleft(right)
            self._pending.appendleft(left)
            self.stats.chunks_total += 1
            self.stats.splits += 1
            splits += 1
        return splits

    def chunk_done(self, chunk: Chunk, worker: int, seconds: float) -> None:
        """Record one chunk's completion (latency + worker busy time)."""
        self._in_flight -= 1
        self.stats.chunks_completed += 1
        self.stats.jobs_completed += len(chunk)
        self.stats.chunk_seconds_total += seconds
        self.stats.chunk_seconds_max = max(
            self.stats.chunk_seconds_max, seconds
        )
        self.stats.worker_busy_seconds[worker] = (
            self.stats.worker_busy_seconds.get(worker, 0.0) + seconds
        )


#: Signature backends call for every finished job, in completion order:
#: ``on_result(job, result)``.  The experiment streams the result into
#: the cache and fires progress hooks from inside this callback, so a
#: batch interrupted mid-flight keeps everything already completed.
OnResult = Callable[[Job, Any], None]


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(value, wall_seconds)``."""
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started
