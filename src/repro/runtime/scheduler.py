"""The units of dispatch: one :class:`Job` per point, and its accounting.

A batch of simulation points is handed to an execution backend as a
list of :class:`Job` s, one per point.  There is no queue of our own:
the process pool's task queue already gives the next point to whichever
worker goes idle, and each result streams back through
:data:`OnResult` the moment it lands.  What dispatch did is recorded in
:class:`SchedulerStats`.

Scheduling never changes results: a point's
:class:`~repro.sim.metrics.RunResult` is a pure function of its config
+ measurement, whichever worker runs it and in whatever order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple


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
class SchedulerStats:
    """What dispatch did: mergeable across batches.

    Every point is its own task, so a "chunk" here is one point: its
    seconds are measured inside the worker that ran it, and busy time is
    keyed by that worker (``0`` .. ``workers - 1``; ``0`` in-process).
    Latency/busy/lag fields aggregate as (count, total, max) so they
    merge by addition/extrema.
    """

    chunks_completed: int = 0
    jobs_completed: int = 0
    #: Always 0: points are never stolen or split.  Kept only because
    #: the benchmark ledger still reports them.
    steals: int = 0
    splits: int = 0
    #: Per-point worker seconds, aggregated.
    chunk_seconds_total: float = 0.0
    chunk_seconds_max: float = 0.0
    #: Per-worker busy seconds (worker id -> seconds executing points).
    worker_busy_seconds: Dict[int, float] = field(default_factory=dict)
    #: Wall seconds the backend ran (utilization denominator).
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

    def record_point(self, worker: int, seconds: float) -> None:
        """One finished point: ``seconds`` of work on ``worker``."""
        self.chunks_completed += 1
        self.jobs_completed += 1
        self.chunk_seconds_total += seconds
        self.chunk_seconds_max = max(self.chunk_seconds_max, seconds)
        self.worker_busy_seconds[worker] = (
            self.worker_busy_seconds.get(worker, 0.0) + seconds
        )

    def record_stream_lag(self, seconds: float) -> None:
        self.stream_lag_count += 1
        self.stream_lag_total += seconds
        self.stream_lag_max = max(self.stream_lag_max, seconds)

    def merge(self, other: "SchedulerStats") -> None:
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


#: Signature backends call for every finished job, in completion order:
#: ``on_result(job, result, worker, seconds)`` -- the worker that ran
#: the point and the seconds it spent on it.  The experiment streams the
#: result into the cache and fires progress hooks from inside this
#: callback, so a batch interrupted mid-flight keeps everything already
#: completed.
OnResult = Callable[[Job, Any, int, float], None]
