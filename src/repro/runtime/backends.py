"""Execution backends: where and how a :class:`JobQueue` actually runs.

Every backend implements the same tiny protocol -- drain a
:class:`~repro.runtime.scheduler.JobQueue`, calling ``on_result(job,
result)`` for each finished point *as it lands* -- so the
:class:`~repro.runtime.experiment.Experiment` façade can stream results
into the cache and fire progress hooks identically whatever the
execution substrate:

* :class:`SerialBackend` -- in-process, one point at a time.  The
  determinism baseline and the zero-overhead path for small batches.
* :class:`ProcessBackend` -- a :class:`~concurrent.futures.\
  ProcessPoolExecutor` fed by the work-stealing pull loop: each idle
  worker takes the next *chunk* of points (one pickle/spawn round-trip
  per chunk, not per point), and the tail of the queue is split so the
  last chunks are shared instead of straggling.

Backends are selected by :class:`~repro.runtime.experiment.Experiment`
via ``backend=`` or ``$REPRO_BACKEND`` (see :func:`resolve_backend`).
Results are bit-identical across backends -- each point is a pure
function of config + measurement -- and that is enforced by
``oracle_serial_vs_parallel`` running the same sweep through both.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.engine import Simulator
from ..sim.metrics import RunResult
from .scheduler import Chunk, JobQueue, OnResult

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_BACKEND"


def run_payload(
    payload: Tuple[SimConfig, Optional[MeasurementConfig], bool]
) -> RunResult:
    """Worker entry point: run one point (top level so it pickles)."""
    config, measurement, checked = payload
    return Simulator(config, measurement, checked=checked).run()


def run_chunk(
    payloads: Sequence[Tuple[SimConfig, Optional[MeasurementConfig], bool]]
) -> List[RunResult]:
    """Worker entry point: run one chunk of points in submission order.

    One of these per pickle/spawn round-trip is the whole point of
    chunked scheduling: the per-task overhead that made unchunked
    process fan-out lose to serial is paid once per chunk.
    """
    return [run_payload(payload) for payload in payloads]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Drains a :class:`JobQueue`, streaming completions to ``on_result``."""

    #: Short name used in configuration and stats (``serial``/``process``/...).
    name: str

    @property
    def slots(self) -> int:
        """Concurrent execution slots (sizes automatic chunking)."""

    def execute(self, queue: JobQueue, on_result: OnResult) -> None:
        """Run every chunk, calling ``on_result(job, result)`` per point
        in completion order.  Raises the first worker exception after
        accounting for everything that already finished."""


class SerialBackend:
    """In-process execution, one point at a time, in queue order."""

    name = "serial"

    @property
    def slots(self) -> int:
        return 1

    def execute(self, queue: JobQueue, on_result: OnResult) -> None:
        started = time.perf_counter()
        try:
            while True:
                chunk = queue.pull(0)
                if chunk is None:
                    break
                chunk_started = time.perf_counter()
                try:
                    for job in chunk.jobs:
                        on_result(job, run_payload(job.payload))
                finally:
                    queue.chunk_done(
                        chunk, 0, time.perf_counter() - chunk_started
                    )
        finally:
            queue.stats.dispatch_seconds += time.perf_counter() - started


class ProcessBackend:
    """Chunked fan-out over a process pool with work-stealing dispatch.

    Workers are fed by pulling: each finished worker takes the next
    chunk off the shared queue, so a slow chunk delays only its own
    worker while the others drain the rest.  When fewer chunks remain
    than idle workers the queue's tail is split (see
    :meth:`JobQueue.rebalance`) so the final points finish in parallel.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"process backend needs >= 1 worker, got {workers}")
        self.workers = workers

    @property
    def slots(self) -> int:
        return self.workers

    def execute(self, queue: JobQueue, on_result: OnResult) -> None:
        started = time.perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                in_flight: Dict[Any, Tuple[int, Chunk, float]] = {}

                def feed(worker: int) -> bool:
                    queue.rebalance(self.workers - len(in_flight))
                    chunk = queue.pull(worker)
                    if chunk is None:
                        return False
                    future = pool.submit(
                        run_chunk, [job.payload for job in chunk.jobs]
                    )
                    in_flight[future] = (worker, chunk, time.perf_counter())
                    return True

                for worker in range(self.workers):
                    if not feed(worker):
                        break
                while in_flight:
                    done, _ = wait(
                        set(in_flight), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        worker, chunk, chunk_started = in_flight.pop(future)
                        results = future.result()
                        queue.chunk_done(
                            chunk, worker,
                            time.perf_counter() - chunk_started,
                        )
                        for job, result in zip(chunk.jobs, results):
                            on_result(job, result)
                        feed(worker)
        finally:
            queue.stats.dispatch_seconds += time.perf_counter() - started


def resolve_backend(
    spec: Any = None, *, workers: int = 0
) -> ExecutionBackend:
    """The backend an :class:`Experiment` will execute with.

    ``spec`` may be an :class:`ExecutionBackend` instance, a name
    (``"serial"``, ``"process"``), or ``None`` -- which reads
    ``$REPRO_BACKEND`` and otherwise infers from ``workers``: more than
    one worker selects the process backend, else serial.  A bare
    ``"process"`` uses ``workers`` (minimum 2) for its pool size;
    ``"process:N"`` pins the pool to N.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or None
    if spec is None:
        return ProcessBackend(workers) if workers > 1 else SerialBackend()
    if isinstance(spec, (SerialBackend, ProcessBackend)):
        return spec
    if not isinstance(spec, str):
        if isinstance(spec, ExecutionBackend):
            return spec
        raise TypeError(
            f"backend must be a name or an ExecutionBackend, got {spec!r}"
        )
    name, _, argument = spec.partition(":")
    if name == "serial" and not argument:
        return SerialBackend()
    if name == "process" and not argument:
        return ProcessBackend(max(2, workers))
    if name == "process" and argument.isdigit():
        return ProcessBackend(int(argument))
    raise ValueError(
        f"unknown backend {spec!r} (expected serial or process[:N])"
    )
