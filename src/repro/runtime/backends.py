"""Execution backends: where and how a batch of :class:`Job` s runs.

Every backend implements the same tiny protocol -- run a list of jobs,
calling ``on_result(job, result, worker, seconds)`` for each finished
point *as it lands* -- so the
:class:`~repro.runtime.experiment.Experiment` façade can stream results
into the cache and fire progress hooks identically whatever the
execution substrate:

* :class:`SerialBackend` -- in-process, one point at a time.  The
  determinism baseline and the zero-overhead path for small batches.
* :class:`ProcessBackend` -- a :class:`~concurrent.futures.\
  ProcessPoolExecutor` with one task per point.  The pool hands the
  next point to whichever worker goes idle; an error cancels every
  point that has not started.

Backends are selected by :class:`~repro.runtime.experiment.Experiment`
via ``backend=`` or ``$REPRO_BACKEND`` (see :func:`resolve_backend`).
Results are bit-identical across backends -- each point is a pure
function of config + measurement -- and that is enforced by
``oracle_serial_vs_parallel`` running the same sweep through both.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.engine import Simulator
from ..sim.metrics import RunResult
from .scheduler import Job, OnResult

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_BACKEND"


def run_payload(
    payload: Tuple[SimConfig, Optional[MeasurementConfig], bool]
) -> RunResult:
    """Run one point: the unit of work every backend executes."""
    config, measurement, checked = payload
    return Simulator(config, measurement, checked=checked).run()


def _run_in_worker(
    payload: Tuple[SimConfig, Optional[MeasurementConfig], bool]
) -> Tuple[RunResult, int, float]:
    """Pool task: one point, the worker's pid and its seconds on it.

    Top level so it pickles; it looks :func:`run_payload` up when
    called, so a forked worker runs whatever the parent bound there.
    """
    started = time.perf_counter()
    result = run_payload(payload)
    return result, os.getpid(), time.perf_counter() - started


@runtime_checkable
class ExecutionBackend(Protocol):
    """Runs a batch of jobs, streaming completions to ``on_result``."""

    #: Short name used in configuration and stats (``serial``/``process``/...).
    name: str

    def execute(self, jobs: Sequence[Job], on_result: OnResult) -> None:
        """Run every job, calling ``on_result(job, result, worker,
        seconds)`` per point in completion order.  An exception ends
        the batch: points not yet started never run."""


class SerialBackend:
    """In-process execution, one point at a time, in batch order."""

    name = "serial"

    def execute(self, jobs: Sequence[Job], on_result: OnResult) -> None:
        for job in jobs:
            started = time.perf_counter()
            result = run_payload(job.payload)
            on_result(job, result, 0, time.perf_counter() - started)


class ProcessBackend:
    """One pool task per point, each result streamed as it completes.

    A worker's exception propagates unchanged.  A worker that dies
    breaks the pool; that surfaces as a :class:`RuntimeError` naming how
    many points did not finish and the first of them in batch order.
    Either way, and on any exception raised by ``on_result`` (a full
    disk, Ctrl-C), points that have not started are cancelled.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"process backend needs >= 1 worker, got {workers}")
        self.workers = workers

    def execute(self, jobs: Sequence[Job], on_result: OnResult) -> None:
        pool = ProcessPoolExecutor(max_workers=self.workers)
        finished = set()
        # Worker pids differ from pool to pool; report each worker as
        # its 0-based order of first result, so stats merge across
        # batches per worker rather than per process ever started.
        slots: Dict[int, int] = {}
        try:
            futures = {
                pool.submit(_run_in_worker, job.payload): job for job in jobs
            }
            for future in as_completed(futures):
                job = futures[future]
                result, pid, seconds = future.result()
                on_result(
                    job, result, slots.setdefault(pid, len(slots)), seconds
                )
                finished.add(job.index)
        except BrokenProcessPool as error:
            unfinished = [job for job in jobs if job.index not in finished]
            raise RuntimeError(
                f"a pool worker died; {len(unfinished)} points did not "
                f"finish, the first in batch order being "
                f"{unfinished[0].payload[0]!r}"
            ) from error
        finally:
            pool.shutdown(cancel_futures=True)


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
