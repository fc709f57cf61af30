"""The unified experiment runtime: one façade over every way to run.

:class:`Experiment` owns the measurement scale, the execution backend,
the result cache, and progress reporting.  Its core is a single method:

* :meth:`Experiment.map` -- run a batch of configs, in input order,
  one backend task per missing point.

Everything else is a thin, keyword-only convenience wrapper over it:

* :meth:`Experiment.point` -- a single config.
* :meth:`Experiment.sweep` / :meth:`Experiment.sweeps` -- one or more
  latency-throughput curves.
* :meth:`Experiment.grid` -- a config x load x seed cartesian grid, the
  shape behind every figure of Section 5.
* :meth:`Experiment.aggregate` -- one point across seeds, with a CI.

Execution goes through an :class:`~repro.runtime.backends.\
ExecutionBackend` (``serial`` or a one-task-per-point ``process``
pool) selected via ``backend=`` or ``$REPRO_BACKEND``; results are
bit-identical across backends since each point is a pure function of
config + seed.  Completed points stream into the content-addressed
:class:`~repro.runtime.cache.ResultCache` *as they land*, with progress
recorded in a sweep manifest -- so an interrupted batch keeps
everything it finished and a re-run executes only the points still
missing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.instrumentation import NullProgress, ProgressHook
from ..sim.metrics import AggregateResult, RunResult, SweepResult
from ..telemetry.config import TelemetryConfig
from .backends import ExecutionBackend, SerialBackend, resolve_backend
from .cache import ResultCache, SweepManifest, config_key
from .scheduler import Job, SchedulerStats

#: Offered loads used when a sweep doesn't specify its own grid; the
#: experiments layer's ``sweep.DEFAULT_LOADS`` is this same constant.
DEFAULT_LOADS: Sequence[float] = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75)


@dataclass
class GridPoint:
    """One executed point of a grid: the exact config and its result."""

    config: SimConfig
    result: RunResult
    cached: bool = field(default=False, compare=False)


@dataclass
class GridResult:
    """Every point of a :meth:`Experiment.grid` call, in grid order."""

    points: List[GridPoint] = field(default_factory=list)

    @property
    def results(self) -> List[RunResult]:
        return [p.result for p in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def seeds(self) -> List[int]:
        return sorted({p.config.seed for p in self.points})

    def curve(self, label: str, *, seed: Optional[int] = None,
              where=None) -> SweepResult:
        """A subset of the grid as a latency-throughput curve.

        ``seed`` keeps one seed's points; ``where`` is an optional
        predicate over each point's :class:`SimConfig` (e.g. one router
        kind out of a multi-config grid).
        """
        points = [
            p.result for p in self.points
            if (seed is None or p.config.seed == seed)
            and (where is None or where(p.config))
        ]
        return SweepResult(label=label, points=points)

    def describe(self) -> str:
        lines = [f"grid of {len(self.points)} points:"]
        for point in self.points:
            lines.append(
                f"  seed {point.config.seed}  " + point.result.describe()
            )
        return "\n".join(lines)


@dataclass
class ExperimentStats:
    """Cumulative accounting across an :class:`Experiment`'s batches.

    The scheduler sub-record carries the dispatch-level observability
    -- per-point worker seconds, worker busy time, cache-stream lag.
    """

    points_requested: int = 0
    points_executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    wall_seconds: float = 0.0
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)
    #: Specialization envelope, summed over executed points: routers
    #: that ran a compiled step closure versus the generic reference
    #: path, and how many points fell back for each reason.
    routers_specialized: int = 0
    routers_generic: int = 0
    generic_step_reasons: Dict[str, int] = field(default_factory=dict)
    #: Provenance tally over returned results: how many answers were
    #: freshly "simulated" vs replayed from "cached" (pre-provenance
    #: cache entries count under "unknown").
    sources: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        if not self.points_requested:
            return 0.0
        return self.cache_hits / self.points_requested

    @property
    def mean_worker_utilization(self) -> float:
        utilization = self.scheduler.worker_utilization()
        if not utilization:
            return 0.0
        return sum(utilization.values()) / len(utilization)

    def record_source(self, source: Optional[str]) -> None:
        """Tally one returned result's provenance stamp."""
        key = source or "unknown"
        self.sources[key] = self.sources.get(key, 0) + 1

    def describe_sources(self) -> str:
        """One-phrase provenance summary for the CLI ``[runtime]`` line."""
        if not self.sources:
            return "no results"
        return ", ".join(
            f"{count} {source}"
            for source, count in sorted(self.sources.items())
        )

    def record_counters(self, counters) -> None:
        """Fold one executed point's :class:`RunCounters` envelope in."""
        self.routers_specialized += counters.routers_specialized
        self.routers_generic += counters.routers_generic
        reason = counters.generic_step_reason
        if reason is not None:
            self.generic_step_reasons[reason] = (
                self.generic_step_reasons.get(reason, 0) + 1
            )

    def describe_specialization(self) -> str:
        """One-phrase envelope summary for the CLI ``[runtime]`` line."""
        total = self.routers_specialized + self.routers_generic
        if not total:
            return "no router-step data"
        if not self.routers_generic:
            return f"{self.routers_specialized} routers specialized"
        reasons = ", ".join(
            f"{reason}: {count}"
            for reason, count in sorted(self.generic_step_reasons.items())
        )
        summary = (
            f"{self.routers_specialized} routers specialized / "
            f"{self.routers_generic} generic"
        )
        return f"{summary} ({reasons})" if reasons else summary


class Experiment:
    """Owns how simulation points run: scale, backend, cache, progress.

    Parameters
    ----------
    measurement:
        Sampling scale shared by every point (default
        :class:`MeasurementConfig`).
    workers:
        Process count for parallel execution; ``0``/``1`` run serially
        in-process (determinism debugging, no fork overhead).  ``None``
        reads ``$REPRO_WORKERS`` (default serial).
    backend:
        Execution strategy: an :class:`ExecutionBackend` instance or a
        name -- ``"serial"`` or ``"process"``/``"process:N"`` (one pool
        task per point).  ``None`` reads ``$REPRO_BACKEND`` and
        otherwise infers from ``workers``.
    cache:
        ``None`` disables caching; ``True`` uses the default directory
        (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sim``); a path or a
        :class:`ResultCache` selects a specific store.
    progress:
        A :class:`~repro.sim.instrumentation.ProgressHook` observing
        point starts/finishes.
    checked:
        Run every point with the invariant-probe suite of
        :mod:`repro.sim.validation` attached ("checked mode"); each
        result carries its validation summary.  ``None`` reads
        ``$REPRO_CHECKED`` (default off).  Checked runs bypass the
        result cache: their summaries must describe *this* execution,
        and cache entries stay comparable across modes.
    telemetry:
        Attach the streaming observability layer of
        :mod:`repro.telemetry` to every point: ``True`` enables default
        sampling, a :class:`~repro.telemetry.TelemetryConfig` chooses
        the sampling scale.  ``None`` reads ``$REPRO_TELEMETRY``
        (default off).  Implemented by stamping the config's own
        ``telemetry`` field (explicit per-config settings win), so the
        request rides the cache key and worker pickles for free, and
        telemetry-on results are cached separately from plain ones.
    """

    def __init__(
        self,
        measurement: Optional[MeasurementConfig] = None,
        *,
        workers: Optional[int] = None,
        backend: Union[ExecutionBackend, str, None] = None,
        cache: Union[ResultCache, str, Path, bool, None] = None,
        progress: Optional[ProgressHook] = None,
        checked: Optional[bool] = None,
        telemetry: Union[TelemetryConfig, bool, None] = None,
    ) -> None:
        self.measurement = measurement or MeasurementConfig()
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "0"))
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.backend: ExecutionBackend = resolve_backend(
            backend, workers=workers
        )
        self.cache = self._resolve_cache(cache)
        self.progress: ProgressHook = progress or NullProgress()
        if checked is None:
            env = os.environ.get("REPRO_CHECKED", "")
            checked = bool(env) and env not in ("0", "false", "no")
        self.checked = checked
        if telemetry is None:
            env = os.environ.get("REPRO_TELEMETRY", "")
            telemetry = bool(env) and env not in ("0", "false", "no")
        if telemetry is True:
            telemetry = TelemetryConfig()
        elif telemetry is False:
            telemetry = None
        elif telemetry is not None and not isinstance(
            telemetry, TelemetryConfig
        ):
            raise TypeError(
                f"telemetry must be a bool or TelemetryConfig, "
                f"got {telemetry!r}"
            )
        self.telemetry: Optional[TelemetryConfig] = telemetry
        self.stats = ExperimentStats()

    @staticmethod
    def _resolve_cache(
        cache: Union[ResultCache, str, Path, bool, None]
    ) -> Optional[ResultCache]:
        if cache is None or cache is False:
            return None
        if cache is True:
            return ResultCache()
        if isinstance(cache, ResultCache):
            return cache
        return ResultCache(cache)

    @classmethod
    def from_env(
        cls, measurement: Optional[MeasurementConfig] = None, **overrides
    ) -> "Experiment":
        """An Experiment configured by the ``$REPRO_*`` environment.

        ``REPRO_CACHE=1`` (or any truthy value) enables the default
        on-disk cache; ``REPRO_WORKERS``, ``REPRO_BACKEND`` and
        ``REPRO_CHECKED`` are read by the constructor itself.  Keyword
        overrides win over the environment.
        """
        if "cache" not in overrides:
            env = os.environ.get("REPRO_CACHE", "")
            if env and env not in ("0", "false", "no"):
                overrides["cache"] = True
        return cls(measurement, **overrides)

    # ------------------------------------------------------------------
    # The core: one batch through the backend.
    # ------------------------------------------------------------------

    def map(self, configs: Sequence[SimConfig]) -> List[RunResult]:
        """Run a batch of points, returning results in input order.

        Every config is validated up front; identical points execute
        once; cached points never execute.  Each missing point is one
        task on the execution backend, and each completed point streams
        into the cache (and the batch's sweep manifest) the moment it
        lands -- interrupting a batch keeps everything already finished,
        and re-running it executes only the points still missing.  A
        batch with nothing to execute costs its cache lookups only: no
        manifest, no backend call.  The result list is bit-identical
        whatever the backend.
        """
        started = time.perf_counter()
        configs = list(configs)
        if self.telemetry is not None:
            # Stamp the experiment-level telemetry request onto configs
            # that don't carry their own; the rewritten config then
            # flows through dedup keys, the cache, and worker pickles
            # exactly like any other knob.
            configs = [
                config if config.telemetry is not None
                else replace(config, telemetry=self.telemetry)
                for config in configs
            ]
        for config in configs:
            config.validate()
        total = len(configs)
        self.stats.points_requested += total
        self.progress.on_batch_start(total)

        # Deduplicate by content key (covers cache addressing too).
        keys = [
            config_key(config, self.measurement) for config in configs
        ]
        results: Dict[str, RunResult] = {}
        use_cache = self.cache is not None and not self.checked
        if use_cache:
            for key in dict.fromkeys(keys):
                # Shared, read-only, and already stamped "cached".
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = hit
        cached_keys = set(results)

        # First occurrence of each missing key executes; the rest share.
        to_run: Dict[str, int] = {}
        pending = 0
        for index, key in enumerate(keys):
            if key not in results:
                pending += 1
                to_run.setdefault(key, index)
        self.stats.deduplicated += pending - len(to_run)
        self.stats.points_executed += len(to_run)
        self.stats.cache_hits += total - pending

        try:
            if to_run:
                # Only a batch that executes something keeps a ledger.
                manifest = None
                if use_cache:
                    manifest = self.cache.manifest(keys).start()
                    for key in cached_keys:
                        manifest.record(key)
                self._execute(configs, to_run, results, manifest)
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

        # Progress for points resolved without executing (cache/dedupe).
        executed_indices = set(to_run.values())
        for index, key in enumerate(keys):
            if index not in executed_indices:
                self.progress.on_point_done(
                    index, total, configs[index], results[key],
                    cached=key in cached_keys,
                )
        self.progress.on_batch_done(total)
        ordered = [results[key] for key in keys]
        for result in ordered:
            self.stats.record_source(result.source)
        return ordered

    def _execute(
        self,
        configs: List[SimConfig],
        to_run: Dict[str, int],
        results: Dict[str, RunResult],
        manifest: Optional[SweepManifest],
    ) -> None:
        """Run a batch's missing points (``to_run``: key -> first index)
        on the backend, streaming each into ``results``, and -- when
        caching, which ``manifest`` stands for -- into the cache and the
        ledger as it lands."""
        total = len(configs)
        jobs = [
            Job(
                index=index,
                key=key,
                payload=(configs[index], self.measurement, self.checked),
            )
            for key, index in to_run.items()
        ]
        stats = SchedulerStats()

        def on_result(
            job: Job, result: RunResult, worker: int, seconds: float
        ) -> None:
            arrived = time.perf_counter()
            stats.record_point(worker, seconds)
            results[job.key] = result
            if result.counters is not None:
                self.stats.record_counters(result.counters)
            if manifest is not None:
                try:
                    self.cache.put(
                        job.key, result,
                        metadata={"label": repr(configs[job.index])},
                    )
                    manifest.record(job.key)
                except OSError as error:
                    raise OSError(
                        f"could not store point {configs[job.index]!r} "
                        f"in cache {self.cache.directory}: {error}"
                    ) from error
                stats.record_stream_lag(time.perf_counter() - arrived)
            self.progress.on_point_done(
                job.index, total, configs[job.index], result, cached=False
            )

        for job in jobs:
            self.progress.on_point_start(job.index, total, configs[job.index])
        started = time.perf_counter()
        try:
            self.backend.execute(jobs, on_result)
        finally:
            # Keep the accounting even when a worker raised: the
            # streamed points are in the cache and the manifest says so.
            stats.dispatch_seconds = time.perf_counter() - started
            self.stats.scheduler.merge(stats)

        if manifest is not None:
            manifest.complete()

    # ------------------------------------------------------------------
    # The public façade: thin wrappers over map().
    # ------------------------------------------------------------------

    def point(self, config: SimConfig) -> RunResult:
        """Run (or fetch from cache) a single simulation point."""
        return self.map([config])[0]

    def sweep(
        self,
        config: SimConfig,
        *,
        label: str,
        loads: Iterable[float] = DEFAULT_LOADS,
        stop_after_saturation: bool = True,
    ) -> SweepResult:
        """One latency-throughput curve over ``loads``.

        ``stop_after_saturation`` truncates the curve after its first
        saturated point.  On the serial backend that point ends
        execution early (the points beyond are strictly more expensive
        and add no information); on batched backends all points run and
        the tail is dropped, so every backend returns identical curves.
        """
        return self.sweeps(
            [(label, config)], loads=loads,
            stop_after_saturation=stop_after_saturation,
        )[0]

    def sweeps(
        self,
        labeled_configs: Sequence[Tuple[str, SimConfig]],
        *,
        loads: Iterable[float] = DEFAULT_LOADS,
        stop_after_saturation: bool = True,
    ) -> List[SweepResult]:
        """Several curves over a shared load grid, batched together.

        This is the figure-reproduction shape: with a parallel backend
        attached, every point of every curve fans out as one batch.
        """
        load_grid = sorted(loads)
        serial = isinstance(self.backend, SerialBackend)
        if not serial or not stop_after_saturation:
            flat = [
                replace(config, injection_fraction=load)
                for _, config in labeled_configs
                for load in load_grid
            ]
            flat_results = self.map(flat)
            count = len(load_grid)
            return [
                SweepResult(
                    label=label,
                    points=_truncate_after_saturation(
                        flat_results[index * count:(index + 1) * count],
                        stop_after_saturation,
                    ),
                )
                for index, (label, _) in enumerate(labeled_configs)
            ]

        result = []
        for label, config in labeled_configs:
            curve = SweepResult(label=label)
            for load in load_grid:
                point = self.map([replace(config, injection_fraction=load)])[0]
                curve.points.append(point)
                if stop_after_saturation and point.saturated:
                    break
            result.append(curve)
        return result

    def grid(
        self,
        configs: Union[SimConfig, Sequence[SimConfig]],
        *,
        loads: Optional[Iterable[float]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> GridResult:
        """The cartesian config x load x seed grid, as one batch.

        ``loads=None`` keeps each config's own ``injection_fraction``;
        ``seeds=None`` keeps each config's own ``seed``.  Points come
        back in grid order (configs outermost, seeds innermost).
        """
        if isinstance(configs, SimConfig):
            configs = [configs]
        flat: List[SimConfig] = []
        for config in configs:
            load_axis = (
                [config.injection_fraction] if loads is None
                else sorted(loads)
            )
            seed_axis = [config.seed] if seeds is None else list(seeds)
            for load in load_axis:
                for seed in seed_axis:
                    flat.append(replace(
                        config, injection_fraction=load, seed=seed
                    ))
        results = self.map(flat)
        return GridResult(points=[
            GridPoint(config=config, result=result)
            for config, result in zip(flat, results)
        ])

    def aggregate(
        self,
        config: SimConfig,
        *,
        load: float,
        seeds: Sequence[int] = (1, 2, 3),
    ) -> AggregateResult:
        """One point across several seeds, aggregated with a 95% CI."""
        if not seeds:
            raise ValueError("need at least one seed")
        grid = self.grid(
            replace(config, injection_fraction=load), seeds=seeds
        )
        return AggregateResult(injection_fraction=load, runs=grid.results)


def _truncate_after_saturation(
    points: List[RunResult], stop_after_saturation: bool
) -> List[RunResult]:
    """Drop everything past the first saturated point (inclusive keep)."""
    if not stop_after_saturation:
        return points
    kept: List[RunResult] = []
    for point in points:
        kept.append(point)
        if point.saturated:
            break
    return kept
