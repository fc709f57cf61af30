"""The hybrid serving path: surrogate-first, simulate-to-refine.

:class:`Estimator` is the front door the north-star "millions of user
queries" scenario needs.  :meth:`Estimator.query` answers a
(config, load) question immediately -- from the content-addressed
result cache when the exact point was ever simulated, otherwise from
the analytical surrogate (:mod:`repro.surrogate`) -- and, for
surrogate answers, schedules the real simulation as background
refinement through an ordinary :meth:`Experiment.map` batch.  The
refined result lands in the shared cache, so the *next* identical
query upgrades from ``surrogate`` to ``cached`` for free.

Every answer is stamped with its provenance (``surrogate`` /
``cached`` / ``simulated``) and an error estimate: the calibration's
residual relative error for surrogate answers, zero for measured ones.
Serving telemetry (query counts per source, refinement backlog,
observed surrogate error against refinements that completed) is one
flat dict of numbers keyed by the telemetry summary's rendered metric
names (``estimator_answers{source=cached}``); :meth:`Estimator.counters`
returns a copy of it.

Threading model: the caller's thread only ever touches the front
:class:`~repro.runtime.experiment.Experiment` (used for ``wait=True``
synchronous queries); a single daemon worker drains the refinement
queue through a *second* Experiment that shares the cache but nothing
else, so background simulation never races the foreground stats.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.metrics import RunResult
from ..surrogate import (
    DEFAULT_COEFFICIENTS,
    Calibration,
    SurrogateEstimate,
    estimate,
)
from .cache import config_key
from .experiment import Experiment

__all__ = ["EstimateAnswer", "Estimator"]

#: Refinement points batched into one backend call: large enough to
#: keep a process pool's workers busy, small enough that the backlog gauge
#: moves while a burst of queries drains.
_REFINE_BATCH = 8

#: Lock discipline, enforced by the CONC analysis rules: every write to
#: these fields must happen under ``with self.<named lock>``.  The
#: caller thread and the refinement drain worker share them; ``_lock``
#: guards the serving stats, ``_idle`` guards the refinement
#: bookkeeping its Condition predicate reads.
LOCKED_BY = {
    "Estimator._counts": "_lock",
    "Estimator._observed_count": "_lock",
    "Estimator._observed_max": "_lock",
    "Estimator._last_refine_error": "_lock",
    "Estimator.calibration": "_lock",
    "Estimator._scheduled_keys": "_idle",
    "Estimator._inflight": "_idle",
    "Estimator._worker": "_idle",
    "Estimator._closed": "_idle",
}


@dataclass
class EstimateAnswer:
    """One answer from the hybrid serving path."""

    config: SimConfig
    load: float
    #: Where the numbers came from: "surrogate" (analytical model,
    #: instant), "cached" (previously simulated, replayed from the
    #: content-addressed store) or "simulated" (cycle-accurate run
    #: executed for this query).
    source: str
    latency_cycles: float
    throughput_fraction: float
    saturated: bool
    #: Expected relative latency error: the calibration's residual
    #: max-rel-error for surrogate answers (None when the config's
    #: class was never calibrated), 0.0 for measured answers.
    error_estimate: Optional[float]
    #: The analytical estimate backing a surrogate answer (also
    #: attached to measured answers for breakdown display).
    estimate: Optional[SurrogateEstimate] = None
    #: The measured result backing a cached/simulated answer.
    result: Optional[RunResult] = None
    #: True when this query scheduled a background refinement.
    refinement_scheduled: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "load": self.load,
            "source": self.source,
            "latency_cycles": (
                self.latency_cycles
                if math.isfinite(self.latency_cycles) else None
            ),
            "throughput_fraction": self.throughput_fraction,
            "saturated": self.saturated,
            "error_estimate": self.error_estimate,
            "refinement_scheduled": self.refinement_scheduled,
            "estimate": self.estimate.to_dict() if self.estimate else None,
            "result": self.result.to_dict() if self.result else None,
        }

    def describe(self) -> str:
        latency = (
            f"{self.latency_cycles:7.1f}"
            if math.isfinite(self.latency_cycles) else "    inf"
        )
        if self.error_estimate is None:
            error = "uncalibrated"
        else:
            error = f"+-{self.error_estimate:.1%}"
        return (
            f"load {self.load:4.0%}  latency {latency} cycles  "
            f"accepted {self.throughput_fraction:5.1%}  "
            f"[{self.source}, {error}]"
            f"{'  [saturated]' if self.saturated else ''}"
        )


class Estimator:
    """Surrogate-first query serving over the experiment runtime.

    ``cache`` / ``backend`` / ``workers`` configure the underlying
    Experiments exactly as :class:`~repro.runtime.experiment.Experiment`
    does; ``calibration`` supplies fitted surrogate coefficients (the
    default uncalibrated coefficients serve until
    :meth:`calibrate` or a loaded calibration replaces them);
    ``refine=False`` turns background refinement off (answers still
    come from surrogate + cache).
    """

    def __init__(
        self,
        measurement: Optional[MeasurementConfig] = None,
        *,
        cache: Any = True,
        backend: Any = None,
        workers: Optional[int] = None,
        calibration: Optional[Calibration] = None,
        refine: bool = True,
    ) -> None:
        self.measurement = measurement or MeasurementConfig()
        self.experiment = Experiment(
            self.measurement, cache=cache, backend=backend, workers=workers,
        )
        # The refiner shares the *cache* (that is the hand-off: refined
        # results land where the front door probes) but nothing else --
        # its own backend instance and its own stats, so the background
        # thread never races a synchronous query.
        self._refiner = Experiment(
            self.measurement,
            # NB: an empty ResultCache is falsy -- pass the instance
            # itself, never `cache or False`.
            cache=(
                self.experiment.cache
                if self.experiment.cache is not None else False
            ),
            backend=backend, workers=workers,
        )
        self.calibration = calibration or Calibration()
        self.refine_enabled = refine
        self._lock = threading.Lock()
        self._pending: (
            "queue.Queue[Optional[Tuple[str, SimConfig]]]"
        ) = queue.Queue()
        self._scheduled_keys: set = set()
        self._inflight = 0
        self._idle = threading.Condition()
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        self._started = time.perf_counter()
        #: Serving counters and gauges: rendered name -> current value.
        self._counts: Dict[str, float] = {}
        self._observed_count = 0
        self._observed_max = 0.0
        self._last_refine_error: Optional[str] = None

    # ------------------------------------------------------------------
    # The front door.
    # ------------------------------------------------------------------

    def query(
        self,
        config: SimConfig,
        load: Optional[float] = None,
        *,
        wait: bool = False,
        refine: Optional[bool] = None,
    ) -> EstimateAnswer:
        """Answer one (config, load) question.

        The default path never touches the cycle kernel: a cache hit
        answers as ``cached``, anything else answers instantly from the
        surrogate and (unless ``refine=False``) schedules the real
        simulation in the background.  ``wait=True`` instead blocks on
        the simulation and answers as ``simulated``.
        """
        if load is not None:
            config = replace(config, injection_fraction=load)
        config.validate()
        key = config_key(config, self.measurement)
        cache = self.experiment.cache
        result = cache.get(key) if cache is not None else None
        if result is not None:
            source = "cached"
        elif wait:
            result = self.experiment.map([config])[0]
            source = result.source or "simulated"
        else:
            source = "surrogate"

        # One read of the calibration (calibrate() may swap it) and one
        # class look-up serve both the coefficients and the error.
        record = self.calibration.record_for(config)
        prediction = estimate(
            config,
            coefficients=(
                DEFAULT_COEFFICIENTS if record is None
                else record.coefficients
            ),
        )
        scheduled = False
        if result is None and (
            refine if refine is not None else self.refine_enabled
        ):
            scheduled = self._schedule_refinement(config, key)
        with self._lock:
            for name in (
                "estimator_queries", f"estimator_answers{{source={source}}}"
            ):
                self._counts[name] = self._counts.get(name, 0) + 1
        if result is not None:
            return EstimateAnswer(
                config=config,
                load=config.injection_fraction,
                source=source,
                latency_cycles=result.average_latency,
                throughput_fraction=result.accepted_fraction,
                saturated=result.saturated,
                error_estimate=0.0,
                estimate=prediction,
                result=result,
            )
        return EstimateAnswer(
            config=config,
            load=config.injection_fraction,
            source=source,
            latency_cycles=prediction.latency_cycles,
            throughput_fraction=prediction.throughput_fraction,
            saturated=prediction.saturated,
            error_estimate=(
                None if record is None else record.max_rel_error
            ),
            estimate=prediction,
            refinement_scheduled=scheduled,
        )

    # ------------------------------------------------------------------
    # Background refinement.
    # ------------------------------------------------------------------

    def _schedule_refinement(self, config: SimConfig, key: str) -> bool:
        """Enqueue one point for background simulation (dedup by key).

        A key stays in ``_scheduled_keys`` while its point is queued or
        simulating, and for good if its batch failed (a poisoned point
        must not be retried on every query); a landed refinement drops
        it, because from then on the cache answers that key.
        """
        if self.experiment.cache is None:
            # Nowhere for the refined result to land that a later query
            # would see; skip rather than simulate into the void.
            return False
        with self._idle:
            if self._closed or key in self._scheduled_keys:
                return False
            self._scheduled_keys.add(key)
            self._inflight += 1
            backlog = self._inflight
        self._pending.put((key, config))
        with self._lock:
            self._counts["estimator_refinements_scheduled"] = (
                self._counts.get("estimator_refinements_scheduled", 0) + 1
            )
            self._counts["estimator_refine_backlog"] = backlog
        self._ensure_worker()
        return True

    def _ensure_worker(self) -> None:
        with self._idle:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._drain_loop,
                    name="estimator-refine",
                    daemon=True,
                )
                self._worker.start()

    def _drain_loop(self) -> None:
        while True:
            item = self._pending.get()
            if item is None:
                return
            batch = [item]
            stop = False
            while len(batch) < _REFINE_BATCH:
                try:
                    extra = self._pending.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            configs = [config for _, config in batch]
            landed: List[str] = []
            try:
                results = self._refiner.map(configs)
            except Exception as exc:
                # The serving loop outlives a failed batch: count it,
                # keep the text for summary(), release the backlog below.
                with self._lock:
                    self._counts["estimator_refinements_failed"] = (
                        self._counts.get("estimator_refinements_failed", 0)
                        + len(batch)
                    )
                    self._last_refine_error = f"{type(exc).__name__}: {exc}"
            else:
                for config, result in zip(configs, results):
                    self._record_refinement(config, result)
                landed = [key for key, _ in batch]
            with self._idle:
                self._inflight -= len(batch)
                backlog = self._inflight
                self._scheduled_keys.difference_update(landed)
                self._idle.notify_all()
            with self._lock:
                self._counts["estimator_refine_backlog"] = backlog
            if stop:
                return

    def _record_refinement(
        self, config: SimConfig, result: RunResult
    ) -> None:
        """Score the surrogate against one refined (simulated) point."""
        with self._lock:
            self._counts["estimator_refinements_completed"] = (
                self._counts.get("estimator_refinements_completed", 0) + 1
            )
            if result.latency is None:
                return
            coefficients = self.calibration.for_config(config)
            predicted = estimate(config, coefficients=coefficients)
            if not math.isfinite(predicted.latency_cycles):
                return
            error = (
                abs(predicted.latency_cycles - result.average_latency)
                / result.average_latency
            )
            self._observed_count += 1
            self._observed_max = max(self._observed_max, error)
            self._counts["estimator_observed_rel_error"] = error
            self._counts["estimator_observed_max_rel_error"] = (
                self._observed_max
            )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the refinement backlog is empty (or timeout)."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Stop the refinement worker (idempotent)."""
        with self._idle:
            if self._closed:
                return
            self._closed = True
        self._pending.put(None)
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=timeout)

    def __enter__(self) -> "Estimator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Calibration and reporting.
    # ------------------------------------------------------------------

    def calibrate(self, configs=None, loads=None) -> Calibration:
        """Fit (or re-fit) the surrogate against the cached corpus.

        Gathers the calibration corpus through the front Experiment --
        all cache hits in steady state -- and installs the fitted
        coefficients for subsequent queries.  Returns the calibration
        so callers can serialize it.
        """
        from ..surrogate import calibrate_from_cache

        calibration, _ = calibrate_from_cache(
            self.experiment, configs, loads
        )
        # The drain worker reads self.calibration under _lock while
        # scoring refinements; installing the new fit unlocked would
        # race it.
        with self._lock:
            self.calibration = calibration
        return calibration

    @property
    def backlog(self) -> int:
        """Refinement points scheduled but not yet completed."""
        with self._idle:
            return self._inflight

    def counters(self) -> Dict[str, float]:
        """The serving counters and gauges as a flat dict (for tests/CLI)."""
        with self._lock:
            return dict(self._counts)

    def summary(self) -> str:
        """One-paragraph serving summary for the CLI."""
        elapsed = time.perf_counter() - self._started
        with self._lock:
            queries = self._counts.get("estimator_queries", 0)
            rate = queries / elapsed if elapsed > 0 else 0.0
            self._counts["estimator_query_rate_hz"] = rate
            sources = []
            for source in ("surrogate", "cached", "simulated"):
                answered = self._counts.get(
                    f"estimator_answers{{source={source}}}"
                )
                if answered:
                    sources.append(f"{answered:.0f} {source}")
            surrogate_rate = (
                self._counts.get("estimator_answers{source=surrogate}", 0)
                / queries if queries else 0.0
            )
            observed = (
                f"{self._observed_max:.1%} max observed error "
                f"over {self._observed_count} refinements"
                if self._observed_count else "no refinements scored yet"
            )
            failed = self._counts.get("estimator_refinements_failed")
            if failed is not None:
                observed += (
                    f", {failed:.0f} refinements failed "
                    f"(last: {self._last_refine_error})"
                )
        backlog = self.backlog
        return (
            f"[estimator] {queries} queries ({rate:.1f}/s), "
            f"{', '.join(sources) if sources else 'no answers'} "
            f"({surrogate_rate:.0%} surrogate hit rate), "
            f"refinement backlog {backlog}, {observed}"
        )
