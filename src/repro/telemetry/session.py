"""The telemetry session the engine drives when telemetry is enabled.

:class:`TelemetrySession` mirrors the validation suite's lifecycle --
``attach`` / ``after_cycle`` / ``finalize`` / ``detach`` -- so the
engine treats both layers identically: one ``is not None`` attribute
test per step when enabled, nothing at all when not.

A session owns the :class:`~repro.telemetry.registry.MetricRegistry`
its collectors record into, the windowed
:class:`~repro.telemetry.timeseries.Timeseries`, and (optionally) a
:class:`~repro.sim.trace.Tracer` for Chrome-trace export.  Its product
is a :class:`~repro.telemetry.summary.TelemetrySummary`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .collectors import Collector, default_collectors
from .config import TelemetryConfig
from .registry import MetricRegistry
from .summary import TelemetrySummary
from .timeseries import Timeseries, Window


class TelemetrySession:
    """One run's worth of metric collection."""

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        collectors: Optional[Sequence[Collector]] = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self.collectors: List[Collector] = (
            list(collectors) if collectors is not None
            else default_collectors(self.config)
        )
        self.registry = MetricRegistry()
        self.timeseries = Timeseries(self.config.max_windows)
        self.tracer = None
        self.summary: Optional[TelemetrySummary] = None
        self._attached = False
        self._start_cycle = 0
        self._window_start = 0
        self._last_cycle = 0

    # ------------------------------------------------------------------

    def attach(self, network) -> None:
        if self._attached:
            raise RuntimeError("session is already attached to a network")
        self._start_cycle = network.cycle
        self._window_start = network.cycle
        self._last_cycle = network.cycle
        for collector in self.collectors:
            collector.attach(network, self.registry)
        if self.config.capture_trace:
            from ..sim.trace import Tracer

            self.tracer = Tracer.attach(network, self.config.trace_max_events)
        self._attached = True

    def detach(self, network) -> None:
        if self.tracer is not None:
            self.tracer.detach(network)
        self._attached = False

    # ------------------------------------------------------------------

    def after_cycle(self, network) -> None:
        """Observe the settled end-of-step state (every network step)."""
        cycle = network.cycle
        self._last_cycle = cycle
        if (cycle - self._start_cycle) % self.config.sample_period == 0:
            registry = self.registry
            for collector in self.collectors:
                collector.sample(network, registry, cycle)
        if cycle - self._window_start >= self.config.window_cycles:
            self._flush_window(network, cycle)

    def _flush_window(self, network, cycle: int) -> None:
        values: dict = {}
        for collector in self.collectors:
            collector.window(network, values)
        self.timeseries.append(Window(self._window_start, cycle, values))
        self._window_start = cycle

    # ------------------------------------------------------------------

    def finalize(self, network) -> TelemetrySummary:
        """Flush the tail window, run collector finalizers, detach."""
        cycle = network.cycle
        self._last_cycle = cycle
        if cycle > self._window_start:
            self._flush_window(network, cycle)
        cycles_observed = cycle - self._start_cycle
        for collector in self.collectors:
            collector.finalize(network, self.registry, cycles_observed)
        self.detach(network)
        self.summary = TelemetrySummary(
            sample_period=self.config.sample_period,
            window_cycles=self.config.window_cycles,
            cycles_observed=cycles_observed,
            metrics=self.registry,
            windows=self.timeseries.to_dicts(),
        )
        return self.summary


def resolve_telemetry(
    telemetry: Union["TelemetrySession", TelemetryConfig, bool, None],
    config,
) -> Optional["TelemetrySession"]:
    """Interpret the engine's ``telemetry`` argument.

    ``False`` disables telemetry outright; ``None`` defers to
    ``config.telemetry`` (the knob that travels with
    :class:`~repro.sim.config.SimConfig` through caches and worker
    processes); ``True`` enables default sampling; a
    :class:`TelemetryConfig` configures a fresh session; a
    :class:`TelemetrySession` is used as given.
    """
    if telemetry is False:
        return None
    if telemetry is None:
        embedded = getattr(config, "telemetry", None)
        if embedded is None:
            return None
        return TelemetrySession(embedded)
    if telemetry is True:
        return TelemetrySession(TelemetryConfig())
    if isinstance(telemetry, TelemetryConfig):
        return TelemetrySession(telemetry)
    if isinstance(telemetry, TelemetrySession):
        return telemetry
    raise TypeError(
        "telemetry must be a bool, TelemetryConfig or TelemetrySession, "
        f"got {telemetry!r}"
    )
