"""Telemetry configuration.

:class:`TelemetryConfig` is deliberately free of any ``repro.sim``
import: :class:`~repro.sim.config.SimConfig` embeds it as its
``telemetry`` field (so a telemetry request travels with the config
through the result cache's content key and across process-pool hops),
and the sim layer must stay importable without the session.

The defaults are the "default sampling" the overhead gate measures:
occupancy sampled every 64 cycles, 1024-cycle windows, at most 64
windows held in memory (older windows merge pairwise, coarsening the
early history instead of growing without bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling and retention knobs for one run's telemetry session.

    Frozen: a config is part of the simulation's identity (it changes
    what a run *records*, never what it *simulates*) and is hashed into
    the result-cache key, so it must not mutate after construction.
    """

    #: Cycles between occupancy/utilization samples.  Sampling reads
    #: settled end-of-cycle state; sleeping routers are never woken for
    #: it (their occupancy is provably zero and integrated analytically).
    sample_period: int = 64
    #: Width of one window of deltas in cycles.
    window_cycles: int = 1024
    #: Upper bound on retained windows; a full ring merges adjacent
    #: pairs, halving the count and doubling the early windows' span.
    max_windows: int = 64
    #: Also attach a :class:`~repro.sim.trace.Tracer` so the run can be
    #: exported as a Chrome ``trace_event`` file (Perfetto).  Costs one
    #: record per pipeline event; off by default.
    capture_trace: bool = False
    #: Cap on captured trace events (None = unbounded).
    trace_max_events: Optional[int] = 200_000

    def __post_init__(self) -> None:
        if self.sample_period < 1:
            raise ValueError(
                f"sample_period must be >= 1, got {self.sample_period}"
            )
        if self.window_cycles < self.sample_period:
            raise ValueError(
                "window_cycles must be >= sample_period "
                f"({self.window_cycles} < {self.sample_period})"
            )
        if self.max_windows < 2:
            raise ValueError(
                f"max_windows must be >= 2, got {self.max_windows}"
            )
        if self.trace_max_events is not None and self.trace_max_events < 1:
            raise ValueError("trace_max_events must be >= 1 or None")
