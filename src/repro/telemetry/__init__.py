"""Streaming observability for simulation runs.

The telemetry subsystem watches a run from the outside: a
:class:`TelemetrySession` reads the counters the routers already keep
(speculation, crossbar traversals, credit stalls), samples their VC
buffers, keeps a bounded-memory history of windowed deltas, and folds
it all into a serializable :class:`TelemetrySummary`, whose numbers
sit in the plain mapping it writes out.  The summary rides on
:class:`~repro.sim.metrics.RunResult` -- through the result cache,
across process pools, and merged over sweeps.

Off by default and free when off: the engine's per-step hook is a
single ``is not None`` test, no wrappers are installed, and a telemetry
run produces bit-identical simulation results (enforced by the
``telemetry_on_vs_off`` differential oracle).

Enable per run or per experiment::

    from repro.runtime import Experiment
    from repro.telemetry import TelemetryConfig

    result = Experiment(telemetry=True).point(config)
    print(result.telemetry.speculation_win_rate)

See ``docs/OBSERVABILITY.md`` for the metric catalogue, the sampling
model, and the Perfetto export walkthrough.
"""

from .config import TelemetryConfig
from .summary import TelemetrySummary, merge_summaries
from .session import TelemetrySession, resolve_telemetry
from .exporters import (
    chrome_trace_events,
    export_chrome_trace,
    export_csv,
    export_jsonl,
    export_windows_csv,
)

__all__ = [
    "TelemetryConfig",
    "TelemetrySummary",
    "merge_summaries",
    "TelemetrySession",
    "resolve_telemetry",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_csv",
    "export_jsonl",
    "export_windows_csv",
]
