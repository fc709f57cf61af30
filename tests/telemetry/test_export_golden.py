"""Every byte the telemetry exporters write, pinned to a golden fixture.

One small instrumented run (4x4 speculative-VC mesh) whose telemetry
setting makes every part of the output appear: window compaction
(``max_windows=4``), per-router ``{node=N}`` and per-direction
``{port=...}`` counters, the occupancy histogram and both gauges.  The
fixture holds the exported file texts themselves, so value types are
pinned too (a counter reads ``3``, a gauge total ``3.0``), plus the
``"ph": "C"`` counter events of the Chrome trace and the JSON of a
two-seed ``merge_summaries``.  Regeneration workflow: see
``tests/conftest.py``.
"""

import json

import pytest

from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    exporters,
    merge_summaries,
)

MEAS = MeasurementConfig(
    warmup_cycles=100, sample_packets=100, max_cycles=10_000
)

TELEMETRY = TelemetryConfig(
    sample_period=4, window_cycles=64, max_windows=4, capture_trace=True
)


def instrumented_run(seed):
    config = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
        buffers_per_vc=4, injection_fraction=0.3, seed=seed,
    )
    session = TelemetrySession(TELEMETRY)
    result = Simulator(config, MEAS, telemetry=session).run()
    return result.telemetry, session.tracer


@pytest.mark.sim
def test_telemetry_export_golden(golden, tmp_path):
    summary, tracer = instrumented_run(seed=1)
    data = summary.to_dict()
    # The run exercises every shape the exporters render.
    assert any(w["end"] - w["start"] > 64 for w in data["windows"])
    kinds = {payload["kind"] for payload in data["metrics"].values()}
    assert kinds == {"counter", "gauge", "histogram"}
    assert any("{node=" in name for name in data["metrics"])
    assert any("{port=" in name for name in data["metrics"])
    assert {"network_buffered_flits", "active_routers"} <= set(
        data["metrics"]
    )

    files = {}
    for name, export in (
        ("telemetry.jsonl", exporters.export_jsonl),
        ("telemetry.csv", exporters.export_csv),
        ("windows.csv", exporters.export_windows_csv),
    ):
        files[name] = export(summary, tmp_path / name).read_text()
    trace = json.loads(
        exporters.export_chrome_trace(
            tmp_path / "trace.json", summary=summary, tracer=tracer
        ).read_text()
    )
    files["trace.json counter events"] = json.dumps(
        [event for event in trace["traceEvents"] if event["ph"] == "C"]
    )
    merged = merge_summaries([summary, instrumented_run(seed=2)[0]])
    files["merge_summaries seeds 1+2"] = json.dumps(merged.to_dict())
    golden.check("telemetry_export", files)
