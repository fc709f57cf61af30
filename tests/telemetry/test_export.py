"""Exporter formats: JSONL, CSV, and Chrome trace_event."""

import csv
import json

import pytest

from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig, TelemetrySession, exporters

MEAS = MeasurementConfig(
    warmup_cycles=100, sample_packets=80, max_cycles=10_000
)


@pytest.fixture(scope="module")
def traced_run():
    """One instrumented run, sharing the summary *and* the live tracer."""
    config = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        injection_fraction=0.2, seed=9,
    )
    session = TelemetrySession(TelemetryConfig(
        sample_period=4, window_cycles=64, capture_trace=True,
        trace_max_events=50_000,
    ))
    result = Simulator(config, MEAS, telemetry=session).run()
    return result.telemetry, session.tracer


@pytest.mark.sim
class TestJsonl:
    def test_header_then_metrics_then_windows(self, traced_run, tmp_path):
        summary, _tracer = traced_run
        path = exporters.export_jsonl(summary, tmp_path / "t.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "summary"
        assert records[0]["cycles_observed"] == summary.cycles_observed
        assert records[0]["speculation_win_rate"] == pytest.approx(
            summary.speculation_win_rate
        )
        types = [record["type"] for record in records]
        assert types == (
            ["summary"]
            + ["metric"] * sum(t == "metric" for t in types)
            + ["window"] * sum(t == "window" for t in types)
        )
        metric_names = {r["name"] for r in records if r["type"] == "metric"}
        assert "switch_grants" in metric_names
        assert "crossbar_traversals{port=east}" in metric_names


@pytest.mark.sim
class TestCsv:
    def test_metric_catalogue(self, traced_run, tmp_path):
        summary, _tracer = traced_run
        path = exporters.export_csv(summary, tmp_path / "t.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        by_name = {row["name"]: row for row in rows}
        assert float(by_name["switch_grants"]["value"]) > 0
        assert by_name["vc_buffer_occupancy"]["kind"] == "histogram"
        assert by_name["network_buffered_flits"]["kind"] == "gauge"

    def test_window_timeline(self, traced_run, tmp_path):
        summary, _tracer = traced_run
        path = exporters.export_windows_csv(summary, tmp_path / "w.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(summary.windows)
        assert sum(float(row["flits_forwarded"]) for row in rows) == (
            summary.value("flits_forwarded")
        )


@pytest.mark.sim
class TestChromeTrace:
    def test_trace_structure(self, traced_run, tmp_path):
        summary, tracer = traced_run
        path = exporters.export_chrome_trace(
            tmp_path / "trace.json", summary=summary, tracer=tracer
        )
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert trace["otherData"]["source"] == "repro.telemetry"
        # One metadata record per router that logged an event.
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names and all(n.startswith("router ") for n in names)
        instants = [e for e in events if e["ph"] == "i"]
        assert {"switch_grant", "traversal"} <= {e["name"] for e in instants}
        assert all("ts" in e and "tid" in e for e in instants)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all("per_cycle" in e["args"] for e in counters)

    def test_summary_only_trace_has_counters_only(self, traced_run, tmp_path):
        summary, _tracer = traced_run
        path = exporters.export_chrome_trace(
            tmp_path / "counters.json", summary=summary
        )
        events = json.loads(path.read_text())["traceEvents"]
        assert events
        assert {e["ph"] for e in events} == {"C"}
