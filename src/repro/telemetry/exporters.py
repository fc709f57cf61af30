"""Serialize telemetry to files: JSONL, CSV and Chrome ``trace_event``.

Three formats for three audiences:

* :func:`export_jsonl` -- the lossless machine form: one JSON object
  per line (``summary`` header, then ``metric`` and ``window`` records),
  greppable and streamable.
* :func:`export_csv` -- the metric catalogue as a flat spreadsheet;
  :func:`export_windows_csv` -- the per-window timeline with one column
  per windowed metric.
* :func:`export_chrome_trace` -- the Chrome ``trace_event`` JSON that
  ``chrome://tracing`` and https://ui.perfetto.dev open directly.  Flit
  pipeline events (from :class:`~repro.sim.trace.Tracer`) become
  instant events on one track per router; window rates become counter
  tracks.  One simulated cycle is rendered as one microsecond.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..sim.trace import Tracer
from .summary import TelemetrySummary, _mean

PathLike = Union[str, Path]


def export_jsonl(summary: TelemetrySummary, path: PathLike) -> Path:
    """Write the summary as line-delimited JSON; returns the path."""
    path = Path(path)
    data = summary.to_dict()
    with path.open("w") as handle:
        header = {
            "type": "summary",
            **{k: v for k, v in data.items() if k not in ("metrics", "windows")},
            "speculation_win_rate": summary.speculation_win_rate,
            "channel_utilization": summary.channel_utilization,
        }
        handle.write(json.dumps(header) + "\n")
        for name, payload in sorted(data["metrics"].items()):
            handle.write(
                json.dumps({"type": "metric", "name": name, **payload}) + "\n"
            )
        for window in data["windows"]:
            handle.write(json.dumps({"type": "window", **window}) + "\n")
    return path


def export_csv(summary: TelemetrySummary, path: PathLike) -> Path:
    """Write the metric catalogue as a flat CSV; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["name", "kind", "value", "samples", "mean", "min", "max"]
        )
        for name, metric in sorted(summary.metrics.items()):
            kind = metric["kind"]
            if kind == "counter":
                writer.writerow([name, kind, metric["value"], "", "", "", ""])
            elif kind == "gauge":
                writer.writerow([
                    name, kind, metric["value"], metric["samples"],
                    _mean(metric["total"], metric["samples"]),
                    metric["minimum"], metric["maximum"],
                ])
            else:  # histogram
                writer.writerow([
                    name, kind, metric["total"], metric["observations"],
                    _mean(metric["total"], metric["observations"]), "", "",
                ])
    return path


def export_windows_csv(summary: TelemetrySummary, path: PathLike) -> Path:
    """Write the window timeline as CSV (one column per metric)."""
    path = Path(path)
    columns: List[str] = []
    for window in summary.windows:
        for name in window["values"]:
            if name not in columns:
                columns.append(name)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["start", "end"] + columns)
        for window in summary.windows:
            values = window["values"]
            writer.writerow(
                [window["start"], window["end"]]
                + [values.get(name, 0) for name in columns]
            )
    return path


def chrome_trace_events(
    summary: Optional[TelemetrySummary] = None,
    tracer: Optional[Tracer] = None,
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list (1 cycle == 1 us)."""
    events: List[Dict[str, Any]] = []
    if tracer is not None:
        nodes = sorted({event.node for event in tracer.events})
        for node in nodes:
            events.append({
                "ph": "M", "pid": 0, "tid": node, "name": "thread_name",
                "args": {"name": f"router {node}"},
            })
        for event in tracer.events:
            events.append({
                "ph": "i", "s": "t", "pid": 0, "tid": event.node,
                "ts": event.cycle, "name": event.kind.value,
                "args": {
                    "packet": event.packet_id, "flit": event.flit_index,
                    "port": event.port, "vc": event.vc,
                },
            })
    if summary is not None:
        for window in summary.windows:
            cycles = max(1, window["end"] - window["start"])
            for name, value in sorted(window["values"].items()):
                events.append({
                    "ph": "C", "pid": 0, "ts": window["start"],
                    "name": name,
                    "args": {"per_cycle": value / cycles},
                })
    return events


def export_chrome_trace(
    path: PathLike,
    summary: Optional[TelemetrySummary] = None,
    tracer: Optional[Tracer] = None,
) -> Path:
    """Write a Chrome ``trace_event`` file (open in Perfetto)."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(summary, tracer),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry", "time_unit": "1us=1cycle"},
    }
    path.write_text(json.dumps(payload))
    return path
