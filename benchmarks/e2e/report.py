"""Step 3 of raw -> tabulate -> report: render the summary as markdown.

    python3 benchmarks/e2e/report.py [DIR]

Reads ``DIR/summary.json``, writes ``DIR/report.md`` and prints it: per
workload, every metric by name with its unit, the checks, and the host
flags (``noisy_host``, ``undersized_host``) that make timings suspect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import ledger


def number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def render_workload(name: str, entry: Dict[str, Any],
                    spec: Dict[str, Any]) -> List[str]:
    bounds = ledger.metric_table(spec, "end_to_end")
    stamp = entry["stamp"]
    verdict = "correct" if entry["correct"] else "INCORRECT"
    lines = [
        f"## {name}",
        "",
        f"{verdict}; {entry['attempted']:,} operations attempted, "
        f"{entry['failed']:,} failed (fail_share {entry['fail_share']:.4g}); "
        f"seed {entry['seed']}; work unit: {entry['work_unit']}",
        "",
        f"result_digest `{entry['result_digest']}`",
        "",
        f"host: nproc {stamp['nproc']}, {stamp['workers']} worker(s), "
        f"python {stamp['python']}, {stamp['platform']}, "
        f"commit {stamp['git_commit']}{' (dirty)' if stamp['git_dirty'] else ''}, "
        f"load average {stamp['loadavg_start']:.2f} -> {stamp['loadavg_end']:.2f}"
        + (f"; flags: {', '.join(entry['flags'])}" if entry["flags"] else ""),
        "",
        "| end-to-end metric | median | unit | min | max | n | better | bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for metric, measured in entry["end_to_end"].items():
        lines.append(
            f"| `{metric}` | {number(measured['value'])} | {measured['unit']} "
            f"| {number(measured['min'])} | {number(measured['max'])} "
            f"| {measured['n']} | {bounds[metric]['better']} "
            f"| {bounds[metric]['bound']} |"
        )
    if entry["per_layer"]:
        lines += ["", "| per-layer metric | value | unit |", "|---|---|---|"]
        for metric, measured in entry["per_layer"].items():
            lines.append(
                f"| `{metric}` | {number(measured['value'])} "
                f"| {measured['unit']} |"
            )
    lines += ["", "checks:"]
    for check in entry["checks"]:
        mark = "ok" if check["ok"] else "FAILED"
        detail = f" ({check['detail']})" if check["detail"] else ""
        lines.append(f"- {mark}: `{check['name']}`{detail}")
    lines.append("")
    return lines


def render(summary: Dict[str, Any], spec: Dict[str, Any]) -> str:
    lines = [f"# Perf ledger (harness version {summary['harness_version']})", ""]
    for name, entry in summary["workloads"].items():
        lines += render_workload(name, entry, spec)
    return "\n".join(lines)


def report(out: Path, spec: Optional[Dict[str, Any]] = None) -> str:
    """Read ``out/summary.json``; write ``out/report.md`` and return it."""
    summary = json.loads((out / "summary.json").read_text())
    text = render(summary, spec or ledger.load_spec())
    (out / "report.md").write_text(text)
    return text


if __name__ == "__main__":
    print(report(Path(sys.argv[1]) if len(sys.argv) > 1 else ledger.HERE / "out"))
