"""Step 2 of raw -> tabulate -> report: flatten raw records into a summary.

    python3 benchmarks/e2e/tabulate.py [DIR]

Reads ``DIR/raw/<workload>.jsonl`` (one record per line, as ``run.py``
writes them) and writes ``DIR/summary.json`` and ``DIR/summary.csv``.
Raw records are the artefact; everything here is derived and can be
regenerated from them.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import ledger


def stat(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median with the range, spread and sample count it rests on."""
    return {
        "value": statistics.median(values), "unit": unit,
        "min": min(values), "max": max(values), "n": len(values),
        "spread": ledger.spread(values),
    }


def load_raw(raw: Path) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(raw.glob("*.jsonl")):
        if path.name.endswith(".trace.jsonl"):
            continue
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    return records


def summarize_record(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's entry: end-to-end medians, per-layer values, verdict."""
    units = {
        kind: {name: metric["unit"]
               for name, metric in ledger.metric_table(spec, kind).items()}
        for kind in ("end_to_end", "per_layer")
    }
    passes = record["passes"]
    samples = {
        "setup_s": record["setup_samples_s"],
        "wall_s": [p["wall_s"] for p in passes],
        "work_per_s": [p["work"] / p["wall_s"] for p in passes],
        "peak_rss_mb": [record["peak_rss_mb"]],
    }
    unknown = sorted(set(record["per_layer"]) - set(units["per_layer"]))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    checks = record["checks"]
    return {
        "seed": record["seed"],
        "work_unit": record["work_unit"],
        "result_digest": record["result_digest"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "fail_share": record["failed"] / record["attempted"],
        "correct": record["failed"] == 0 and all(c["ok"] for c in checks),
        "checks": checks,
        "flags": ledger.host_flags(record["stamp"]),
        "stamp": record["stamp"],
        "traced": record["traced"],
        "end_to_end": {
            name: stat(values, units["end_to_end"][name])
            for name, values in samples.items()
        },
        "per_layer": {
            name: {"value": value, "unit": units["per_layer"][name]}
            for name, value in sorted(record["per_layer"].items())
        },
    }


def summarize(records: Sequence[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    order = [workload["name"] for workload in spec["workloads"]]
    return {
        "harness_version": ledger.HARNESS_VERSION,
        "workloads": {
            record["workload"]: summarize_record(record, spec)
            for record in sorted(
                records, key=lambda record: order.index(record["workload"])
            )
        },
    }


def rows(summary: Dict[str, Any]):
    """The summary as flat rows: one per workload x metric."""
    for workload, entry in summary["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for name, metric in entry[kind].items():
                yield {
                    "workload": workload, "kind": kind, "metric": name,
                    "unit": metric["unit"], "value": metric["value"],
                    "min": metric.get("min"), "max": metric.get("max"),
                    "n": metric.get("n"), "spread": metric.get("spread"),
                }


def tabulate(out: Path, spec: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Read ``out/raw``; write and return the summary."""
    summary = summarize(load_raw(out / "raw"), spec or ledger.load_spec())
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    with open(out / "summary.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=[
            "workload", "kind", "metric", "unit", "value", "min", "max", "n",
            "spread",
        ])
        writer.writeheader()
        writer.writerows(rows(summary))
    return summary


if __name__ == "__main__":
    tabulate(Path(sys.argv[1]) if len(sys.argv) > 1 else ledger.HERE / "out")
