"""Export experiment results to CSV and JSON.

The figure functions and catalog rows return structured Python objects;
downstream users plotting with their own tools want flat files.  These
writers cover the three result shapes:

* :func:`sweep_to_csv` / :func:`figure_to_csv` -- latency-throughput
  curves (a catalog row's result, e.g. Figures 13-15, 17, 18), one row
  per (curve, load) point;
* :func:`fig11_to_csv` -- pipeline stage maps;
* :func:`fig12_to_csv` -- the allocation-delay surface;
* :func:`results_to_json` -- any of the above, losslessly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List, Union

from ..sim.metrics import RunResult, SweepResult
from .catalog import RowResult
from .figures import Fig11Result, Fig12Result

PathLike = Union[str, Path]


def _run_row(label: str, run: RunResult) -> dict:
    return {
        "curve": label,
        "offered_fraction": run.injection_fraction,
        "avg_latency_cycles": (
            "" if math.isinf(run.average_latency) else round(run.average_latency, 3)
        ),
        "accepted_fraction": round(run.accepted_fraction, 4),
        "saturated": run.saturated,
        "sample_packets": run.sample_packets,
        "cycles_simulated": run.cycles_simulated,
    }


_SWEEP_FIELDS = [
    "curve", "offered_fraction", "avg_latency_cycles", "accepted_fraction",
    "saturated", "sample_packets", "cycles_simulated",
]


def sweep_to_csv(curves: List[SweepResult], path: PathLike) -> Path:
    """Write latency-throughput curves as CSV; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_SWEEP_FIELDS)
        writer.writeheader()
        for curve in curves:
            for run in sorted(curve.points, key=lambda r: r.injection_fraction):
                writer.writerow(_run_row(curve.label, run))
    return path


def figure_to_csv(figure: RowResult, path: PathLike) -> Path:
    """Write one catalog row's curves as CSV."""
    return sweep_to_csv([curve for _, curve in figure.curves], path)


def fig11_to_csv(result: Fig11Result, path: PathLike) -> Path:
    """Write the Figure 11 pipeline maps as CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["router", "p", "v", "stages", "stage_occupancies"]
        )
        writer.writerow(
            ["wormhole", result.wormhole.p, result.wormhole.v,
             result.wormhole.stages,
             "|".join(f"{f:.3f}" for f in result.wormhole.design.stage_occupancies())]
        )
        for kind, bars in (
            ("nonspeculative_vc", result.nonspeculative),
            ("speculative_vc", result.speculative),
        ):
            for bar in bars:
                writer.writerow(
                    [kind, bar.p, bar.v, bar.stages,
                     "|".join(f"{f:.3f}" for f in bar.design.stage_occupancies())]
                )
    return path


def fig12_to_csv(result: Fig12Result, path: PathLike) -> Path:
    """Write the Figure 12 delay surface as CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["routing_range", "p", "v", "delay_tau4"])
        for (rng, p, v), delay in sorted(result.delays_tau4.items()):
            writer.writerow([rng, p, v, round(delay, 3)])
    return path


def results_to_json(result, path: PathLike) -> Path:
    """Serialise any figure/sweep result to JSON."""
    path = Path(path)
    path.write_text(json.dumps(_jsonable(result), indent=2) + "\n")
    return path


def _jsonable(value):
    """Recursively convert result objects to JSON-safe structures."""
    if isinstance(value, RowResult):
        return {
            "figure": value.row.title,
            "curves": [
                {
                    "label": spec.label,
                    "paper_zero_load": spec.paper_zero_load,
                    "paper_saturation": spec.paper_saturation,
                    "points": [_run_row(spec.label, r) for r in curve.points],
                }
                for spec, curve in value.curves
            ],
        }
    if isinstance(value, SweepResult):
        return {
            "label": value.label,
            "points": [_run_row(value.label, r) for r in value.points],
        }
    if isinstance(value, Fig12Result):
        return {
            f"{rng},p={p},v={v}": round(delay, 3)
            for (rng, p, v), delay in sorted(value.delays_tau4.items())
        }
    if isinstance(value, Fig11Result):
        return {
            "wormhole_stages": value.wormhole.stages,
            "nonspeculative": {
                bar.label: bar.stages for bar in value.nonspeculative
            },
            "speculative": {bar.label: bar.stages for bar in value.speculative},
        }
    raise TypeError(f"cannot serialise {type(value).__name__} to JSON")
