"""Shared helpers for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper and

* times the regeneration via pytest-benchmark,
* attaches the headline numbers to ``benchmark.extra_info``,
* writes the rendered text to ``benchmarks/results/<name>.txt``.

Scale: the simulation figures default to reduced sample sizes so the
whole harness finishes in minutes.  Set ``REPRO_BENCH_SCALE=paper`` to
run the paper's full 10k-warm-up / 100k-packet methodology (hours).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.catalog import Row, RowResult, get_row, run
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig, paper_scale

RESULTS_DIR = Path(__file__).parent / "results"

#: Offered loads for the latency-throughput benches: zero-load anchor,
#: mid-load, and points bracketing the paper's saturation values.
BENCH_LOADS = (0.05, 0.30, 0.45, 0.55)
BENCH_LOADS_HIGH = (0.05, 0.35, 0.60, 0.66, 0.72)   # 16-buffer configurations


def bench_measurement() -> MeasurementConfig:
    """Measurement scale for the simulation benches."""
    if os.environ.get("REPRO_BENCH_SCALE") == "paper":
        return paper_scale()
    return MeasurementConfig(
        warmup_cycles=400,
        sample_packets=700,
        max_cycles=20_000,
        drain_cycles=5_000,
    )


def narrowed(name: str, **changes) -> Row:
    """Catalog row ``name`` with ``changes`` (loads, curves) applied."""
    return replace(get_row(name), **changes)


def run_rows(*rows: Row) -> Dict[str, RowResult]:
    """Run catalog rows through one Experiment at bench scale."""
    return run(rows, Experiment.from_env(bench_measurement()))


def run_row(name: str, **changes) -> RowResult:
    """Catalog row ``name``, narrowed by ``changes``, run at bench scale."""
    return run_rows(narrowed(name, **changes))[name]


@pytest.fixture
def record_result():
    """Write a rendered figure to benchmarks/results/<name>.txt."""

    def write(name: str, text: str) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return write


def attach_curves(benchmark, result) -> None:
    """Store zero-load latency and saturation of each curve in extra_info."""
    from repro.experiments.sweep import find_saturation

    for spec, curve in result.curves:
        zero_load = curve.zero_load_latency()
        benchmark.extra_info[f"{spec.label} zero-load"] = round(zero_load, 2)
        benchmark.extra_info[f"{spec.label} saturation"] = round(
            find_saturation(curve), 3
        )
        if spec.paper_zero_load is not None:
            benchmark.extra_info[f"{spec.label} paper zero-load"] = (
                spec.paper_zero_load
            )
        if spec.paper_saturation is not None:
            benchmark.extra_info[f"{spec.label} paper saturation"] = (
                spec.paper_saturation
            )
