"""Tests for CSV/JSON export of experiment results."""

import csv
import json
from dataclasses import replace

import pytest

from repro.experiments import figures
from repro.experiments.catalog import get_row, run
from repro.experiments.export import (
    fig11_to_csv,
    fig12_to_csv,
    figure_to_csv,
    results_to_json,
    sweep_to_csv,
)
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig
from repro.sim.metrics import LatencyStats, RunResult, SweepResult

TINY = MeasurementConfig(
    warmup_cycles=50, sample_packets=50, max_cycles=3_000, drain_cycles=1_500
)


def make_run(load, latency, saturated=False):
    stats = None
    if latency is not None:
        stats = LatencyStats.from_latencies([latency])
    return RunResult(
        injection_fraction=load, latency=stats, accepted_fraction=load,
        saturated=saturated, cycles_simulated=100, sample_packets=10,
    )


def make_sweep():
    return SweepResult("demo", [make_run(0.1, 30), make_run(0.5, None, True)])


class TestSweepCSV:
    def test_rows_and_header(self, tmp_path):
        path = sweep_to_csv([make_sweep()], tmp_path / "curve.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["curve"] == "demo"
        assert rows[0]["avg_latency_cycles"] == "30.0"
        assert rows[1]["saturated"] == "True"
        assert rows[1]["avg_latency_cycles"] == ""  # inf -> blank

    def test_rows_sorted_by_load(self, tmp_path):
        sweep = SweepResult("s", [make_run(0.5, 50), make_run(0.1, 30)])
        path = sweep_to_csv([sweep], tmp_path / "curve.csv")
        with path.open() as handle:
            loads = [float(r["offered_fraction"]) for r in csv.DictReader(handle)]
        assert loads == sorted(loads)


class TestFigureExports:
    def test_fig11_csv(self, tmp_path):
        path = fig11_to_csv(figures.fig11(), tmp_path / "fig11.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["router", "p", "v", "stages", "stage_occupancies"]
        assert len(rows) == 1 + 1 + 10 + 10  # header + wormhole + 2x10 bars

    def test_fig12_csv(self, tmp_path):
        path = fig12_to_csv(figures.fig12(), tmp_path / "fig12.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 30  # 3 ranges x 2 p x 5 v
        assert {r["routing_range"] for r in rows} == {"Rv", "Rp", "Rpv"}

    def test_sim_figure_csv(self, tmp_path):
        figure = figures.fig13(loads=(0.05,), experiment=Experiment(TINY))
        path = figure_to_csv(figure, tmp_path / "fig13.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3  # three curves, one load each


class TestJSON:
    def test_sweep_json(self, tmp_path):
        path = results_to_json(make_sweep(), tmp_path / "sweep.json")
        data = json.loads(path.read_text())
        assert data["label"] == "demo"
        assert len(data["points"]) == 2

    def test_fig11_json(self, tmp_path):
        data = json.loads(
            results_to_json(figures.fig11(), tmp_path / "f.json").read_text()
        )
        assert data["wormhole_stages"] == 3
        assert data["speculative"]["2vcs,5pcs"] == 3

    def test_fig12_json(self, tmp_path):
        data = json.loads(
            results_to_json(figures.fig12(), tmp_path / "f.json").read_text()
        )
        assert data["Rv,p=5,v=2"] == pytest.approx(14.7, abs=0.05)

    def test_sim_figure_json(self, tmp_path):
        row = replace(get_row("fig18"), loads=(0.05,))
        figure = run([row], Experiment(TINY))["fig18"]
        data = json.loads(
            results_to_json(figure, tmp_path / "f.json").read_text()
        )
        assert len(data["curves"]) == 2
        assert data["curves"][0]["paper_saturation"] == 0.55

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            results_to_json(object(), tmp_path / "x.json")
