"""Tests for the figure-reproduction drivers.

The delay-model figures (Table 1, Fig 11, Fig 12, Fig 16) run in full;
the simulation figures run at miniature scale here (their full paper-
shape assertions live in tests/experiments/test_shape.py, marked slow).
"""

import pytest

from repro.delaymodel.modules import RoutingRange
from repro.experiments import figures
from repro.sim.config import MeasurementConfig


TINY = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=4_000, drain_cycles=2_000
)


class TestTable1Driver:
    def test_rows_present(self):
        assert len(figures.table1()) == 11

    def test_render(self):
        assert "switch arbiter" in figures.render_table1_report()


class TestFig11:
    def test_structure(self):
        result = figures.fig11()
        assert len(result.nonspeculative) == 10  # 2 p values x 5 v values
        assert len(result.speculative) == 10
        assert result.wormhole.stages == 3

    def test_paper_claims(self):
        result = figures.fig11()
        nonspec = {(b.p, b.v): b.stages for b in result.nonspeculative}
        spec = {(b.p, b.v): b.stages for b in result.speculative}
        for p in (5, 7):
            for v in (2, 4, 8):
                assert nonspec[(p, v)] == 4
            assert nonspec[(p, 16)] == 5
            for v in (2, 4, 8, 16):
                assert spec[(p, v)] == 3
            assert spec[(p, 32)] == 4

    def test_render(self):
        text = figures.fig11().render()
        assert "wormhole reference: 3 stages" in text
        assert "2vcs,5pcs" in text


class TestFig12:
    def test_all_series_present(self):
        result = figures.fig12()
        for rng in RoutingRange:
            series = result.series(rng)
            assert len(series) == 10
            assert all(d > 0 for d in series)

    def test_reference_value(self):
        result = figures.fig12()
        assert result.delays_tau4[("Rv", 5, 2)] == pytest.approx(14.7, abs=0.1)

    def test_rpv_dominates(self):
        result = figures.fig12()
        rv = result.series(RoutingRange.RV)
        rpv = result.series(RoutingRange.RPV)
        assert all(a <= b + 1e-9 for a, b in zip(rv, rpv))

    def test_within_figure_axis(self):
        # Figure 12's y axis tops out at 40 tau4.
        result = figures.fig12()
        assert max(result.series(RoutingRange.RPV)) < 40.0

    def test_render(self):
        assert "R:pv" in figures.fig12().render()


class TestFig16:
    def test_turnarounds_in_text(self):
        text = figures.fig16()
        assert "turnaround 4 cycles" in text
        assert "turnaround 5 cycles" in text
        assert "turnaround 2 cycles" in text
        assert "turnaround 7 cycles" in text


class TestSimFiguresSmoke:
    """Miniature-scale smoke runs of the simulation figures."""

    def test_fig13_runs_and_orders_zero_load(self):
        result = figures.fig13(measurement=TINY, loads=(0.05,))
        rendered = result.render()
        assert "WH (8 bufs)" in rendered
        by_label = {spec.label: curve for spec, curve in result.curves}
        wh = by_label["WH (8 bufs)"].zero_load_latency()
        vc = by_label["VC (2vcsX4bufs)"].zero_load_latency()
        spec_vc = by_label["specVC (2vcsX4bufs)"].zero_load_latency()
        assert wh < vc
        assert abs(spec_vc - wh) < 2.0

    def test_fig17_unit_latency_faster(self):
        result = figures.fig17(measurement=TINY, loads=(0.05,))
        by_label = {spec.label: curve for spec, curve in result.curves}
        single = by_label["VC single-cycle (2vcsX4bufs)"].zero_load_latency()
        pipelined = by_label["VC (2vcsX4bufs)"].zero_load_latency()
        assert single < 0.6 * pipelined

    def test_fig18_runs(self):
        result = figures.fig18(measurement=TINY, loads=(0.05,))
        assert len(result.curves) == 2
        assert "credit" in result.render()

    def test_rescaled_experiment_keeps_its_backend_and_modes(self):
        """A ``measurement=`` that differs from the passed experiment's
        changes the scale only: the points still run on its backend,
        checked, with telemetry, and land in its stats."""
        from repro.runtime import Experiment, SerialBackend

        class Recording(SerialBackend):
            batches = 0

            def execute(self, jobs, on_result):
                self.batches += 1
                super().execute(jobs, on_result)

        experiment = Experiment(
            backend=Recording(), checked=True, telemetry=True,
        )
        result = figures.fig13(
            measurement=TINY, loads=(0.05,), experiment=experiment
        )
        points = [p for _, curve in result.curves for p in curve.points]
        assert experiment.backend.batches > 0
        assert experiment.stats.points_executed == 3
        assert experiment.stats.scheduler.chunks_completed == 3
        assert all(p.validation["ok"] for p in points)
        assert all(p.telemetry is not None for p in points)
        assert all(p.sample_packets < 2 * TINY.sample_packets for p in points)

    def test_paper_references_attached(self):
        result = figures.fig14(measurement=TINY, loads=(0.05,))
        references = [spec.paper_saturation for spec, _ in result.curves]
        assert references == [0.50, 0.65, 0.70]
