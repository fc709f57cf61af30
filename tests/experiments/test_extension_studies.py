"""Tests for the topology and routing extension study rows."""

import math
from dataclasses import replace

import pytest

from repro.experiments.catalog import get_row, run
from repro.runtime import Experiment
from repro.sim.config import MeasurementConfig

pytestmark = pytest.mark.sim

FAST = MeasurementConfig(
    warmup_cycles=150, sample_packets=250, max_cycles=9_000,
    drain_cycles=3_000,
)


def study(name, **changes):
    """Catalog row ``name``, narrowed by ``changes``, run alone."""
    return run([replace(get_row(name), **changes)], Experiment(FAST))[name]


class TestTopologyStudy:
    def test_torus_cuts_zero_load_latency(self):
        result = study("topology", loads=(0.05,))
        mesh = result.runs["8x8 mesh (paper)"][0].average_latency
        torus = result.runs["8x8 torus (dateline VCs)"][0].average_latency
        # 5.33 -> 4.06 average hops at 4 cycles/hop: ~5 cycles saved.
        assert 3.0 < mesh - torus < 7.0

    def test_predictions_match_analysis(self):
        from repro.experiments.analysis import predicted_zero_load_latency
        from repro.sim.topology import Torus

        result = study("topology", loads=(0.05,))
        torus = result.runs["8x8 torus (dateline VCs)"][0].average_latency
        predicted = predicted_zero_load_latency(Torus(8), 3, 5)
        assert abs(torus - predicted) < 1.0


class TestO1TurnStudy:
    def test_o1turn_beats_xy_on_transpose(self):
        result = study("routing")
        xy = result.runs["xy (paper)"][0].average_latency
        o1turn = result.runs["o1turn"][0].average_latency
        assert math.isfinite(o1turn)
        assert o1turn < xy
