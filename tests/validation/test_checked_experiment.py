"""Checked mode through the Experiment runtime and its environment."""

import pytest

from repro.runtime.experiment import Experiment
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig

pytestmark = pytest.mark.sim

MEAS = MeasurementConfig(
    warmup_cycles=80, sample_packets=60, max_cycles=10_000,
    drain_cycles=5_000,
)
CONFIG = SimConfig(
    router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
    buffers_per_vc=4, injection_fraction=0.2, seed=3,
)


class TestExperimentChecked:
    def test_run_one_carries_validation_summary(self):
        result = Experiment(MEAS, checked=True).point(CONFIG)
        assert result.validation is not None
        assert result.validation["ok"]

    def test_unchecked_by_default(self):
        assert Experiment(MEAS).point(CONFIG).validation is None

    def test_parallel_checked_matches_serial(self):
        serial = Experiment(MEAS, workers=0, checked=True).sweep(
            CONFIG, label="serial", loads=(0.1, 0.2)
        )
        parallel = Experiment(MEAS, workers=2, checked=True).sweep(
            CONFIG, label="parallel", loads=(0.1, 0.2)
        )
        assert serial.points == parallel.points
        assert all(p.validation["ok"] for p in parallel.points)

    def test_checked_runs_bypass_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        checked = Experiment(MEAS, cache=cache_dir, checked=True)
        checked.point(CONFIG)
        checked.point(CONFIG)
        # Neither read nor wrote: the next unchecked experiment misses.
        assert checked.stats.cache_hits == 0
        unchecked = Experiment(MEAS, cache=cache_dir)
        unchecked.point(CONFIG)
        assert unchecked.stats.cache_hits == 0
        again = Experiment(MEAS, cache=cache_dir)
        result = again.point(CONFIG)
        assert again.stats.cache_hits == 1
        assert result.validation is None

    def test_env_var_enables_checked(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKED", "1")
        assert Experiment(MEAS).checked
        monkeypatch.setenv("REPRO_CHECKED", "0")
        assert not Experiment(MEAS).checked
        monkeypatch.delenv("REPRO_CHECKED")
        assert not Experiment(MEAS).checked

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKED", "1")
        assert not Experiment(MEAS, checked=False).checked
