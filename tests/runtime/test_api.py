"""The redesigned surface: map + wrappers, no deprecated shims, stats export."""

import warnings

import pytest

from repro.runtime import Experiment, ExperimentStats, Plan
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig

FAST = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=3_000, drain_cycles=1_000
)


def config(load=0.1, seed=3, **overrides):
    defaults = dict(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        injection_fraction=load, seed=seed,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestMap:
    def test_returns_results_in_input_order(self):
        configs = [config(0.2), config(0.05), config(0.2)]
        results = Experiment(FAST).map(configs)
        assert len(results) == 3
        assert results[0] == results[2]  # identical configs share a run
        assert results[0] != results[1]

    def test_per_call_plan_overrides_default(self):
        exp = Experiment(FAST, plan=Plan(chunk_size=4))
        exp.map([config(load) for load in (0.05, 0.1, 0.15)],
                plan=Plan(chunk_size=1))
        assert exp.stats.scheduler.chunks_completed == 3

    def test_default_plan_applies(self):
        exp = Experiment(FAST, plan=Plan(chunk_size=3))
        exp.map([config(load) for load in (0.05, 0.1, 0.15)])
        assert exp.stats.scheduler.chunks_completed == 1


class TestKeywordOnlyWrappers:
    def test_sweep_label_is_keyword_only(self):
        with pytest.raises(TypeError):
            Experiment(FAST).sweep(config(), "wh")

    def test_grid_axes_are_keyword_only(self):
        with pytest.raises(TypeError):
            Experiment(FAST).grid(config(), (0.05,))

    def test_aggregate_load_is_keyword_only(self):
        with pytest.raises(TypeError):
            Experiment(FAST).aggregate(config(), 0.1)

    def test_aggregate_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            Experiment(FAST).aggregate(config(), load=0.1, seeds=())


class TestDeprecatedShims:
    """The pre-redesign ``run_*`` surface is gone and stays gone."""

    def test_removed_surface_is_absent(self):
        for name in ("run_one", "run_many", "run_sweep", "run_sweeps",
                     "run_grid", "run_with_seeds"):
            assert not hasattr(Experiment, name), name

    def test_new_surface_is_warning_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exp = Experiment(FAST)
            exp.point(config())
            exp.sweep(config(), label="wh", loads=(0.05,))
            exp.grid(config(), loads=(0.05,))


class TestStatsExport:
    def test_real_batch_populates_scheduler_stats(self, tmp_path):
        exp = Experiment(FAST, cache=tmp_path)
        exp.map([config(load) for load in (0.05, 0.1, 0.15)])
        scheduler = exp.stats.scheduler
        assert scheduler.jobs_completed == 3
        assert scheduler.chunks_completed >= 1
        assert scheduler.dispatch_seconds > 0
        # Every streamed point recorded its cache-write lag.
        assert scheduler.stream_lag_count == 3
        assert exp.stats.mean_worker_utilization > 0
        assert sum(scheduler.worker_busy_seconds.values()) > 0

    def test_steals_property_mirrors_scheduler(self):
        stats = ExperimentStats()
        stats.scheduler.steals = 7
        assert stats.steals == 7
