"""The Experiment façade: API, validation, caching, parallel equivalence."""

import math

import pytest

from repro.runtime import Experiment, NullProgress, ResultCache
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import simulate

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


class TestRunOne:
    def test_matches_legacy_simulate(self):
        assert Experiment(FAST).point(config()) == simulate(config(), FAST)

    def test_validates_at_entry(self):
        bad = config()
        bad.injection_fraction = 1.5  # mutate past construction checks
        with pytest.raises(ValueError, match="injection_fraction"):
            Experiment(FAST).point(bad)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            Experiment(FAST, workers=-1)


class TestValidate:
    def test_zero_injection_rejected(self):
        cfg = config()
        cfg.injection_fraction = 0.0
        with pytest.raises(ValueError, match="injection_fraction"):
            cfg.validate()

    def test_vct_needs_deep_buffers(self):
        cfg = config(
            router_kind=RouterKind.VIRTUAL_CUT_THROUGH, buffers_per_vc=2
        )
        with pytest.raises(ValueError, match="cut-through"):
            cfg.validate()

    def test_unarbitrable_vc_count(self):
        cfg = config(router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2)
        cfg.num_vcs = 128  # past construction, beyond the allocator model
        with pytest.raises(ValueError, match="num_vcs"):
            cfg.validate()

    def test_mutated_construction_field_caught(self):
        cfg = config()
        cfg.mesh_radix = 0
        with pytest.raises(ValueError, match="radix"):
            cfg.validate()

    def test_good_config_chains(self):
        cfg = config()
        assert cfg.validate() is cfg


class TestCaching:
    def test_second_call_hits_cache(self, tmp_path):
        exp = Experiment(FAST, cache=tmp_path)
        first = exp.point(config())
        second = exp.point(config())
        assert first == second
        assert exp.cache.hits == 1
        assert exp.stats.points_executed == 1
        assert exp.stats.cache_hits == 1

    def test_cache_shared_across_experiments(self, tmp_path):
        Experiment(FAST, cache=tmp_path).point(config())
        exp = Experiment(FAST, cache=tmp_path)
        exp.point(config())
        assert exp.stats.points_executed == 0
        assert exp.stats.cache_hits == 1

    def test_different_measurement_misses(self, tmp_path):
        Experiment(FAST, cache=tmp_path).point(config())
        other = MeasurementConfig(
            warmup_cycles=60, sample_packets=60, max_cycles=3_000,
            drain_cycles=1_000,
        )
        exp = Experiment(other, cache=tmp_path)
        exp.point(config())
        assert exp.stats.points_executed == 1

    def test_duplicate_points_execute_once(self, tmp_path):
        exp = Experiment(FAST, cache=tmp_path)
        results = exp.map([config(), config(), config(0.2)])
        assert results[0] == results[1]
        assert exp.stats.points_executed == 2
        assert exp.stats.deduplicated == 1

    def test_cache_accepts_resultcache_instance(self, tmp_path):
        store = ResultCache(tmp_path)
        exp = Experiment(FAST, cache=store)
        assert exp.cache is store


class TestSpecializationStats:
    def test_envelope_aggregates_over_executed_points(self):
        exp = Experiment(FAST)
        exp.map([config(), config(0.2)])
        # Two 4x4-mesh points, every router on the compiled fast path.
        assert exp.stats.routers_specialized == 32
        assert exp.stats.routers_generic == 0
        assert exp.stats.generic_step_reasons == {}
        assert "32 routers specialized" in exp.stats.describe_specialization()

    def test_checked_points_run_the_compiled_step(self):
        exp = Experiment(FAST, checked=True)
        exp.point(config())
        assert exp.stats.routers_specialized == 16
        assert exp.stats.routers_generic == 0
        assert exp.stats.generic_step_reasons == {}
        text = exp.stats.describe_specialization()
        assert "16 routers specialized" in text
        assert "generic" not in text


class TestSweep:
    def test_stops_after_saturation_serial(self):
        saturating = MeasurementConfig(
            warmup_cycles=100, sample_packets=2_000, max_cycles=1_000,
            drain_cycles=100,
        )
        curve = Experiment(saturating).sweep(
            config(), label="wh", loads=(0.9, 0.95, 1.0)
        )
        assert len(curve.points) == 1
        assert curve.points[0].saturated

    def test_truncates_after_saturation_parallel(self):
        saturating = MeasurementConfig(
            warmup_cycles=100, sample_packets=2_000, max_cycles=1_000,
            drain_cycles=100,
        )
        curve = Experiment(saturating, workers=2).sweep(
            config(), label="wh", loads=(0.9, 0.95, 1.0)
        )
        assert len(curve.points) == 1
        assert curve.points[0].saturated

    def test_run_sweeps_batches_curves(self):
        curves = Experiment(FAST).sweeps(
            [("a", config(seed=1)), ("b", config(seed=2))],
            loads=(0.05, 0.2),
        )
        assert [c.label for c in curves] == ["a", "b"]
        assert all(len(c.points) == 2 for c in curves)


class TestGrid:
    def test_grid_shape_and_order(self):
        grid = Experiment(FAST).grid(
            config(), loads=(0.2, 0.05), seeds=(1, 2)
        )
        axes = [
            (p.config.injection_fraction, p.config.seed) for p in grid
        ]
        assert axes == [(0.05, 1), (0.05, 2), (0.2, 1), (0.2, 2)]

    def test_parallel_grid_bit_identical_to_serial(self):
        loads = (0.05, 0.15, 0.25)
        seeds = (1, 2)
        serial = Experiment(FAST, workers=0).grid(
            config(), loads=loads, seeds=seeds
        )
        parallel = Experiment(FAST, workers=2).grid(
            config(), loads=loads, seeds=seeds
        )
        assert serial.results == parallel.results
        for a, b in zip(serial.results, parallel.results):
            assert a.counters == b.counters
            assert a.average_latency == b.average_latency

    def test_grid_defaults_keep_config_axes(self):
        grid = Experiment(FAST).grid(config(load=0.15, seed=7))
        assert len(grid) == 1
        assert grid.points[0].config.injection_fraction == 0.15
        assert grid.points[0].config.seed == 7

    def test_grid_curve_extraction(self):
        grid = Experiment(FAST).grid(config(), loads=(0.05, 0.2))
        curve = grid.curve("wh")
        assert len(curve.points) == 2
        assert math.isfinite(curve.zero_load_latency())

    def test_run_with_seeds_aggregates(self):
        aggregate = Experiment(FAST).aggregate(
            config(), load=0.1, seeds=(1, 2)
        )
        assert len(aggregate.runs) == 2
        assert aggregate.injection_fraction == 0.1


class TestProgress:
    def test_hooks_fire_with_cache_flags(self, tmp_path):
        events = []

        class Recorder(NullProgress):
            def on_batch_start(self, total):
                events.append(("start", total))

            def on_point_done(self, index, total, cfg, result, cached):
                events.append(("done", index, cached))

            def on_batch_done(self, total):
                events.append(("end", total))

        exp = Experiment(FAST, cache=tmp_path, progress=Recorder())
        exp.map([config(), config(0.2)])
        exp.map([config(), config(0.2)])

        starts = [e for e in events if e[0] == "start"]
        dones = [e for e in events if e[0] == "done"]
        assert starts == [("start", 2), ("start", 2)]
        assert [cached for _, _, cached in dones[:2]] == [False, False]
        assert [cached for _, _, cached in dones[2:]] == [True, True]
