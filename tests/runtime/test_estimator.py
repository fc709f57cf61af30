"""The hybrid serving path: Estimator.query sources, refinement, telemetry."""

import math

import pytest

from repro.runtime import Estimator, Experiment, config_key
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.surrogate import SurrogateCoefficients, Calibration, calibrate, Observation

FAST = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=3_000, drain_cycles=1_000
)

pytestmark = pytest.mark.sim


def config(load=0.1, seed=3, **overrides):
    defaults = dict(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        injection_fraction=load, seed=seed,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


@pytest.fixture
def estimator(tmp_path):
    instance = Estimator(FAST, cache=tmp_path / "cache")
    yield instance
    instance.close()


class TestQuerySources:
    def test_cold_query_answers_from_surrogate(self, estimator):
        answer = estimator.query(config(), refine=False)
        assert answer.source == "surrogate"
        assert answer.estimate is not None
        assert answer.result is None
        assert math.isfinite(answer.latency_cycles)
        # Nothing simulated: the front experiment never executed.
        assert estimator.experiment.stats.points_executed == 0

    def test_surrogate_answer_is_instant_and_pure(self, estimator):
        first = estimator.query(config(), refine=False)
        second = estimator.query(config(), refine=False)
        assert first.latency_cycles == second.latency_cycles
        assert first.source == second.source == "surrogate"

    def test_wait_forces_simulation(self, estimator):
        answer = estimator.query(config(), wait=True)
        assert answer.source == "simulated"
        assert answer.result is not None
        assert answer.error_estimate == 0.0

    def test_cache_hit_answers_cached(self, estimator):
        estimator.query(config(), wait=True)
        answer = estimator.query(config())
        assert answer.source == "cached"
        assert answer.result is not None
        assert answer.result.source == "cached"
        assert answer.error_estimate == 0.0

    def test_load_override(self, estimator):
        answer = estimator.query(config(0.1), 0.3, refine=False)
        assert answer.load == pytest.approx(0.3)
        assert answer.config.injection_fraction == pytest.approx(0.3)

    def test_invalid_config_rejected(self, estimator):
        with pytest.raises(ValueError):
            estimator.query(config(), 1.5)


class TestRefinement:
    def test_refinement_lands_in_shared_cache(self, estimator):
        answer = estimator.query(config())
        assert answer.source == "surrogate"
        assert answer.refinement_scheduled
        assert estimator.drain(timeout=60)
        # The refined simulation is now in the cache: the same query
        # upgrades to a measured answer without simulating again.
        upgraded = estimator.query(config())
        assert upgraded.source == "cached"
        key = config_key(config(), FAST)
        assert estimator.experiment.cache.get(key) is not None

    def test_refinement_deduplicates(self, estimator):
        first = estimator.query(config())
        again = estimator.query(config())
        assert first.refinement_scheduled
        assert not again.refinement_scheduled  # same key, already queued
        assert estimator.drain(timeout=60)

    def test_refine_disabled_schedules_nothing(self, tmp_path):
        with Estimator(
            FAST, cache=tmp_path / "cache", refine=False
        ) as instance:
            answer = instance.query(config())
            assert answer.source == "surrogate"
            assert not answer.refinement_scheduled
            assert instance.backlog == 0

    def test_observed_error_recorded_after_refinement(self, estimator):
        estimator.query(config())
        assert estimator.drain(timeout=60)
        counters = estimator.counters()
        assert counters["estimator_refinements_completed"] == 1
        assert "estimator_observed_max_rel_error" in counters

    def test_failed_refinement_is_counted_and_drains(self, tmp_path):
        class Unplugged:
            name = "unplugged"

            def execute(self, jobs, on_result):
                raise OSError("worker host unplugged")

        with Estimator(
            FAST, cache=tmp_path / "cache", backend=Unplugged()
        ) as instance:
            assert instance.query(config()).refinement_scheduled
            assert instance.drain(timeout=60)
            assert instance.backlog == 0
            counters = instance.counters()
            assert counters["estimator_refinements_failed"] == 1
            assert "estimator_refinements_completed" not in counters
            assert "1 refinements failed" in instance.summary()
            assert "OSError: worker host unplugged" in instance.summary()

    def test_serving_state_stays_bounded(self, estimator):
        # Three scored refinements: the summary reads as it always did
        # (max and count), from a running max rather than a list that
        # grows under the serving lock; and a landed refinement's key
        # leaves the dedup set -- the cache answers it from now on.
        for load in (0.1, 0.2, 0.3):
            assert estimator.query(config(load)).refinement_scheduled
        assert estimator.drain(timeout=120)
        worst = estimator.registry.get("estimator_observed_max_rel_error")
        assert worst.samples == 3
        assert worst.value == worst.maximum
        assert (
            f"{worst.value:.1%} max observed error over 3 refinements"
            in estimator.summary()
        )
        assert estimator._scheduled_keys == set()
        assert not hasattr(estimator, "_observed_errors")
        for load in (0.1, 0.2, 0.3):
            assert estimator.query(config(load)).source == "cached"

    def test_failed_refinement_keeps_its_key(self, tmp_path):
        # A poisoned point must not be re-simulated on every query.
        class Unplugged:
            name = "unplugged"

            def execute(self, jobs, on_result):
                raise OSError("worker host unplugged")

        with Estimator(
            FAST, cache=tmp_path / "cache", backend=Unplugged()
        ) as instance:
            assert instance.query(config()).refinement_scheduled
            assert instance.drain(timeout=60)
            assert instance._scheduled_keys == {config_key(config(), FAST)}
            assert not instance.query(config()).refinement_scheduled
            assert instance.counters()["estimator_refinements_failed"] == 1

    def test_close_is_idempotent(self, estimator):
        estimator.query(config())
        estimator.close()
        estimator.close()


class TestCalibrationIntegration:
    def test_calibrated_answers_carry_error_estimate(self, tmp_path):
        observations = [
            Observation(config=config(load), load=load, latency_cycles=latency)
            for load, latency in [(0.05, 20.0), (0.2, 24.0), (0.35, 33.0)]
        ]
        calibration = calibrate(observations)
        with Estimator(
            FAST, cache=tmp_path / "cache",
            calibration=calibration, refine=False,
        ) as instance:
            answer = instance.query(config(0.2))
            assert answer.source == "surrogate"
            assert answer.error_estimate is not None
            assert answer.error_estimate <= 0.15

    def test_uncalibrated_answers_say_so(self, estimator):
        answer = estimator.query(config(), refine=False)
        assert answer.error_estimate is None
        assert "uncalibrated" in answer.describe()


class TestTelemetry:
    def test_counters_track_sources(self, estimator):
        estimator.query(config(0.1), refine=False)    # surrogate
        estimator.query(config(0.2), wait=True)       # simulated
        estimator.query(config(0.2))                  # cached
        counters = estimator.counters()
        assert counters["estimator_queries"] == 3
        assert counters["estimator_answers{source=surrogate}"] == 1
        assert counters["estimator_answers{source=simulated}"] == 1
        assert counters["estimator_answers{source=cached}"] == 1

    def test_counters_appear_when_they_first_fire(self, estimator):
        assert estimator.counters() == {}
        estimator.query(config(), refine=False)
        assert estimator.counters() == {
            "estimator_queries": 1,
            "estimator_answers{source=surrogate}": 1,
        }

    def test_summary_renders(self, estimator):
        estimator.query(config(), refine=False)
        text = estimator.summary()
        assert "1 queries" in text
        assert "surrogate hit rate" in text
        assert "backlog" in text

    def test_answer_to_dict_is_json_shaped(self, estimator):
        import json

        answer = estimator.query(config(), refine=False)
        payload = json.loads(json.dumps(answer.to_dict()))
        assert payload["source"] == "surrogate"
        assert payload["estimate"]["breakdown"]


class TestRunResultProvenance:
    def test_engine_stamps_simulated(self):
        from repro.sim.engine import simulate

        result = simulate(config(), FAST)
        assert result.source == "simulated"

    def test_cache_replay_stamps_cached(self, tmp_path):
        experiment = Experiment(FAST, cache=tmp_path / "cache")
        fresh = experiment.point(config())
        assert fresh.source == "simulated"
        replayed = Experiment(
            FAST, cache=tmp_path / "cache"
        ).point(config())
        assert replayed.source == "cached"
        # Provenance never affects equality: the differential oracles
        # (cached_vs_uncached) compare results across sources.
        assert replayed == fresh

    def test_stats_tally_sources(self, tmp_path):
        experiment = Experiment(FAST, cache=tmp_path / "cache")
        experiment.point(config())
        experiment.point(config())
        assert experiment.stats.sources == {"simulated": 1, "cached": 1}
        assert "1 cached, 1 simulated" in experiment.stats.describe_sources()

    def test_round_trip_and_legacy_entries(self):
        from repro.sim.engine import simulate
        from repro.sim.metrics import RunResult

        result = simulate(config(), FAST)
        payload = result.to_dict()
        assert payload["source"] == "simulated"
        assert RunResult.from_dict(payload) == result
        # Cache entries written before the field existed deserialize
        # with source=None.
        payload.pop("source")
        legacy = RunResult.from_dict(payload)
        assert legacy.source is None
        assert legacy == result


class TestServingCost:
    @pytest.mark.perf
    def test_query_costs_a_small_multiple_of_its_model(self, tmp_path):
        """A surrogate answer is validate + key + cache probe + class
        look-up around one ``estimate()``: at most 5x the bare model
        with the same coefficients (measured ~4x; 6.2-7.2x before the
        serving-path diet).  A ratio of two timings taken in one
        process in alternating rounds, so it does not depend on the
        host's speed; best-of-rounds on each side drops the bursts."""
        import time

        from repro.surrogate import estimate

        observations = [
            Observation(config=config(load), load=load, latency_cycles=latency)
            for load, latency in [(0.05, 20.0), (0.2, 24.0), (0.35, 33.0)]
        ]
        calibration = calibrate(observations)
        queries = [config(0.05 + 0.001 * step) for step in range(300)]
        coefficients = calibration.for_config(queries[0])

        def seconds(call):
            started = time.perf_counter()
            for query in queries:
                call(query)
            return time.perf_counter() - started

        with Estimator(
            FAST, cache=tmp_path / "cache",
            calibration=calibration, refine=False,
        ) as instance:
            served = lambda query: instance.query(query)
            modelled = lambda query: estimate(query, coefficients=coefficients)
            assert served(queries[0]).estimate == modelled(queries[0])
            serving, model = [], []
            for _ in range(15):
                serving.append(seconds(served))
                model.append(seconds(modelled))
        ratio = min(serving) / min(model)
        assert ratio <= 5.0, f"query/estimate wall-time ratio {ratio:.2f}"
