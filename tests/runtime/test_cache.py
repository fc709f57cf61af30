"""Cache hit/miss semantics: keying, persistence, exact round trips."""

import json
from dataclasses import replace

import pytest

from repro.runtime import Experiment
from repro.runtime.cache import ResultCache, code_fingerprint, config_key
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import simulate

FAST = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=3_000, drain_cycles=1_000
)


def base_config(**overrides):
    defaults = dict(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        injection_fraction=0.1, seed=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestConfigKey:
    def test_stable_for_equal_configs(self):
        assert config_key(base_config(), FAST) == config_key(
            base_config(), FAST
        )

    @pytest.mark.parametrize("override", [
        {"seed": 4},
        {"injection_fraction": 0.2},
        {"buffers_per_vc": 4},
        {"mesh_radix": 8},
        {"traffic_pattern": "transpose"},
        {"arbiter_kind": "round_robin"},
        {"router_kind": RouterKind.VIRTUAL_CHANNEL, "num_vcs": 2},
    ])
    def test_any_config_field_changes_key(self, override):
        assert config_key(base_config(), FAST) != config_key(
            base_config(**override), FAST
        )

    def test_measurement_changes_key(self):
        other = replace(FAST, sample_packets=61)
        assert config_key(base_config(), FAST) != config_key(
            base_config(), other
        )

    def test_code_version_changes_key(self):
        assert config_key(base_config(), FAST) != config_key(
            base_config(), FAST, code_version="something-else"
        )

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(base_config(), FAST)
        assert cache.get(key) is None
        assert cache.misses == 1

        result = simulate(base_config(), FAST)
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) == result
        assert cache.hits == 1

    def test_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = simulate(base_config(), FAST)
        key = config_key(base_config(), FAST)
        cache.put(key, result)
        restored = cache.get(key)
        assert restored == result
        assert restored.latency == result.latency
        assert restored.counters == result.counters
        assert restored.average_latency == result.average_latency

    def test_survives_process_restart(self, tmp_path):
        # A fresh ResultCache over the same directory (what a new
        # process would construct) still serves the entry.
        key = config_key(base_config(), FAST)
        result = simulate(base_config(), FAST)
        ResultCache(tmp_path).put(key, result)

        reopened = ResultCache(tmp_path)
        assert reopened.get(key) == result

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = simulate(base_config(), FAST)
        for seed in (1, 2, 3):
            cache.put(config_key(base_config(seed=seed), FAST), result)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(base_config(), FAST)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1

    @pytest.mark.parametrize("payload", [
        {"format": 1, "key": "k"},                      # no "result"
        {"format": 1, "key": "k", "result": {"injection_fraction": 0.1}},
        ["format", 1],                                  # top-level list
    ], ids=["no_result", "result_missing_fields", "top_level_list"])
    def test_wrong_shape_entry_is_a_miss_and_heals(self, tmp_path, payload):
        # Well-formed JSON of the wrong shape must read as a recorded
        # miss (not KeyError/TypeError, not a counted hit), through
        # Experiment too; the re-simulated point's put overwrites it.
        cache = ResultCache(tmp_path)
        key = config_key(base_config(), FAST)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)

        experiment = Experiment(FAST, cache=cache)
        (result,) = experiment.map([base_config()])
        assert experiment.stats.cache_hits == 0
        assert cache.get(key) == result
        assert cache.hits == 1
