"""Cache hit/miss semantics: keying, persistence, exact round trips."""

import dataclasses
import hashlib
import json
import sys
import threading
import time
from dataclasses import asdict, replace

import pytest

from repro.runtime import Experiment
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    CACHE_FORMAT,
    ResultCache,
    code_fingerprint,
    config_key,
)
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import simulate
from repro.sim.validation.proptest import generate_cases
from repro.telemetry import TelemetryConfig

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


def _jsonable(value):
    """Make dataclass-dict values canonical-JSON-safe (enums -> values)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        return value.value  # enum members
    return value


def reference_key(config, measurement=None, code_version=None):
    """The recipe every key on disk was built with (``config_key`` up to
    PR 16), kept here as the oracle: whole-dataclass ``asdict`` dumps,
    enums to values, canonical ``json.dumps``, SHA-256."""
    payload = {
        "format": CACHE_FORMAT,
        "config": _jsonable(asdict(config)),
        "measurement": _jsonable(asdict(measurement or MeasurementConfig())),
        "code": code_version if code_version is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: A VC router on a mesh, so every field has a second valid value.
VARIED_BASE = SimConfig(router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2)

#: One other valid value per config field.  A new field has no entry
#: here and fails ``test_each_field_alone_changes_the_key`` until it has
#: one -- and until ``config_key`` reads it.
OTHER_VALUE = {
    "router_kind": RouterKind.SPECULATIVE_VC,
    "mesh_radix": 4,
    "num_vcs": 3,
    "buffers_per_vc": 4,
    "packet_length": 3,
    "injection_fraction": 0.25,
    "flit_propagation": 2,
    "credit_propagation": 4,
    "credit_pipeline": 1,
    "va_extra_cycles": 1,
    "traffic_pattern": "transpose",
    "injection_process": "bursty",
    "burst_length": 4.0,
    "arbiter_kind": "round_robin",
    "allocator_kind": "maximum",
    "speculation_priority": "equal",
    "routing_function": "o1turn",
    "topology": "torus",
    "seed": 2,
    "stepper": "reference",
    "telemetry": TelemetryConfig(),
    "warmup_cycles": 51,
    "sample_packets": 61,
    "max_cycles": 3_001,
    "drain_cycles": 1_001,
}


class TestKeyIdentity:
    """``config_key`` builds its bytes field by field inside a memoised
    frame; every key must equal the whole-dataclass reference recipe."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_generated_configs_match_the_reference(self, seed):
        for case in generate_cases(seed, 200):
            assert config_key(
                case.config, case.measurement
            ) == reference_key(case.config, case.measurement), case.describe()

    @pytest.mark.parametrize("config, measurement, code_version", [
        (base_config(telemetry=TelemetryConfig()), FAST, None),
        (base_config(telemetry=TelemetryConfig(
            sample_period=8, window_cycles=64, max_windows=4,
            capture_trace=True, trace_max_events=None,
        )), FAST, "x"),
        (base_config(), MeasurementConfig(
            warmup_cycles=0, sample_packets=1, max_cycles=7, drain_cycles=0,
        ), None),
        (base_config(), None, None),
        (base_config(), None, "x"),
        (base_config(), FAST, 'a "quoted" \\ version \u00e9'),
        (base_config(credit_pipeline=2, burst_length=2.5,
                     traffic_pattern='odd "name"'), FAST, None),
        (SimConfig(injection_fraction=1e-07), FAST, None),
    ], ids=[
        "telemetry_on", "telemetry_non_default", "measurement_non_default",
        "measurement_none", "measurement_none_explicit_code",
        "code_version_needing_escapes", "non_default_scalars", "tiny_float",
    ])
    def test_corners_match_the_reference(self, config, measurement,
                                         code_version):
        assert config_key(
            config, measurement, code_version
        ) == reference_key(config, measurement, code_version)

    def test_pinned_digest(self):
        # Computed at the parent of the explicit-reads rewrite; a change
        # here re-keys every cache directory and manifest in existence.
        assert config_key(SimConfig(), code_version="x") == (
            "9913a01ff13c42df7fef50d0082628b28cf92352b5361572b850378e47418116"
        )

    @pytest.mark.parametrize("name", [
        field.name for cls in (SimConfig, MeasurementConfig)
        for field in dataclasses.fields(cls)
    ])
    def test_each_field_alone_changes_the_key(self, name):
        config, measurement = VARIED_BASE, FAST
        before = config_key(config, measurement)
        if hasattr(config, name):
            config = replace(config, **{name: OTHER_VALUE[name]}).validate()
        else:
            measurement = replace(measurement, **{name: OTHER_VALUE[name]})
        after = config_key(config, measurement)
        assert after != before
        assert after == reference_key(config, measurement)

    def test_frame_memo_is_by_value_not_identity(self):
        # The configs are mutable: a measurement edited between two
        # calls must key differently, and an equal new object the same.
        measurement = replace(FAST)
        first = config_key(base_config(), measurement)
        assert first == config_key(base_config(), replace(FAST))
        measurement.sample_packets += 1
        second = config_key(base_config(), measurement)
        assert second != first
        assert second == reference_key(base_config(), measurement)

    def test_frame_memo_tells_equal_values_of_other_types_apart(self):
        # 50 == 50.0 hash alike but encode as "50" and "50.0".
        as_int = config_key(base_config(), FAST)
        as_float = config_key(
            base_config(), replace(FAST, warmup_cycles=50.0)
        )
        assert as_float != as_int
        assert as_float == reference_key(
            base_config(), replace(FAST, warmup_cycles=50.0)
        )

    def test_frame_memo_is_bounded(self):
        bound = cache_module._key_frame.cache_info().maxsize
        assert bound is not None
        for packets in range(1, 3 * bound):
            measurement = replace(FAST, sample_packets=packets)
            assert config_key(base_config(), measurement) == reference_key(
                base_config(), measurement
            )
        assert cache_module._key_frame.cache_info().currsize <= bound


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


class TestReadThrough:
    """Decoded hits are kept in memory; the cache must behave exactly
    as if every ``get`` still read the disk."""

    @pytest.fixture(scope="class")
    def results(self):
        return [simulate(base_config(seed=seed), FAST) for seed in (1, 2)]

    def test_repeated_hit_is_served_decoded_and_counted(self, tmp_path, results):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, results[0])
        first = cache.get("ab" * 32)
        assert first == results[0]
        assert cache.get("ab" * 32) is first
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_put_replaces_what_get_remembered(self, tmp_path, results):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, results[0])
        assert cache.get("ab" * 32) == results[0]
        cache.put("ab" * 32, results[1])
        assert results[1] != results[0]
        assert cache.get("ab" * 32) == results[1]

    def test_clear_empties_it(self, tmp_path, results):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, results[0])
        assert cache.get("ab" * 32) is not None
        assert cache.clear() == 1
        assert cache.get("ab" * 32) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_a_miss_is_never_remembered(self, tmp_path, results):
        # The estimator's refiner (or another process) lands an entry
        # after this instance missed it: the next get must see it.
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        ResultCache(tmp_path).put("ab" * 32, results[0])
        assert cache.get("ab" * 32) == results[0]

    def test_torn_entry_is_a_miss_every_time(self, tmp_path, results):
        cache = ResultCache(tmp_path)
        path = cache.put("ab" * 32, results[0])
        path.write_text(path.read_text()[:40])
        assert cache.get("ab" * 32) is None
        assert cache.get("ab" * 32) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_concurrent_put_and_get_serve_only_right_entries(
        self, tmp_path, results
    ):
        # The estimator's refiner puts on the instance the caller's
        # thread gets from, and the read-through takes no lock: under
        # forced thread switches every get must still be a miss or the
        # entry stored under that key, never another key's.
        cache = ResultCache(tmp_path)
        entries = {
            f"{index:02x}" * 32: results[index % 2] for index in range(6)
        }
        wrong = []
        deadline = time.monotonic() + 1.0

        def writer():
            while time.monotonic() < deadline:
                for key, result in entries.items():
                    cache.put(key, result)

        def reader():
            while time.monotonic() < deadline:
                for key, result in entries.items():
                    got = cache.get(key)
                    if got is not None and got != result:
                        wrong.append(key)

        threads = [
            threading.Thread(target=target, daemon=True)
            for target in (writer, writer, reader, reader)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        for key, result in entries.items():
            assert cache.get(key) == result

    def test_it_is_bounded(self, tmp_path, results, monkeypatch):
        monkeypatch.setattr(cache_module, "_READ_THROUGH_ENTRIES", 2)
        cache = ResultCache(tmp_path)
        keys = [f"{index:02x}" * 32 for index in range(5)]
        for key in keys:
            cache.put(key, results[0])
        for _ in range(2):
            for key in keys:
                assert cache.get(key) == results[0]
                assert len(cache._decoded) <= 2
        assert (cache.hits, cache.misses) == (10, 0)
