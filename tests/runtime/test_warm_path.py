"""The warm path: a cached point costs a lookup.

A batch whose every point is in the cache executes nothing, so
:meth:`Experiment.map` opens no sweep manifest and never calls the
backend; the directory it serves from is left exactly as it was.
:meth:`ResultCache.get` stamps provenance once, at decode, so the
shared read-only results it hands out already say ``cached``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.figures import fig13
from repro.runtime import Experiment, ResultCache, config_key
from repro.runtime.scheduler import SchedulerStats
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import simulate

FAST = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=3_000, drain_cycles=1_000
)

#: Fig 13's loads at test scale: one light point, one past its knee.
LOADS = (0.05, 0.3)


def config(load=0.1, seed=3):
    return SimConfig(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        injection_fraction=load, seed=seed,
    )


def snapshot(directory: Path):
    """Every file under ``directory`` with its bytes and mtime."""
    return {
        str(path.relative_to(directory)): (
            path.read_bytes(), path.stat().st_mtime_ns
        )
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def forbid_execution(monkeypatch, experiment):
    """Fail the test if ``experiment`` opens a ledger or executes."""

    def forbidden(what):
        def fail(*args, **kwargs):
            pytest.fail(f"a fully cached batch {what}")
        return fail

    monkeypatch.setattr(
        ResultCache, "manifest", forbidden("opened its manifest")
    )
    monkeypatch.setattr(
        experiment.backend, "execute", forbidden("called the backend")
    )


class TestFullyCachedBatch:
    def test_warm_fig13_leaves_the_cache_directory_untouched(
        self, tmp_path, monkeypatch
    ):
        cold_experiment = Experiment(FAST, backend="serial", cache=tmp_path)
        cold = fig13(loads=LOADS, experiment=cold_experiment)
        assert cold_experiment.stats.points_executed > 0
        assert list((tmp_path / "manifests").glob("*.jsonl"))
        before = snapshot(tmp_path)

        warm_experiment = Experiment(FAST, backend="serial", cache=tmp_path)
        forbid_execution(monkeypatch, warm_experiment)
        warm = fig13(loads=LOADS, experiment=warm_experiment)

        assert snapshot(tmp_path) == before
        stats = warm_experiment.stats
        assert stats.points_executed == 0
        assert stats.cache_hits == stats.points_requested > 0
        assert stats.scheduler == SchedulerStats()
        assert warm.render() == cold.render()
        assert all(
            point.source == "cached"
            for _, curve in warm.curves for point in curve.points
        )

    def test_two_maps_over_one_cached_batch_agree(self, tmp_path):
        batch = [config(0.05), config(0.1), config(0.05)]
        cold = Experiment(FAST, cache=tmp_path).map(batch)
        warm = Experiment(FAST, cache=tmp_path)
        first = warm.map(batch)
        second = warm.map(batch)
        assert first == second == cold
        assert [r.source for r in first] == ["cached"] * 3
        assert warm.stats.points_executed == 0
        assert warm.stats.cache_hits == 6
        assert warm.stats.sources == {"cached": 6}

    def test_fully_cached_batch_skips_ledger_and_scheduler(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        for load in (0.05, 0.1):
            cache.put(
                config_key(config(load), FAST), simulate(config(load), FAST)
            )
        experiment = Experiment(FAST, cache=cache)
        forbid_execution(monkeypatch, experiment)
        results = experiment.map([config(0.05), config(0.1)])
        assert [r.injection_fraction for r in results] == [0.05, 0.1]
        assert not (tmp_path / "manifests").exists()
        assert experiment.stats.scheduler == SchedulerStats()


class TestPartlyCachedBatch:
    def test_writes_its_ledger_with_the_cached_keys(self, tmp_path):
        Experiment(FAST, cache=tmp_path).map([config(0.05), config(0.1)])
        batch = [config(0.05), config(0.1), config(0.15)]
        experiment = Experiment(FAST, cache=tmp_path)
        experiment.map(batch)
        assert experiment.stats.points_executed == 1
        assert experiment.stats.cache_hits == 2

        keys = [config_key(c, FAST) for c in batch]
        ledger = ResultCache(tmp_path).manifest(keys)
        assert ledger.done == set(keys)
        assert ledger.is_complete
        records = [
            json.loads(line) for line in ledger.path.read_text().splitlines()
        ]
        # Header, the two cached keys, the executed one, the marker.
        assert records[0]["points"] == 3
        assert {r["done"] for r in records[1:3]} == set(keys[:2])
        assert records[3] == {"done": keys[2]}
        assert records[4]["complete"] is True


class TestCachedProvenance:
    @pytest.fixture(scope="class")
    def results(self):
        return [simulate(config(seed=seed), FAST) for seed in (1, 2)]

    def test_a_fresh_entry_reads_back_cached(self, tmp_path, results):
        assert results[0].source == "simulated"
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, results[0])
        hit = cache.get("ab" * 32)
        assert hit.source == "cached"
        assert hit == results[0]
        assert results[0].source == "simulated"

    def test_a_legacy_entry_reads_back_cached(self, tmp_path, results):
        # Entries written before provenance existed carry no "source".
        cache = ResultCache(tmp_path)
        path = cache.put("ab" * 32, results[0])
        payload = json.loads(path.read_text())
        del payload["result"]["source"]
        path.write_text(json.dumps(payload))
        hit = ResultCache(tmp_path).get("ab" * 32)
        assert hit.source == "cached"
        assert hit == results[0]

    def test_get_after_put_overwrites_returns_the_new_entry(
        self, tmp_path, results
    ):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, results[0])
        old = cache.get("ab" * 32)
        cache.put("ab" * 32, results[1])
        new = cache.get("ab" * 32)
        assert new == results[1] != results[0]
        assert new.source == "cached"
        assert old == results[0]
