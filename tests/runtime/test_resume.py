"""Resumable sweeps: streaming cache writes, manifests, mid-flight kills.

The contract under test: :meth:`Experiment.map` streams every completed
point into the cache *as it lands*, so a batch killed mid-flight keeps
everything already finished, and re-running the same batch executes
only the points still missing -- with the merged result bit-identical
to an uninterrupted run.
"""

import errno
import json
import os
import re
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.runtime import (
    Experiment,
    ProcessBackend,
    ResultCache,
    SweepManifest,
    config_key,
    sweep_key,
)
from repro.runtime import backends
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.instrumentation import NullProgress

FAST = MeasurementConfig(
    warmup_cycles=50, sample_packets=60, max_cycles=3_000, drain_cycles=1_000
)

LOADS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)

#: The injection fraction the patched process worker dies or raises on.
FAIL_LOAD = 0.25


def config(load=0.1, seed=3):
    return SimConfig(
        router_kind=RouterKind.WORMHOLE, mesh_radix=4, buffers_per_vc=8,
        injection_fraction=load, seed=seed,
    )


def grid_keys(loads=LOADS):
    return [
        config_key(replace(config(), injection_fraction=load), FAST)
        for load in sorted(loads)
    ]


def poison(monkeypatch, failure):
    """Make pool workers call ``failure()`` on the FAIL_LOAD point.

    Forked workers inherit the patched ``run_payload``; the healthy one
    is returned for restoring.
    """
    real = backends.run_payload

    def poisoned(payload):
        if abs(payload[0].injection_fraction - FAIL_LOAD) < 1e-9:
            failure()
        return real(payload)

    monkeypatch.setattr(backends, "run_payload", poisoned)
    return real


def interrupt_after(count, tmp_path, monkeypatch):
    """Run the LOADS grid serially into ``tmp_path``, killing it after
    ``count`` points landed; the healthy worker is restored after."""
    real = backends.run_payload
    completed = {"count": 0}

    def dies_after(payload):
        if completed["count"] >= count:
            raise RuntimeError("injected mid-flight failure")
        completed["count"] += 1
        return real(payload)

    monkeypatch.setattr(backends, "run_payload", dies_after)
    with pytest.raises(RuntimeError, match="mid-flight"):
        Experiment(FAST, backend="serial", cache=tmp_path).grid(
            config(), loads=LOADS
        )
    monkeypatch.setattr(backends, "run_payload", real)


def assert_resumes(tmp_path, executed):
    """A resumed grid runs only the ``executed`` missing points, matches
    an uninterrupted run bit for bit, and completes its ledger."""
    resumed = Experiment(FAST, backend="serial", cache=tmp_path)
    merged = resumed.grid(config(), loads=LOADS)
    assert resumed.stats.points_executed == executed
    assert resumed.stats.cache_hits == len(LOADS) - executed
    ledger = ResultCache(tmp_path).manifest(grid_keys())
    assert ledger.is_complete
    assert ledger.done == set(grid_keys())
    baseline = Experiment(FAST, backend="serial").grid(config(), loads=LOADS)
    assert merged.results == baseline.results


def bounded(call, seconds=120):
    """``call()`` on a watchdog thread: a hung pool fails, not blocks."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:   # handed to the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestSweepManifest:
    def test_ledger_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path, sweep="abc", points=3).start()
        manifest.record("k1")
        manifest.record("k2")
        reread = SweepManifest(path, sweep="abc", points=3)
        assert reread.done == {"k1", "k2"}
        assert not reread.is_complete
        assert reread.remaining(["k1", "k2", "k3"]) == ["k3"]

    def test_complete_marker_survives_reload(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path, sweep="abc", points=1).start()
        manifest.record("k1")
        manifest.complete()
        assert SweepManifest(path, sweep="abc", points=1).is_complete

    def test_duplicate_records_append_once(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path, sweep="abc", points=2).start()
        manifest.record("k1")
        manifest.record("k1")
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one done record

    def test_torn_trailing_write_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path, sweep="abc", points=2).start()
        manifest.record("k1")
        with open(path, "a") as handle:
            handle.write('{"done": "k2"')  # killed mid-append
        reread = SweepManifest(path, sweep="abc", points=2)
        assert reread.done == {"k1"}

    @pytest.mark.parametrize(
        "bad_line", ["7", '"undone"', "[1, 2]", "null", '{"done": ["k9"]}'],
        ids=["int", "string", "list", "null", "unhashable-done"],
    )
    def test_non_record_line_mid_file_is_skipped(self, tmp_path, bad_line):
        # Valid JSON that is not a ledger record is skipped like a torn
        # line; the done records on either side of it still count.
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path, sweep="abc", points=3).start()
        manifest.record("k1")
        with open(path, "a") as handle:
            handle.write(bad_line + "\n")
        manifest.record("k2")
        reread = SweepManifest(path, sweep="abc", points=3)
        assert reread.done == {"k1", "k2"}
        assert reread.remaining(["k1", "k2", "k3"]) == ["k3"]

    def test_sweep_key_is_order_independent(self):
        keys = ["b", "a", "c"]
        assert sweep_key(keys) == sweep_key(sorted(keys))
        assert sweep_key(keys) == sweep_key(["a", "a", "b", "c"])
        assert sweep_key(keys) != sweep_key(["a", "b"])

    def test_experiment_writes_manifest(self, tmp_path):
        exp = Experiment(FAST, cache=tmp_path)
        exp.map([config(0.05), config(0.1)])
        manifests = list((tmp_path / "manifests").glob("*.jsonl"))
        assert len(manifests) == 1
        header = json.loads(manifests[0].read_text().splitlines()[0])
        assert header["points"] == 2
        keys = [config_key(config(l), FAST) for l in (0.05, 0.1)]
        assert ResultCache(tmp_path).manifest(keys).is_complete


class TestInterruptedSerialSweep:
    def test_resume_executes_only_missing_points(self, tmp_path, monkeypatch):
        real = backends.run_payload
        completed = {"count": 0}

        def dies_after_three(payload):
            if completed["count"] >= 3:
                raise RuntimeError("injected mid-flight failure")
            completed["count"] += 1
            return real(payload)

        monkeypatch.setattr(backends, "run_payload", dies_after_three)
        interrupted = Experiment(FAST, backend="serial", cache=tmp_path)
        with pytest.raises(RuntimeError, match="mid-flight"):
            interrupted.grid(config(), loads=LOADS)

        # The three completed points streamed into the cache before the
        # kill, and the manifest ledger says exactly which ones.
        assert len(ResultCache(tmp_path)) == 3
        manifest = ResultCache(tmp_path).manifest(grid_keys())
        assert len(manifest.done) == 3
        assert not manifest.is_complete
        assert len(manifest.remaining(grid_keys())) == 3

        # Restart (healthy worker): only the missing half executes.
        monkeypatch.setattr(backends, "run_payload", real)
        resumed = Experiment(FAST, backend="serial", cache=tmp_path)
        merged = resumed.grid(config(), loads=LOADS)
        assert resumed.stats.points_executed == 3
        assert resumed.stats.cache_hits == 3
        assert ResultCache(tmp_path).manifest(grid_keys()).is_complete

        # The merged grid is bit-identical to one that never failed.
        baseline = Experiment(FAST, backend="serial").grid(
            config(), loads=LOADS
        )
        assert merged.results == baseline.results

    @pytest.mark.parametrize("bad_line", [
        "7", '"undone"', "not json", '{"done": "', "\x00\x01",
    ], ids=["int", "string", "text", "torn-record", "binary"])
    def test_resume_past_a_corrupted_manifest_line(
        self, tmp_path, monkeypatch, bad_line
    ):
        interrupt_after(3, tmp_path, monkeypatch)
        # Corrupt the ledger between its first and second done record.
        path = ResultCache(tmp_path).manifest(grid_keys()).path
        lines = path.read_text().splitlines()
        lines.insert(2, bad_line)
        path.write_text("\n".join(lines) + "\n")
        assert len(ResultCache(tmp_path).manifest(grid_keys()).done) == 3
        assert_resumes(tmp_path, executed=3)

    @pytest.mark.parametrize("header", [
        "[1, 2]", "7", '{"format": 1, "sweep": "ab',
    ], ids=["non-object", "int", "corrupt"])
    def test_resume_past_a_bad_header(self, tmp_path, monkeypatch, header):
        interrupt_after(3, tmp_path, monkeypatch)
        path = ResultCache(tmp_path).manifest(grid_keys()).path
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        assert len(ResultCache(tmp_path).manifest(grid_keys()).done) == 3
        assert_resumes(tmp_path, executed=3)

    def test_resume_past_a_header_torn_mid_write(self, tmp_path, monkeypatch):
        # Killed while writing the header: the next record must start a
        # line of its own instead of running on from the torn one.
        interrupt_after(0, tmp_path, monkeypatch)
        path = ResultCache(tmp_path).manifest(grid_keys()).path
        path.write_text(path.read_text()[:20])
        assert_resumes(tmp_path, executed=len(LOADS))

    def test_resume_past_a_torn_trailing_record(self, tmp_path, monkeypatch):
        interrupt_after(3, tmp_path, monkeypatch)
        path = ResultCache(tmp_path).manifest(grid_keys()).path
        with open(path, "a") as handle:
            handle.write('{"done": "' + grid_keys()[3][:9])
        assert_resumes(tmp_path, executed=3)

    def test_interrupted_batch_keeps_scheduler_accounting(
        self, tmp_path, monkeypatch
    ):
        real = backends.run_payload
        completed = {"count": 0}

        def dies_after_two(payload):
            if completed["count"] >= 2:
                raise RuntimeError("boom")
            completed["count"] += 1
            return real(payload)

        monkeypatch.setattr(backends, "run_payload", dies_after_two)
        exp = Experiment(FAST, backend="serial", cache=tmp_path)
        with pytest.raises(RuntimeError):
            exp.map([config(load) for load in LOADS])
        # The finally path still merged what the queue saw.
        assert exp.stats.scheduler.dispatch_seconds > 0
        assert exp.stats.scheduler.jobs_completed < len(LOADS)
        assert exp.stats.wall_seconds > 0


class TestInterruptedProcessSweep:
    def test_resume_after_worker_death(self, tmp_path, monkeypatch):
        real = poison(monkeypatch, lambda: os._exit(1))
        interrupted = Experiment(
            FAST, backend=ProcessBackend(2), cache=tmp_path,
        )
        with pytest.raises(RuntimeError, match="pool worker died") as raised:
            bounded(lambda: interrupted.grid(config(), loads=LOADS))
        assert isinstance(raised.value.__cause__, BrokenProcessPool)

        # Every point streamed before the death is in the cache and in
        # the ledger; the error counts the rest and names the first of
        # them in batch order.
        cache = ResultCache(tmp_path)
        survivors = len(cache)
        assert 2 <= survivors < len(LOADS)
        done = cache.manifest(grid_keys()).done
        cached = {key for key in grid_keys() if cache.get(key) is not None}
        assert done == cached and len(cached) == survivors
        missing = [
            load for load, key in zip(LOADS, grid_keys()) if key not in done
        ]
        message = str(raised.value)
        count = re.search(r"(\d+) points did not finish", message)
        assert count and int(count.group(1)) == len(missing)
        assert repr(config(missing[0])) in message

        monkeypatch.setattr(backends, "run_payload", real)
        resumed = Experiment(
            FAST, backend=ProcessBackend(2), cache=tmp_path,
        )
        merged = resumed.grid(config(), loads=LOADS)
        assert resumed.stats.points_executed == len(LOADS) - survivors
        assert resumed.stats.cache_hits == survivors

        baseline = Experiment(FAST, backend="serial").grid(
            config(), loads=LOADS
        )
        assert merged.results == baseline.results

    def test_resume_after_worker_error(self, tmp_path, monkeypatch):
        def fail():
            raise ValueError("injected point failure")

        real = poison(monkeypatch, fail)
        interrupted = Experiment(
            FAST, backend=ProcessBackend(2), cache=tmp_path,
        )
        # A worker's own exception is not a dead worker: it propagates
        # as it was raised.
        with pytest.raises(ValueError) as raised:
            bounded(lambda: interrupted.grid(config(), loads=LOADS))
        assert str(raised.value) == "injected point failure"
        survivors = len(ResultCache(tmp_path))
        assert survivors < len(LOADS)

        monkeypatch.setattr(backends, "run_payload", real)
        assert_resumes(tmp_path, executed=len(LOADS) - survivors)


class TestInterruptedBatch:
    def test_interrupt_cancels_points_not_started(
        self, tmp_path, monkeypatch
    ):
        # Each started point appends its load to a file the forked
        # workers share, and holds its worker for 0.2 s so the count is
        # not a race.  The first point is not held: it finishes alone,
        # while its peer is still held, and fires the interrupt.
        started = tmp_path / "started.txt"
        real = backends.run_payload
        loads = [step / 100 for step in range(2, 18)]

        def counted(payload):
            with open(started, "a") as handle:
                handle.write(f"{payload[0].injection_fraction}\n")
            if payload[0].injection_fraction != loads[0]:
                time.sleep(0.2)
            return real(payload)

        class Interrupt(NullProgress):
            def on_point_done(self, *args, **kwargs):
                raise KeyboardInterrupt

        monkeypatch.setattr(backends, "run_payload", counted)
        experiment = Experiment(
            FAST, backend="process:2", progress=Interrupt(),
        )
        with pytest.raises(KeyboardInterrupt):
            bounded(
                lambda: experiment.map([config(load) for load in loads]),
                seconds=60,
            )
        # One finished, two running, and the pool's call queue of
        # workers + 1: nothing else ever starts.
        assert 1 <= len(started.read_text().splitlines()) <= 6


class TestStoreFailure:
    """A full disk while streaming: the error names the point and the
    cache, what landed stays landed, and a resume completes the grid."""

    @staticmethod
    def fail_on_call(monkeypatch, owner, name, call):
        real = getattr(owner, name)
        calls = {"count": 0}

        def flaky(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == call:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, flaky)
        return real

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_full_disk_on_put(self, tmp_path, monkeypatch, backend):
        real = self.fail_on_call(monkeypatch, ResultCache, "put", call=3)
        experiment = Experiment(FAST, backend=backend, cache=tmp_path)
        with pytest.raises(OSError) as raised:
            bounded(lambda: experiment.grid(config(), loads=LOADS))
        self.assert_names_point_and_cache(raised.value, tmp_path)
        # The two points streamed before the failing one stayed.
        assert len(ResultCache(tmp_path)) == 2
        assert len(ResultCache(tmp_path).manifest(grid_keys()).done) == 2

        monkeypatch.setattr(ResultCache, "put", real)
        assert_resumes(tmp_path, executed=len(LOADS) - 2)

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_full_disk_on_ledger_append(self, tmp_path, monkeypatch, backend):
        # Call 1 is the header, calls 2 and 3 the first two done records:
        # the third point is in the cache but not in the ledger.
        real = self.fail_on_call(
            monkeypatch, SweepManifest, "_append", call=4
        )
        experiment = Experiment(FAST, backend=backend, cache=tmp_path)
        with pytest.raises(OSError) as raised:
            bounded(lambda: experiment.grid(config(), loads=LOADS))
        self.assert_names_point_and_cache(raised.value, tmp_path)
        assert len(ResultCache(tmp_path)) == 3
        assert len(ResultCache(tmp_path).manifest(grid_keys()).done) == 2

        monkeypatch.setattr(SweepManifest, "_append", real)
        assert_resumes(tmp_path, executed=len(LOADS) - 3)

    @staticmethod
    def assert_names_point_and_cache(error, tmp_path):
        message = str(error)
        assert str(tmp_path) in message
        assert any(repr(config(load)) in message for load in LOADS)
        assert isinstance(error.__cause__, OSError)
        assert error.__cause__.errno == errno.ENOSPC
