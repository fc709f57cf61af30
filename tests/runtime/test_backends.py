"""Backend selection and semantics: serial and process pool."""

import pytest

from repro.runtime import (
    Experiment,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.backends import BACKEND_ENV
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


class TestResolveBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None, workers=0), SerialBackend)
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)

    def test_workers_imply_process(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        backend = resolve_backend(None, workers=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.slots == 3

    def test_name_strings(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert resolve_backend("process:5").slots == 5

    @pytest.mark.parametrize(
        "spec", ["process:x", "process:2.5", "process:-1", "serial:3"]
    )
    def test_malformed_argument_names_the_spec(self, monkeypatch, spec):
        message = "unknown backend '%s'.*serial or process" % spec
        with pytest.raises(ValueError, match=message):
            resolve_backend(spec)
        monkeypatch.setenv(BACKEND_ENV, spec)
        with pytest.raises(ValueError, match=message):
            resolve_backend(None)

    def test_bare_process_defaults_to_two_workers(self):
        assert resolve_backend("process", workers=0).slots == 2
        assert resolve_backend("process", workers=6).slots == 6

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process:2")
        backend = resolve_backend(None, workers=0)
        assert isinstance(backend, ProcessBackend)
        assert backend.slots == 2

    def test_instances_pass_through(self):
        backend = ProcessBackend(2)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")
        # The removed ssh stub is just another unknown name now.
        with pytest.raises(ValueError, match="unknown backend"):
            Experiment(FAST, backend="ssh")

    def test_non_string_non_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            resolve_backend(42)

    def test_process_needs_a_worker(self):
        with pytest.raises(ValueError, match="worker"):
            ProcessBackend(0)


class TestBackendEquivalence:
    def test_all_backends_bit_identical(self):
        configs = [config(load) for load in (0.05, 0.1, 0.15, 0.2)]
        baseline = Experiment(FAST, backend="serial").map(configs)
        by_process = Experiment(
            FAST, backend=ProcessBackend(2)
        ).map(configs)
        assert by_process == baseline

    def test_process_backend_reports_chunks(self):
        configs = [config(load) for load in (0.05, 0.1, 0.15, 0.2)]
        from repro.runtime import Plan

        exp = Experiment(FAST, backend=ProcessBackend(2))
        exp.map(configs, plan=Plan(chunk_size=1))
        scheduler = exp.stats.scheduler
        assert scheduler.chunks_completed == 4
        assert scheduler.jobs_completed == 4
        assert scheduler.dispatch_seconds > 0
        assert set(scheduler.worker_busy_seconds) <= {0, 1}
