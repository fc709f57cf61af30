"""Checked mode: every probe passes on correct simulations."""

import pytest

from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import Simulator, simulate
from repro.sim.snapshot import state_digest
from repro.sim.validation import (
    InvariantViolation,
    ValidationSuite,
    Violation,
    WatchdogProbe,
)
from repro.sim.validation.probes import default_probes
from repro.sim.validation.suite import resolve_checked

pytestmark = pytest.mark.sim

MEAS = MeasurementConfig(
    warmup_cycles=100, sample_packets=80, max_cycles=12_000,
    drain_cycles=6_000,
)


def tiny_config(kind, **overrides):
    defaults = dict(
        router_kind=kind, mesh_radix=4,
        num_vcs=2 if kind.uses_vcs else 1,
        buffers_per_vc=5, injection_fraction=0.25, seed=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestCheckedRuns:
    @pytest.mark.parametrize("kind", list(RouterKind), ids=lambda k: k.value)
    def test_every_router_kind_passes_all_probes(self, kind):
        result = simulate(tiny_config(kind), MEAS, checked=True)
        summary = result.validation
        assert summary is not None
        assert summary["ok"]
        assert summary["violations"] == []
        assert summary["cycles_checked"] > 0
        assert all(count > 0 for count in summary["probes"].values())

    def test_checked_equals_unchecked(self):
        config = tiny_config(RouterKind.SPECULATIVE_VC)
        unchecked = simulate(config, MEAS)
        checked = simulate(config, MEAS, checked=True)
        assert unchecked.validation is None
        assert checked.validation is not None
        assert unchecked == checked

    @pytest.mark.parametrize("kind", list(RouterKind), ids=lambda k: k.value)
    def test_checked_state_digest_equals_unchecked(self, kind):
        """Checked mode keeps the compiled step and only reads state:
        after 400 steps near saturation the fast stepper's whole state
        is the unchecked run's, on every router kind."""
        config = tiny_config(kind, injection_fraction=0.42)
        digests = []
        for checked in (False, True):
            sim = Simulator(config, MEAS, checked=checked)
            network = sim.network
            assert network.routers_specialized == len(network.routers)
            for _ in range(400):
                sim._step()
            digests.append(state_digest(network))
        assert digests[0] == digests[1]

    def test_spec_router_runs_speculation_probe(self):
        result = simulate(
            tiny_config(RouterKind.SPECULATIVE_VC), MEAS, checked=True
        )
        assert "speculation_legality" in result.validation["probes"]

    def test_nonspec_router_skips_speculation_probe(self):
        result = simulate(
            tiny_config(RouterKind.VIRTUAL_CHANNEL), MEAS, checked=True
        )
        assert "speculation_legality" not in result.validation["probes"]

    def test_equal_priority_ablation_passes(self):
        """displacement is legal under the "equal" ablation, so the
        priority check is disabled and the run stays clean."""
        config = tiny_config(
            RouterKind.SPECULATIVE_VC, speculation_priority="equal"
        )
        result = simulate(config, MEAS, checked=True)
        assert result.validation["ok"]


class TestSuiteMechanics:
    def test_interval_reduces_cycle_checks(self):
        config = tiny_config(RouterKind.WORMHOLE)
        every = simulate(config, MEAS, checked=True)
        sparse = simulate(
            config, MEAS,
            checked=ValidationSuite(default_probes(config), interval=10),
        )
        assert every == sparse
        assert sparse.validation["interval"] == 10
        assert (
            sparse.validation["cycles_checked"]
            < every.validation["cycles_checked"] / 5
        )

    def test_fail_fast_false_accumulates(self):
        suite = ValidationSuite([], fail_fast=False)
        suite.report(Violation("p", 1, "first"))
        suite.report(Violation("p", 2, "second"))
        assert not suite.ok
        assert [v.cycle for v in suite.violations] == [1, 2]

    def test_fail_fast_raises_with_violation_attached(self):
        suite = ValidationSuite([])
        with pytest.raises(InvariantViolation) as excinfo:
            suite.report(Violation("watchdog", 7, "stuck"))
        assert excinfo.value.violation.probe == "watchdog"
        assert excinfo.value.violation.cycle == 7

    def test_snapshot_dir_writes_violation_file(self, tmp_path):
        suite = ValidationSuite(
            [], fail_fast=False, snapshot_dir=tmp_path / "snaps"
        )
        suite.report(Violation("watchdog", 42, "deadlock", snapshot="MAP"))
        path = tmp_path / "snaps" / "violation-cycle42.txt"
        assert path.exists()
        assert "MAP" in path.read_text()

    def test_resolve_checked(self):
        config = tiny_config(RouterKind.WORMHOLE)
        assert resolve_checked(None, config) is None
        assert resolve_checked(False, config) is None
        assert isinstance(resolve_checked(True, config), ValidationSuite)
        suite = ValidationSuite([])
        assert resolve_checked(suite, config) is suite
        with pytest.raises(TypeError):
            resolve_checked("yes", config)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ValidationSuite([], interval=0)

    def test_watchdog_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            WatchdogProbe(stall_horizon=0)

    def test_violation_round_trips_to_dict(self):
        violation = Violation("credit_consistency", 9, "leak", snapshot="S")
        data = violation.to_dict()
        assert data == {
            "probe": "credit_consistency", "cycle": 9,
            "message": "leak", "snapshot": "S",
        }
        assert "credit_consistency" in str(violation)
