"""Differential oracles: two execution paths, diffed."""

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.metrics import RunResult
from repro.sim.network import Network
from repro.sim.validation.oracle import (
    Mismatch,
    OracleReport,
    diff_run_results,
    oracle_cached_vs_uncached,
    oracle_fast_vs_reference,
    oracle_serial_vs_parallel,
    oracle_spec_vs_nonspec,
    oracle_telemetry_on_vs_off,
    record_deliveries,
)

pytestmark = pytest.mark.sim


def run_result(**overrides):
    defaults = dict(
        injection_fraction=0.1, latency=None, accepted_fraction=0.09,
        saturated=False, cycles_simulated=500, sample_packets=100,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


class TestRecordDeliveries:
    """The delivery-history oracles are only as strong as the recorder:
    a log that misses ejections would let two empty histories agree."""

    def record(self, stepper):
        network = Network(SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
            buffers_per_vc=4, injection_fraction=0.2, seed=5,
            stepper=stepper,
        ))
        logs = record_deliveries(network)
        network.run(400)
        return network, logs

    @pytest.mark.parametrize("stepper", ["fast", "reference"])
    def test_logs_every_tail_ejection(self, stepper):
        network, logs = self.record(stepper)
        assert sum(map(len, logs)) > 50
        for sink, log in zip(network.sinks, logs):
            assert len(log) == sink.packets_ejected
            assert all(entry.destination == sink.node for entry in log)
            assert [e.latency for e in log if e.measured] \
                == list(sink.latencies)

    def test_steppers_record_the_same_history(self):
        _, fast = self.record("fast")
        _, reference = self.record("reference")
        assert fast == reference


class TestReportMechanics:
    def test_compare_records_mismatch(self):
        report = OracleReport("t", "a", "b")
        assert report.compare("same", 1, 1)
        assert not report.compare("diff", 1, 2)
        assert report.checks == 2
        assert not report.ok
        assert "diff" in str(report.mismatches[0])

    def test_expect_records_failed_condition(self):
        report = OracleReport("t", "a", "b")
        report.expect(False, "never holds", 3, 4)
        assert report.mismatches == [Mismatch("never holds", 3, 4)]

    def test_to_dict_and_describe(self):
        report = OracleReport("t", "a", "b")
        report.compare("x", 1, 2)
        data = report.to_dict()
        assert data["ok"] is False
        assert data["checks"] == 1
        assert "FAILED" in report.describe()

    def test_diff_equal_results_is_one_check(self):
        report = OracleReport("t", "a", "b")
        diff_run_results(report, run_result(), run_result())
        assert report.ok
        assert report.checks == 1

    def test_diff_unequal_results_names_the_field(self):
        report = OracleReport("t", "a", "b")
        diff_run_results(
            report, run_result(), run_result(cycles_simulated=501)
        )
        assert not report.ok
        assert any(
            m.what == "point.cycles_simulated" for m in report.mismatches
        )
        # The fields that do match are not reported as mismatches.
        assert all(
            "sample_packets" not in m.what for m in report.mismatches
        )


class TestOracles:
    def test_spec_vs_nonspec(self):
        report = oracle_spec_vs_nonspec()
        assert report.ok, report.describe()
        assert report.checks >= 7

    def test_serial_vs_parallel(self):
        report = oracle_serial_vs_parallel(loads=(0.1, 0.2))
        assert report.ok, report.describe()

    def test_cached_vs_uncached(self, tmp_path):
        report = oracle_cached_vs_uncached(tmp_path / "cache")
        assert report.ok, report.describe()
        # One fresh-then-cached round trip per backend (serial, process).
        assert report.checks == 6

    def test_fast_vs_reference(self):
        report = oracle_fast_vs_reference(seed=3, cases=4)
        assert report.ok, report.describe()
        # One RunResult diff plus one delivery-history diff per case.
        assert report.checks == 8

    def test_telemetry_on_vs_off(self):
        report = oracle_telemetry_on_vs_off()
        assert report.ok, report.describe()
        # Result diff + delivery diff + 2 structural checks per config.
        assert report.checks == 16
