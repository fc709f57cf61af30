"""Smoke tests for the python -m repro.experiments command line."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments import catalog
from repro.experiments.__main__ import main


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestCLI:
    def test_default_prints_delay_model(self):
        result = run_cli()
        assert result.returncode == 0
        assert "Table 1" in result.stdout
        assert "Figure 11" in result.stdout
        assert "Figure 12" in result.stdout
        assert "turnaround" in result.stdout

    def test_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "--simulate" in result.stdout
        assert "--paper-scale" in result.stdout
        assert "--ablations" in result.stdout

    @pytest.mark.parametrize("command", [(), ("report", "--telemetry")])
    def test_sample_packets_below_one_is_rejected(self, command):
        """``--sample-packets`` goes through ``MeasurementConfig``'s own
        validation in the main command and in ``report`` alike."""
        result = run_cli(*command, "--sample-packets", "0", timeout=120)
        assert result.returncode == 2
        assert "sample_packets must be >= 1" in result.stderr
        assert result.stdout == ""

    def test_simulate_tiny_sample(self, monkeypatch, capsys):
        """``--simulate`` over a one-row catalog: Figure 13 on a 4x4 mesh.

        The full report is CI's own step (see .github/workflows/ci.yml),
        which also checks that it simulates each distinct point once.
        """
        fig13 = catalog.get_row("fig13")
        small = replace(fig13, curves=tuple(
            replace(spec, config=replace(spec.config, mesh_radix=4))
            for spec in fig13.curves
        ))
        monkeypatch.setattr(catalog, "CATALOG", (small,))
        for name in ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        assert main(["--simulate", "--sample-packets", "60"]) == 0
        stdout = capsys.readouterr().out
        assert "Figure 13" in stdout
        assert "zero-load" in stdout

    @pytest.mark.sim
    def test_checked_smoke(self):
        """--checked alone runs the validation suite and exits clean."""
        result = run_cli("--checked", timeout=590)
        assert result.returncode == 0
        assert "probe run: ok" in result.stdout
        assert "oracle spec_vs_nonspec" in result.stdout
        assert "oracle serial_vs_parallel" in result.stdout
        assert "oracle cached_vs_uncached" in result.stdout
        assert "property cases: 4/4 passed" in result.stdout
        assert "validation PASSED" in result.stdout

    def test_help_mentions_checked(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "--checked" in result.stdout


class TestReportSubcommand:
    def test_report_alone_prints_delay_model(self):
        result = run_cli("report")
        assert result.returncode == 0
        assert "Table 1" in result.stdout

    def test_report_help(self):
        result = run_cli("report", "--help")
        assert result.returncode == 0
        assert "--telemetry" in result.stdout
        assert "--export-dir" in result.stdout

    @pytest.mark.sim
    def test_report_telemetry_exports(self, tmp_path):
        import json

        result = run_cli(
            "report", "--telemetry", "--sample-packets", "150",
            "--export-dir", str(tmp_path), timeout=590,
        )
        assert result.returncode == 0
        assert "speculation win rate" in result.stdout
        assert "channel utilization" in result.stdout
        for name in ("telemetry.jsonl", "telemetry.csv", "windows.csv",
                     "trace.json"):
            assert (tmp_path / name).exists(), name
        header = json.loads(
            (tmp_path / "telemetry.jsonl").read_text().splitlines()[0]
        )
        assert header["type"] == "summary"
        assert header["cycles_observed"] > 0

    @pytest.mark.sim
    def test_report_telemetry_wormhole_router(self):
        """Non-speculative routers report an honest 0% win rate."""
        result = run_cli(
            "report", "--telemetry", "--router", "wormhole",
            "--load", "0.2", "--sample-packets", "100", timeout=590,
        )
        assert result.returncode == 0
        assert "wormhole 8x8" in result.stdout
        assert "speculation win rate  0.0% (0 of 0 attempts)" in result.stdout
