"""The ``estimate`` subcommand: batch answers, JSON, serve loop."""

import json
import subprocess
import sys

import pytest


def run_estimate(*args, stdin=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", "estimate", *args],
        capture_output=True, text=True, timeout=timeout, input=stdin,
    )


class TestBatch:
    def test_help(self):
        result = run_estimate("--help")
        assert result.returncode == 0
        assert "--serve" in result.stdout
        assert "--calibrate" in result.stdout
        assert "--no-refine" in result.stdout

    def test_help_names_what_the_cli_accepts(self):
        from repro.experiments.estimate import _SERVE_KEYS

        text = " ".join(run_estimate("--help").stdout.split())
        # The ssh backend is gone; --serve lists every key it parses.
        assert "ssh" not in text
        assert "serial, process[:N]" in text
        assert f"(keys: {' '.join(_SERVE_KEYS)})" in text
        assert "allocator" in _SERVE_KEYS

    def test_sample_packets_below_one_is_rejected(self, tmp_path):
        # The config's own check must fire: a 0-packet sample used to
        # run, answer "latency inf ... accepted 0.0%" and be cached.
        cache = tmp_path / "cache"
        result = run_estimate(
            "--router", "wormhole", "--vcs", "1", "--radix", "4",
            "--load", "0.1", "--sample-packets", "0", "--wait",
            "--cache-dir", str(cache),
        )
        assert result.returncode == 2
        assert "sample_packets must be >= 1" in result.stderr
        assert result.stdout == ""
        assert not cache.exists()

    def test_surrogate_answers_without_simulating(self, tmp_path):
        # The acceptance-criteria path: a design-space query answered
        # from the surrogate with the cycle kernel never invoked.
        result = run_estimate(
            "--router", "wormhole", "--vcs", "1",
            "--loads", "0.05,0.15,0.25", "--no-refine",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert result.returncode == 0, result.stderr
        lines = [l for l in result.stdout.splitlines() if l.strip()]
        assert len(lines) == 3
        assert all("[surrogate" in line for line in lines)
        assert "3 surrogate" in result.stderr
        assert "100% surrogate hit rate" in result.stderr

    def test_json_output(self, tmp_path):
        result = run_estimate(
            "--router", "speculative_vc", "--load", "0.2",
            "--no-refine", "--json",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout.splitlines()[0])
        assert payload["source"] == "surrogate"
        assert payload["latency_cycles"] > 0
        assert payload["estimate"]["breakdown"]["router_cycles"] > 0

    @pytest.mark.sim
    def test_refinement_lands_in_cache(self, tmp_path):
        # First invocation answers from the surrogate and refines in
        # the background; --drain waits for the simulated result to
        # land, so the second invocation answers from the cache.
        cache = str(tmp_path / "cache")
        args = (
            "--router", "wormhole", "--vcs", "1", "--radix", "4",
            "--load", "0.1", "--sample-packets", "60",
            "--cache-dir", cache,
        )
        first = run_estimate(*args, "--drain")
        assert first.returncode == 0, first.stderr
        assert "[surrogate" in first.stdout
        second = run_estimate(*args)
        assert second.returncode == 0, second.stderr
        assert "[cached" in second.stdout

    @pytest.mark.sim
    def test_wait_answers_simulated(self, tmp_path):
        result = run_estimate(
            "--router", "wormhole", "--vcs", "1", "--radix", "4",
            "--load", "0.1", "--sample-packets", "60", "--wait",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert result.returncode == 0, result.stderr
        assert "[simulated" in result.stdout


class TestServe:
    def test_serve_loop_answers_stdin_queries(self, tmp_path):
        result = run_estimate(
            "--router", "speculative_vc", "--radix", "4",
            "--serve", "--no-refine",
            "--cache-dir", str(tmp_path / "cache"),
            stdin="load=0.2\nrouter=wormhole load=0.1\nquit\n",
        )
        assert result.returncode == 0, result.stderr
        lines = [l for l in result.stdout.splitlines() if l.strip()]
        assert len(lines) == 2
        assert all("[surrogate" in line for line in lines)
        assert "2 queries" in result.stderr

    def test_serve_reports_bad_input_and_continues(self, tmp_path):
        result = run_estimate(
            "--serve", "--no-refine",
            "--cache-dir", str(tmp_path / "cache"),
            stdin="nonsense=1\nload=0.2\nquit\n",
        )
        assert result.returncode == 0
        assert "error" in result.stderr
        assert "[surrogate" in result.stdout
