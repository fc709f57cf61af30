"""Self-lint: the repository passes its own analyzer, fast, via the CLI.

This is the gate CI runs (`python -m repro.analysis --check src tests
benchmarks`); keeping a test-suite copy means a violation fails the
ordinary pytest run too, with the findings in the assertion message.
"""

import time

from repro.analysis import analyze
from repro.analysis.__main__ import main
from repro.analysis.driver import iter_rules

from .conftest import REPO_ROOT

DRIVER_RULES = ("PARSE001", "SUP001", "SUP002")


def _repo_paths():
    return [REPO_ROOT / p for p in ("src", "tests", "benchmarks")]


def test_repository_is_clean_and_fast():
    started = time.perf_counter()
    result = analyze(_repo_paths(), root=REPO_ROOT)
    elapsed = time.perf_counter() - started
    assert result.all_findings == [], "\n".join(
        str(f) for f in result.all_findings
    )
    # All seven checker families ran.
    assert result.checker_count == 7
    # The CI budget is <10s cold over the full repo; leave headroom for
    # slow shared runners but fail on an order-of-magnitude regression.
    assert elapsed < 10.0, f"analysis took {elapsed:.2f}s (budget 10s)"


def test_all_seven_checker_families_have_rules():
    families = {rule.id[:-3] for rule in iter_rules()
                if rule.id not in DRIVER_RULES}
    assert families == {
        "DET", "CACHE", "WRAP", "SLOTS", "PURE", "CONC", "HOT",
    }


def test_every_real_tree_suppression_is_load_bearing():
    # SUP002 would fire on any stale escape; a clean run proves every
    # hot-ok/allow marker in the tree still suppresses a finding.
    result = analyze(_repo_paths(), root=REPO_ROOT)
    stale = [f for f in result.new_findings if f.rule == "SUP002"]
    assert stale == [], "\n".join(str(f) for f in stale)
    assert result.suppressed_count > 0


def test_cli_check_mode_exits_zero(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE_DIR", str(tmp_path))
    code = main(["--check", "src", "tests", "benchmarks"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 new finding(s)" in out


def test_cli_warm_run_uses_the_cache(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE_DIR", str(tmp_path))
    assert main(["--check", "src"]) == 0
    capsys.readouterr()
    assert main(["--check", "--stats", "src"]) == 0
    err = capsys.readouterr().err
    assert "0 analyzed" in err
    assert "finalize cached" in err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET002", "CACHE002", "WRAP001", "SLOTS003",
                    "PURE001", "CONC001", "HOT001", "SUP002"):
        assert rule_id in out


def test_cli_json_mode(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE_DIR", str(tmp_path))
    code = main(["--json", "src"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert '"summary"' in out


def test_cli_nonzero_on_findings(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "# repro: scope[sim]\n"
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
    )
    monkeypatch.chdir(tmp_path)
    code = main([str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET002" in out


def test_experiments_analyze_alias_stays_in_sync(monkeypatch, tmp_path,
                                                 capsys):
    """`python -m repro.experiments analyze` forwards argv verbatim, so
    every repro.analysis flag -- including --no-cache/--stats -- works
    identically through the alias."""
    from repro.analysis.__main__ import build_parser
    from repro.experiments.__main__ import main as experiments_main

    # Parser-level parity: the canonical flag set is all present.
    options = {
        opt for action in build_parser()._actions
        for opt in action.option_strings
    }
    for flag in ("--check", "--json", "--list-rules", "--no-cache",
                 "--stats"):
        assert flag in options, f"{flag} missing from repro.analysis CLI"

    # Behavioural parity: the alias and the direct CLI agree bytewise.
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE_DIR", str(tmp_path))
    assert main(["--list-rules"]) == 0
    direct = capsys.readouterr().out
    assert experiments_main(["analyze", "--list-rules"]) == 0
    aliased = capsys.readouterr().out
    assert aliased == direct

    # JSON mode is timing-free, so the comparison is bytewise even
    # though the second (aliased) run is served warm from the cache.
    argv = ["--json", "src/repro/analysis"]
    assert main(argv) == 0
    direct = capsys.readouterr()
    assert experiments_main(["analyze", *argv]) == 0
    aliased = capsys.readouterr()
    assert aliased.out == direct.out
