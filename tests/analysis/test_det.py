"""DET checker: seeded bad fixtures fire, good fixtures stay silent."""

from repro.analysis.checkers.det import DeterminismChecker

from .conftest import run_analysis, rules_of


def _det_only(*paths):
    return run_analysis(*paths, checkers=[DeterminismChecker()])


def test_bad_fixture_fires_det002():
    result = _det_only("det_bad.py")
    # from-import + time.time + os.urandom
    assert rules_of(result) == ["DET002"] * 3


def test_good_fixture_is_silent():
    result = _det_only("det_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_det_rules_scoped_to_sim_and_delaymodel(tmp_path):
    # The same bad code outside the sim/delaymodel scope is not DET's
    # business (benchmarks legitimately read wall clocks).
    snippet = tmp_path / "bench_something.py"
    snippet.write_text(
        "import time\n\ndef now():\n    return time.time()\n"
    )
    result = run_analysis(
        snippet, checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok


def test_surrogate_scope_inherits_determinism_rules():
    # The surrogate domain is deterministic code: wall-clock sources
    # fire exactly as they would under sim/delaymodel.
    result = _det_only("surrogate_bad.py")
    assert rules_of(result) == ["DET002"]  # time.perf_counter()


def test_real_surrogate_is_deterministic():
    from .conftest import REPO_ROOT

    result = _det_only(REPO_ROOT / "src/repro/surrogate")
    assert result.ok, [str(f) for f in result.new_findings]
