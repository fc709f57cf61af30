"""PURE checker: delay-model purity rules."""

from repro.analysis.checkers.pure import PurityChecker

from .conftest import run_analysis, rules_of


def _pure_only(*paths, root=None):
    return run_analysis(*paths, checkers=[PurityChecker()], root=root)


def test_bad_fixture_fires_both_rules():
    result = _pure_only("pure_bad.py")
    rules = rules_of(result)
    assert rules.count("PURE001") == 1  # global _CALLS
    assert rules.count("PURE002") == 2  # print + open


def test_good_fixture_is_silent():
    result = _pure_only("pure_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_rules_scoped_to_delaymodel(tmp_path):
    # Identical code outside the delaymodel domain is not PURE's
    # business (the experiments layer prints reports all day).
    snippet = tmp_path / "report.py"
    snippet.write_text(
        "ROWS = []\n"
        "def render(row):\n"
        "    ROWS.append(row)\n"
        "    print(row)\n"
    )
    result = _pure_only(snippet, root=tmp_path)
    assert result.ok


def test_real_delaymodel_is_pure():
    from .conftest import REPO_ROOT

    result = _pure_only(
        REPO_ROOT / "src/repro/delaymodel", root=REPO_ROOT
    )
    assert result.ok, [str(f) for f in result.new_findings]


def test_surrogate_scope_inherits_purity_rules():
    # The surrogate domain (path-derived or via scope[surrogate])
    # carries the same purity contract as the delay model.
    result = _pure_only("surrogate_bad.py")
    rules = rules_of(result)
    assert rules.count("PURE001") == 1  # global _TOTAL
    assert rules.count("PURE002") == 1  # print


def test_real_surrogate_is_pure():
    from .conftest import REPO_ROOT

    result = _pure_only(
        REPO_ROOT / "src/repro/surrogate", root=REPO_ROOT
    )
    assert result.ok, [str(f) for f in result.new_findings]
