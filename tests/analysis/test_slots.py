"""SLOTS checker: pickled dataclass hygiene."""

from repro.analysis.checkers.slots import SlotsChecker

from .conftest import run_analysis, rules_of


def _slots_only(*paths, root=None):
    return run_analysis(*paths, checkers=[SlotsChecker()], root=root)


def test_bad_fixture_fires_pickle_rule():
    result = _slots_only("slots_bad.py")
    assert rules_of(result) == ["SLOTS003"]
    assert "run_label" in result.new_findings[0].message


def test_good_fixture_is_silent():
    result = _slots_only("slots_good.py")
    assert result.ok, [str(f) for f in result.new_findings]
