"""CONC lock-discipline checker: fixtures plus the estimator drift test."""

from pathlib import Path

from repro.analysis.checkers.conc import ConcurrencyChecker

from .conftest import REPO_ROOT, run_analysis, rules_of

ESTIMATOR = REPO_ROOT / "src" / "repro" / "runtime" / "estimator.py"


def _conc(*paths, root=None):
    return run_analysis(*paths, checkers=[ConcurrencyChecker()], root=root)


def test_good_fixture_is_clean():
    result = _conc("conc_good.py")
    assert result.ok, "\n".join(str(f) for f in result.new_findings)


def test_bad_fixture_unguarded_and_misguarded_writes():
    result = _conc("conc_bad.py")
    assert rules_of(result) == ["CONC001", "CONC001"]


def test_conc001_names_the_declared_lock():
    result = _conc("conc_bad.py")
    declared = [
        f for f in result.new_findings if "Racy.declared" in f.message
    ]
    assert len(declared) == 1
    assert "LOCKED_BY" in declared[0].message
    assert "_lock" in declared[0].message


def test_rules_scoped_to_runtime_domain(tmp_path):
    # The same bad code outside the runtime domain is not CONC's business.
    bad = (REPO_ROOT / "tests" / "analysis" / "fixtures" / "conc_bad.py")
    unscoped = tmp_path / "mod.py"
    unscoped.write_text(
        bad.read_text().replace("# repro: scope[runtime]\n", "")
    )
    result = _conc(str(unscoped), root=tmp_path)
    assert result.ok


# ----------------------------------------------------------------------
# Drift test: strip a lock acquisition from a copy of the real
# estimator and the checker must notice.
# ----------------------------------------------------------------------


def _estimator_copy(tmp_path: Path, text: str) -> Path:
    copy = tmp_path / "estimator_copy.py"
    copy.write_text("# repro: scope[runtime]\n" + text)
    return copy


def test_real_estimator_copy_is_clean(tmp_path):
    copy = _estimator_copy(tmp_path, ESTIMATOR.read_text())
    result = _conc(str(copy), root=tmp_path)
    conc = [f for f in result.new_findings if f.rule.startswith("CONC")]
    assert conc == [], "\n".join(str(f) for f in conc)


def test_drain_loop_without_idle_lock_trips_conc001(tmp_path):
    source = ESTIMATOR.read_text()
    guarded = (
        "            with self._idle:\n"
        "                self._inflight -= len(batch)"
    )
    stripped = source.replace(
        guarded,
        guarded.replace("with self._idle:", "if True:"),
    )
    assert stripped != source, "estimator drain-loop shape drifted"
    copy = _estimator_copy(tmp_path, stripped)
    result = _conc(str(copy), root=tmp_path)
    conc001 = [f for f in result.new_findings if f.rule == "CONC001"]
    assert any("_inflight" in f.message for f in conc001), (
        "\n".join(str(f) for f in result.new_findings)
    )
