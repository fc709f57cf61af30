"""Framework behaviour: suppressions and driver rules."""

from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.core import _derive_domains
from repro.analysis.checkers.det import DeterminismChecker
from repro.analysis.reporters import render_json, render_text

BAD_SNIPPET = (
    "# repro: scope[sim]\n"
    "import time\n"
    "def now():\n"
    "    return time.time()\n"
)


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def test_inline_suppression_with_reason_silences_finding(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    return time.time()  # repro: allow[DET002] wall-clock only",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok
    assert result.suppressed_count == 1


def test_suppression_on_preceding_comment_line(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    # repro: allow[DET002] wall-clock only\n    return time.time()",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok
    assert result.suppressed_count == 1


def test_rule_family_prefix_matches(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    return time.time()  # repro: allow[DET] whole family",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok


def test_reasonless_suppression_is_its_own_finding(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    return time.time()  # repro: allow[DET002]",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    rules = sorted(f.rule for f in result.new_findings)
    # The reasonless allow does not suppress, and is itself flagged.
    assert rules == ["DET002", "SUP001"]


def test_wrong_rule_suppression_does_not_silence(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    return time.time()  # repro: allow[PURE002] wrong family",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    # The wrong-family allow does not silence DET002.  It is not SUP002
    # either: PURE did not run, so this partial pass cannot call the
    # marker stale (a full default-checker run would).
    assert [f.rule for f in result.new_findings] == ["DET002"]


def test_stale_suppression_is_flagged(tmp_path):
    _write(
        tmp_path, "mod.py",
        "# repro: scope[sim]\n"
        "def fine():\n"
        "    return 1  # repro: allow[DET002] nothing here anymore\n",
    )
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert [f.rule for f in result.new_findings] == ["SUP002"]
    assert "allow[DET002]" in result.new_findings[0].message


def test_stale_hot_ok_is_flagged(tmp_path):
    _write(
        tmp_path, "mod.py",
        "# repro: scope[sim]\n"
        "def fine():\n"
        "    return 1  # repro: hot-ok[long-gone scratch buffer]\n",
    )
    from repro.analysis.checkers.hot import HotPathChecker

    result = analyze(
        [tmp_path], checkers=[HotPathChecker()], root=tmp_path
    )
    assert [f.rule for f in result.new_findings] == ["SUP002"]
    assert "hot-ok[...]" in result.new_findings[0].message


def test_suppression_for_inactive_family_is_not_stale(tmp_path):
    # A partial run (HOT checker left out) cannot prove the marker dead.
    _write(
        tmp_path, "mod.py",
        "# repro: scope[sim]\n"
        "def fine():\n"
        "    return 1  # repro: hot-ok[long-gone scratch buffer]\n",
    )
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok


def test_load_bearing_suppression_is_not_stale(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET.replace(
        "    return time.time()",
        "    return time.time()  # repro: allow[DET002] wall-clock only",
    ))
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok
    assert result.suppressed_count == 1


def test_syntax_error_reported_as_parse_finding(tmp_path):
    _write(tmp_path, "broken.py", "def half(:\n")
    result = analyze([tmp_path], checkers=[], root=tmp_path)
    assert [f.rule for f in result.new_findings] == ["PARSE001"]


def test_fixture_directories_are_excluded(tmp_path):
    nested = tmp_path / "pkg" / "fixtures"
    nested.mkdir(parents=True)
    _write(nested, "bad.py", BAD_SNIPPET)
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    assert result.ok
    assert len(result.files) == 0


def test_reporters_render(tmp_path):
    _write(tmp_path, "mod.py", BAD_SNIPPET)
    result = analyze(
        [tmp_path], checkers=[DeterminismChecker()], root=tmp_path
    )
    text = render_text(result)
    assert "DET002" in text
    assert "1 new finding(s)" in text
    payload = render_json(result)
    assert '"rule": "DET002"' in payload
    assert '"new": 1' in payload


@pytest.mark.parametrize("relpath, domains", [
    ("src/repro/sim/validation/probes.py", {"sim", "wrap-site"}),
    ("tests/validation/test_probes.py", set()),
    ("src/repro/sim/network.py", {"sim", "hot"}),
    ("src/repro/sim/routers/vc.py", {"sim", "hot"}),
    ("tests/sim/test_network.py", {"sim"}),
    ("tests/sim/test_allocators.py", {"sim"}),
    ("tests/sim/test_arbiters.py", {"sim"}),
    ("tests/sim/test_matching.py", {"sim"}),
    ("src/repro/runtime/cache.py", {"runtime"}),
])
def test_path_domains_match_basenames_exactly(relpath, domains):
    # A basename that merely ends like a hot module or a wrap site
    # (``test_network.py``, ``test_probes.py``) joins neither domain.
    assert _derive_domains(relpath) == domains
