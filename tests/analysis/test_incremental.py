"""Incremental driver: cache round-trip, warm-run identity, invalidation."""

import json
from pathlib import Path

from repro.analysis import AnalysisCache, analyze
from repro.analysis.cache import module_key, project_key
from repro.analysis.core import Finding
from repro.analysis.reporters import render_json

GOOD = "def fine():\n    return 1\n"
BAD = (
    "# repro: scope[sim]\n"
    "import time\n"
    "def now():\n"
    "    return time.time()\n"
)


def _tree(tmp_path: Path) -> Path:
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "good.py").write_text(GOOD)
    (src / "bad.py").write_text(BAD)
    return src


def test_cache_round_trip(tmp_path):
    cache = AnalysisCache(tmp_path / "cache")
    findings = [
        Finding(rule="DET002", severity="error", path="a.py", line=3,
                message="m", checker="det"),
    ]
    key = module_key("fp", "sig", "rules")
    assert cache.get(key) is None  # recorded miss
    cache.put(key, findings)
    assert key in cache
    assert cache.get(key) == findings
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_keys_separate_module_index_and_ruleset():
    base = module_key("fp", "sig", "rules")
    assert module_key("fp2", "sig", "rules") != base
    assert module_key("fp", "sig2", "rules") != base
    assert module_key("fp", "sig", "rules2") != base
    # Project keys are order-independent over the module set.
    assert project_key(["a", "b"], "sig", "rules") == project_key(
        ["b", "a", "a"], "sig", "rules"
    )
    assert project_key(["a"], "sig", "rules") != module_key(
        "a", "sig", "rules"
    )


def test_warm_run_reanalyzes_nothing(tmp_path):
    src = _tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    cold = analyze([src], root=tmp_path, cache=cache)
    assert cold.stats.modules_analyzed == 2
    assert cold.stats.modules_cached == 0
    warm = analyze([src], root=tmp_path, cache=cache)
    assert warm.stats.modules_analyzed == 0
    assert warm.stats.modules_cached == 2
    assert warm.stats.finalize_cached


def test_warm_json_is_byte_identical(tmp_path):
    src = _tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    cold = analyze([src], root=tmp_path, cache=cache)
    warm = analyze([src], root=tmp_path, cache=cache)
    assert render_json(warm) == render_json(cold)
    assert not cold.ok  # the run exercised real findings, not no-ops
    payload = json.loads(render_json(warm))
    assert "elapsed" not in json.dumps(payload)  # timings never leak in


def test_comment_edit_keeps_other_modules_warm(tmp_path):
    src = _tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze([src], root=tmp_path, cache=cache)
    (src / "good.py").write_text("# a new comment\n" + GOOD)
    second = analyze([src], root=tmp_path, cache=cache)
    # Only the edited module went cold; the index signature is
    # unchanged by a comment, so bad.py stayed cached.
    assert second.stats.modules_analyzed == 1
    assert second.stats.modules_cached == 1


def test_structural_edit_rotates_the_project_entry(tmp_path):
    src = _tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze([src], root=tmp_path, cache=cache)
    (src / "good.py").write_text(GOOD + "def extra():\n    return 2\n")
    second = analyze([src], root=tmp_path, cache=cache)
    assert not second.stats.finalize_cached


def test_no_cache_analyzes_cold_every_time(tmp_path):
    src = _tree(tmp_path)
    first = analyze([src], root=tmp_path)
    second = analyze([src], root=tmp_path)
    for result in (first, second):
        assert result.stats.modules_analyzed == 2
        assert result.stats.modules_cached == 0
        assert not result.stats.finalize_cached


def test_findings_identical_with_and_without_cache(tmp_path):
    src = _tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze([src], root=tmp_path, cache=cache)  # populate
    warm = analyze([src], root=tmp_path, cache=cache)
    cold = analyze([src], root=tmp_path)
    assert warm.new_findings == cold.new_findings
