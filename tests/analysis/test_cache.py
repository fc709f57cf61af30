"""CACHE checker: class-level config state the cache key never reads,
including the live drift test that adds a class-level knob to a
throwaway copy of the real config tree."""

import shutil
from pathlib import Path

from repro.analysis.checkers.cache import CacheKeyChecker

from .conftest import FIXTURES, run_analysis, rules_of


def _cache_only(*paths, root=None):
    return run_analysis(*paths, checkers=[CacheKeyChecker()], root=root)


def test_bad_fixture_flags_every_unkeyed_field():
    result = _cache_only("cache_bad.py")
    assert rules_of(result) == ["CACHE002"]
    (finding,) = result.new_findings
    assert finding.message.startswith("SimConfig.SCHEMA_HINT ")


def test_good_fixture_is_silent():
    result = _cache_only("cache_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_findings_point_at_field_definition_lines():
    result = _cache_only("cache_bad.py")
    text = (FIXTURES / "cache_bad.py").read_text().splitlines()
    for finding in result.new_findings:
        field_name = finding.message.split(" ")[0].split(".")[1]
        assert field_name in text[finding.line - 1]


def test_adding_unfingerprinted_field_to_real_tree_fails(tmp_path):
    """The drift test: copy the real config + cache modules and add one
    unfingerprinted knob to SimConfig; the lint must fail on exactly it.

    Class-level state is not a dataclass field, so neither ``asdict``
    nor ``dataclasses.fields`` sees it, and the reference-recipe tests
    in ``tests/runtime/test_cache.py`` pass with it.  That is what
    CACHE002 guards."""
    repo_src = Path(__file__).resolve().parent.parent.parent / "src"
    tree = tmp_path / "mini"
    tree.mkdir()
    shutil.copy(repo_src / "repro/sim/config.py", tree / "config.py")
    shutil.copy(repo_src / "repro/runtime/cache.py", tree / "cache.py")
    shutil.copy(
        repo_src / "repro/telemetry/config.py", tree / "telemetry_config.py"
    )

    clean = _cache_only(tree, root=tmp_path)
    assert clean.ok, [str(f) for f in clean.new_findings]

    config = tree / "config.py"
    text = config.read_text()
    anchor = "    seed: int = 1\n"
    assert anchor in text
    config.write_text(text.replace(
        anchor, anchor + "    sneaky_knob = 0\n", 1
    ))
    dirty = _cache_only(tree, root=tmp_path)
    assert rules_of(dirty) == ["CACHE002"]
    assert "SimConfig.sneaky_knob" in dirty.new_findings[0].message


def test_silent_without_key_function(tmp_path):
    # The rule is undecidable without the key construction in view.
    snippet = tmp_path / "configs.py"
    snippet.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SimConfig:\n"
        "    SCHEMA = 1\n"
        "    seed: int = 1\n"
    )
    result = _cache_only(snippet, root=tmp_path)
    assert result.ok
