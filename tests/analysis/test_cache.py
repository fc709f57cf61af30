"""CACHE checker: cache-key completeness, including the live drift test
that adds an unfingerprinted field to a throwaway config tree."""

import shutil
from pathlib import Path

from repro.analysis.checkers.cache import CacheKeyChecker

from .conftest import FIXTURES, run_analysis, rules_of


def _cache_only(*paths, root=None):
    return run_analysis(*paths, checkers=[CacheKeyChecker()], root=root)


def test_bad_fixture_flags_every_unkeyed_field():
    result = _cache_only("cache_bad.py")
    rules = rules_of(result)
    assert rules.count("CACHE001") == 5
    assert rules.count("CACHE002") == 1
    flagged = {f.message.split(" ")[0] for f in result.new_findings}
    assert flagged == {
        "SimConfig.debug_label",
        "SimConfig.telemetry",
        "SimConfig.SCHEMA_HINT",
        "TelemetryConfig.sample_period",
        "MeasurementConfig.warmup_cycles",
        "MeasurementConfig.sample_packets",
    }


def test_good_fixture_is_silent():
    result = _cache_only("cache_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_explicit_reads_good_fixture_is_silent():
    # Field-by-field reads, asdict() on the nested telemetry dataclass
    # only.
    result = _cache_only("cache_explicit_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_explicit_reads_bad_fixture_names_the_dropped_read():
    # asdict(config.telemetry) covers TelemetryConfig -- not the rest
    # of SimConfig, so the one field no longer read is the one named.
    result = _cache_only("cache_explicit_bad.py")
    assert rules_of(result) == ["CACHE001"]
    assert result.new_findings[0].message.startswith("SimConfig.seed ")


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
    nor ``dataclasses.fields`` sees it.  That is what CACHE002 guards;
    a real field nobody reads into the key is the next test's."""
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


def test_adding_a_field_or_dropping_a_read_in_real_tree_fails(tmp_path):
    """The real ``config_key`` reads its fields one by one, so a new
    dataclass field is unkeyed until it is read there, and every read
    is load-bearing: CACHE001 names exactly the field in each case."""
    repo_src = Path(__file__).resolve().parent.parent.parent / "src"
    tree = tmp_path / "mini"
    tree.mkdir()
    shutil.copy(repo_src / "repro/sim/config.py", tree / "config.py")
    shutil.copy(repo_src / "repro/runtime/cache.py", tree / "cache.py")
    shutil.copy(
        repo_src / "repro/telemetry/config.py", tree / "telemetry_config.py"
    )

    config = tree / "config.py"
    pristine = config.read_text()
    anchor = "    seed: int = 1\n"
    assert anchor in pristine
    config.write_text(pristine.replace(
        anchor, anchor + "    fresh_knob: int = 0\n", 1
    ))
    grown = _cache_only(tree, root=tmp_path)
    assert rules_of(grown) == ["CACHE001"]
    assert "SimConfig.fresh_knob" in grown.new_findings[0].message
    config.write_text(pristine)

    cache = tree / "cache.py"
    text = cache.read_text()
    for read, field_name in (
        ('        "seed": config.seed,\n', "SimConfig.seed"),
        ("        measurement.drain_cycles,\n",
         "MeasurementConfig.drain_cycles"),
    ):
        assert text.count(read) == 1
        cache.write_text(text.replace(read, ""))
        dropped = _cache_only(tree, root=tmp_path)
        assert rules_of(dropped) == ["CACHE001"]
        assert field_name in dropped.new_findings[0].message


def test_exempt_field_via_module_set(tmp_path):
    snippet = tmp_path / "mod.py"
    snippet.write_text(
        "import hashlib, json\n"
        "from dataclasses import asdict, dataclass\n"
        "CACHE_KEY_EXEMPT = {'SimConfig.note'}\n"
        "@dataclass\n"
        "class SimConfig:\n"
        "    seed: int = 1\n"
        "    note: str = ''\n"
        "def config_key(config: SimConfig) -> str:\n"
        "    return hashlib.sha256(\n"
        "        json.dumps({'seed': config.seed}).encode()).hexdigest()\n"
    )
    result = _cache_only(snippet, root=tmp_path)
    assert result.ok, [str(f) for f in result.new_findings]


def test_silent_without_key_function(tmp_path):
    # Completeness is undecidable without the key construction in view.
    snippet = tmp_path / "configs.py"
    snippet.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SimConfig:\n"
        "    seed: int = 1\n"
    )
    result = _cache_only(snippet, root=tmp_path)
    assert result.ok
