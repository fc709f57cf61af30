"""WRAP checker: probe-point resolution, including the live drift test
that renames a wrapped method in a throwaway copy of the real tree."""

import shutil
from pathlib import Path

from repro.analysis.checkers.wrap import WrapTargetChecker, collect_wrap_sites
from repro.analysis.core import SourceFile

from .conftest import FIXTURES, run_analysis, rules_of

REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"


def _wrap_only(*paths, root=None):
    return run_analysis(*paths, checkers=[WrapTargetChecker()], root=root)


def test_bad_fixture_fires_on_every_orphaned_target():
    result = _wrap_only("wrap_bad_collectors.py", "wrap_routers.py")
    rules = rules_of(result)
    assert rules == ["WRAP001"] * 3
    attrs = {f.message.split("'")[1] for f in result.new_findings}
    assert attrs == {"_cross_traverse", "_speculative_alloc"}


def test_good_fixture_is_silent():
    result = _wrap_only("wrap_good_collectors.py", "wrap_routers.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_site_collection_finds_all_three_idioms():
    source = SourceFile(
        FIXTURES / "wrap_good_collectors.py", root=FIXTURES.parent
    )
    kinds = {(s.kind, s.attr) for s in collect_wrap_sites(source)}
    assert ("monkeypatch", "_traverse") in kinds
    assert ("getattr", "_spec_allocator") in kinds
    assert ("dict-probe", "_traverse") in kinds


def test_real_probe_points_resolve():
    """The repository's own probes must resolve today."""
    result = _wrap_only(
        REPO_SRC / "repro/sim/validation/probes.py",
        REPO_SRC / "repro/sim/routers",
        REPO_SRC / "repro/sim/network.py",
        REPO_SRC / "repro/sim/traffic.py",
        root=REPO_SRC.parent,
    )
    assert result.ok, [str(f) for f in result.new_findings]


def test_renaming_wrapped_method_fails_lint(tmp_path):
    """The drift test: rename ``Sink.accept`` in a throwaway copy of the
    network module and the in-order probe's wrap site must stop
    resolving."""
    tree = tmp_path / "mini"
    tree.mkdir()
    shutil.copy(
        REPO_SRC / "repro/sim/validation/probes.py", tree / "probes.py"
    )
    shutil.copy(
        REPO_SRC / "repro/sim/routers/spec_vc.py", tree / "spec_vc.py"
    )
    network = tree / "network.py"
    shutil.copy(REPO_SRC / "repro/sim/network.py", network)

    clean = _wrap_only(tree, root=tmp_path)
    assert clean.ok, [str(f) for f in clean.new_findings]

    renamed = network.read_text().replace("def accept(", "def take(")
    network.write_text(renamed)
    dirty = _wrap_only(tree, root=tmp_path)
    assert "WRAP001" in rules_of(dirty)
    assert any(
        "'accept'" in f.message for f in dirty.new_findings
    ), [str(f) for f in dirty.new_findings]
