"""Helpers for the analysis-checker tests."""

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def run_analysis(*paths, checkers=None, root=None):
    """Analyze ``paths`` (absolute or fixture-relative) and return the
    result."""
    from repro.analysis import analyze

    resolved = [
        p if Path(p).is_absolute() else FIXTURES / p for p in paths
    ]
    return analyze(
        resolved,
        checkers=checkers,
        root=root or REPO_ROOT,
    )


def rules_of(result):
    """Sorted rule ids of the result's new findings."""
    return sorted(f.rule for f in result.new_findings)
