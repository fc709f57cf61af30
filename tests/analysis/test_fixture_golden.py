"""Golden: every finding the checkers raise on the fixture corpus.

The checker tests assert rule ids; this pins the full finding records
(rule, severity, path, line, message, checker) so a refactor of how the
checkers walk the AST cannot move a line number or reword a message
unnoticed.  Each fixture is analysed alone and all fixtures together
(the cross-file index then sees every fixture class at once).

When an intentional change moves findings, regenerate with::

    PYTHONPATH=src python -m pytest tests/analysis/test_fixture_golden.py --update-goldens

and explain the diff alongside the change that caused it.
"""

import json
from pathlib import Path

from .conftest import FIXTURES, run_analysis

GOLDEN = Path(__file__).parent / "goldens" / "fixture_findings.json"


def fixture_findings() -> dict:
    """Findings per fixture analysed alone, and over all of them."""
    names = sorted(path.name for path in FIXTURES.glob("*.py"))
    return {
        "alone": {
            name: [f.to_dict() for f in run_analysis(name).all_findings]
            for name in names
        },
        "together": [
            f.to_dict() for f in run_analysis(*names).all_findings
        ],
    }


def render() -> str:
    return json.dumps(fixture_findings(), indent=2, sort_keys=True) + "\n"


def test_fixture_findings_golden(request):
    rendered = render()
    if request.config.getoption("--update-goldens"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(rendered)
        return
    assert rendered == GOLDEN.read_text(), (
        f"fixture findings diverged from {GOLDEN.name}; if the change is "
        f"intentional, rerun with --update-goldens and explain the diff"
    )
