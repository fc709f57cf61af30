"""Text and JSON rendering of an analysis run."""

from __future__ import annotations

import json
from typing import Dict, List

from .core import Finding


def render_text(result) -> str:
    """Human-readable report: one line per new finding, then a summary."""
    lines: List[str] = []
    for finding in sorted(result.new_findings, key=Finding.sort_key):
        lines.append(str(finding))
    lines.append(render_summary(result))
    return "\n".join(lines)


def render_summary(result) -> str:
    per_rule: Dict[str, int] = {}
    for finding in result.new_findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    breakdown = (
        " (" + ", ".join(
            f"{rule}:{count}" for rule, count in sorted(per_rule.items())
        ) + ")"
        if per_rule else ""
    )
    return (
        f"repro.analysis: {len(result.new_findings)} new finding(s)"
        f"{breakdown}, {result.suppressed_count} suppressed, "
        f"{len(result.files)} file(s), "
        f"{result.checker_count} checker(s), "
        f"{result.elapsed_seconds:.2f}s"
    )


def render_json(result) -> str:
    """Machine-readable report (stable key order) for CI artifacts."""
    payload = {
        "findings": [
            f.to_dict()
            for f in sorted(result.new_findings, key=Finding.sort_key)
        ],
        "summary": {
            # No timings here: a warm (cached) run must render
            # byte-identically to a cold one; --stats carries them.
            "new": len(result.new_findings),
            "suppressed": result.suppressed_count,
            "files": len(result.files),
            "checkers": result.checker_count,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_stats(result) -> str:
    """Per-checker timings and cache behaviour (for ``--stats``).

    Goes to stderr so it never perturbs the machine-readable report.
    """
    stats = result.stats
    lines = [
        f"modules: {stats.modules_analyzed} analyzed, "
        f"{stats.modules_cached} cached"
        + (", finalize cached" if stats.finalize_cached else "")
        + f", {stats.elapsed_seconds:.2f}s"
    ]
    for name in sorted(
        stats.checker_seconds, key=stats.checker_seconds.get, reverse=True
    ):
        lines.append(f"  {name:8s} {stats.checker_seconds[name]:7.3f}s")
    return "\n".join(lines)
