"""Command-line entry point for the invariant linter.

Usage::

    python -m repro.analysis                          # lint src tests benchmarks
    python -m repro.analysis --check src tests        # CI gate (quiet)
    python -m repro.analysis --json src               # machine-readable
    python -m repro.analysis --list-rules             # rule catalogue
    python -m repro.analysis --no-cache src           # force a cold run
    python -m repro.analysis --stats --check src      # timings to stderr

Exit status is 0 when no unsuppressed findings remain, 1 otherwise, 2
on usage errors.  The incremental finding cache lives in
``./.analysis-cache`` (override with ``$REPRO_ANALYSIS_CACHE_DIR``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .cache import AnalysisCache
from .driver import analyze, iter_rules
from .reporters import render_json, render_stats, render_text

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter: determinism, cache-key "
                    "completeness, probe-point drift, __slots__ hygiene, "
                    "delay-model purity, lock discipline, hot-path "
                    "discipline.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tests benchmarks, "
             "whichever exist)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: print only failures and the summary line",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="analyze every module cold, ignoring the incremental cache "
             "($REPRO_ANALYSIS_CACHE_DIR, default ./.analysis-cache)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-checker timings and cache behaviour to stderr",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id:10s} {rule.severity:8s} {rule.summary}")
        return 0

    paths = args.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
    if not paths:
        print("repro.analysis: no paths given and none of "
              f"{', '.join(DEFAULT_PATHS)} exist", file=sys.stderr)
        return 2

    cache = None if args.no_cache else AnalysisCache()
    try:
        result = analyze(paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    if args.stats:
        print(render_stats(result), file=sys.stderr)

    if args.as_json:
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
