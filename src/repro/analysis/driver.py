"""Analysis driver: collect, index, check -- incrementally.

The driver owns the framework-level rules:

* ``PARSE001`` -- a file in the analyzed set does not parse;
* ``SUP001`` -- a ``# repro: allow[...]`` suppression without a reason
  (silent blanket waivers are themselves findings);
* ``SUP002`` -- a suppression (``allow[...]`` or ``hot-ok[...]``) that
  no longer matches any finding: stale escapes cannot accumulate.

Incrementality: when an :class:`~repro.analysis.cache.AnalysisCache`
is attached, each module's raw ``check_file`` findings are cached under
a key built from the module's content fingerprint, the project index
signature, and the rule-set fingerprint; the combined ``finalize``
findings are cached per project under the sorted module-fingerprint
set.  A warm run re-analyzes zero unchanged modules and renders
byte-identical JSON, because suppression filtering and SUP001/SUP002
always run fresh over the (cached) raw findings.

Checkers are stateless (``check_file`` is a pure function of the source
and the completed index); cold modules are checked in one plain loop in
collection order -- per-file checking is GIL-bound pure Python, so a
thread fan-out measured no faster than this loop.

Directories named ``fixtures`` (and caches/VCS internals) are excluded
by default: the checker test fixtures under ``tests/analysis/fixtures``
contain deliberately-bad code that must not fail the repository's own
``--check`` run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .cache import AnalysisCache, module_key, project_key, ruleset_fingerprint
from .core import Checker, Finding, SourceFile, Suppression
from .index import ProjectIndex

#: Directory names never descended into.
EXCLUDED_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".venv", "fixtures", "build", "dist",
     ".analysis-cache"}
)


@dataclass
class AnalysisStats:
    """Where one run's time went and what the cache did.

    Never part of the JSON report -- warm and cold runs must render
    identically; ``--stats`` prints this to stderr instead.
    """

    modules_analyzed: int = 0
    modules_cached: int = 0
    finalize_cached: bool = False
    #: Attributed seconds per checker name; ``check_file`` and
    #: ``finalize`` time both land on the checker that spent it.
    checker_seconds: Dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def merge_timings(self, timings: Dict[str, float]) -> None:
        for name, seconds in timings.items():
            self.checker_seconds[name] = (
                self.checker_seconds.get(name, 0.0) + seconds
            )


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    files: List[SourceFile] = field(default_factory=list)
    new_findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    checker_count: int = 0
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    @property
    def ok(self) -> bool:
        return not self.new_findings

    @property
    def all_findings(self) -> List[Finding]:
        return list(self.new_findings)

    @property
    def elapsed_seconds(self) -> float:
        return self.stats.elapsed_seconds


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            relative_parts = candidate.relative_to(path).parts[:-1]
            if any(part in EXCLUDED_DIR_NAMES for part in relative_parts):
                continue
            seen.setdefault(candidate.resolve(), None)
    return list(seen)


def analyze(
    paths: Sequence[Union[str, Path]],
    checkers: Optional[Sequence[Checker]] = None,
    root: Union[str, Path, None] = None,
    cache: Optional[AnalysisCache] = None,
) -> AnalysisResult:
    """Run ``checkers`` (default: the full project set) over ``paths``.

    ``cache`` is opt-in: without one every module is analyzed cold
    (the hermetic default the test suite relies on).
    """
    from .checkers import default_checkers

    # repro: allow[DET002] wall-clock stats reporting only; never in findings
    started = time.perf_counter()
    stats = AnalysisStats()
    active = list(checkers) if checkers is not None else default_checkers()
    for checker in active:
        checker.reset()
    base = Path(root) if root is not None else Path.cwd()

    sources: List[SourceFile] = []
    driver_findings: List[Finding] = []
    for path in collect_files(paths):
        source = SourceFile(path, root=base)
        sources.append(source)
        if source.syntax_error is not None:
            driver_findings.append(Finding(
                rule="PARSE001",
                severity="error",
                path=source.relpath,
                line=source.syntax_error.lineno or 1,
                message=f"file does not parse: {source.syntax_error.msg}",
                checker="driver",
            ))
        for suppression in source.suppressions:
            if not suppression.has_reason:
                if suppression.kind == "hot-ok":
                    hint = ("the bracket content is the reason; write "
                            "'# repro: hot-ok[<why>]'")
                else:
                    hint = (f"write '# repro: allow[{suppression.rule_id}]"
                            f" <why>'")
                driver_findings.append(Finding(
                    rule="SUP001",
                    severity="error",
                    path=source.relpath,
                    line=suppression.line,
                    message=(
                        f"suppression {suppression.spelling} has no "
                        f"reason; {hint}"
                    ),
                    checker="driver",
                ))

    index = ProjectIndex()
    for source in sources:
        index.add_file(source)

    signature = index.signature() if cache is not None else ""
    ruleset = ruleset_fingerprint() if cache is not None else ""

    file_findings = _check_files(
        sources, index, active, cache, signature, ruleset, stats,
    )
    finalize_findings = _finalize(
        index, active, cache, signature, ruleset, stats,
    )

    raw_findings = list(driver_findings)
    for source in sources:
        raw_findings.extend(file_findings.get(source.relpath, ()))
    raw_findings.extend(finalize_findings)

    by_path: Dict[str, SourceFile] = {s.relpath: s for s in sources}
    kept: List[Finding] = []
    suppressed = 0
    used: Set[Tuple[str, Suppression]] = set()
    for finding in raw_findings:
        source = by_path.get(finding.path)
        if (
            source is not None
            and finding.rule not in ("SUP001", "SUP002", "PARSE001")
        ):
            matching = source.suppressors(finding.rule, finding.line)
            if matching:
                suppressed += 1
                for sup in matching:
                    used.add((source.relpath, sup))
                continue
        kept.append(finding)
    active_rules = {
        rule.id for checker in active for rule in checker.rules
    }
    kept.extend(_stale_suppressions(sources, used, active_rules))
    kept.sort(key=Finding.sort_key)

    stats.elapsed_seconds = time.perf_counter() - started  # repro: allow[DET002] wall-clock stats reporting only
    return AnalysisResult(
        files=sources,
        new_findings=kept,
        suppressed_count=suppressed,
        checker_count=len(active),
        stats=stats,
    )


def _check_files(
    sources: List[SourceFile],
    index: ProjectIndex,
    active: List[Checker],
    cache: Optional[AnalysisCache],
    signature: str,
    ruleset: str,
    stats: AnalysisStats,
) -> Dict[str, List[Finding]]:
    """Per-file pass: serve warm modules from the cache, check the rest."""
    file_findings: Dict[str, List[Finding]] = {}
    for source in sources:
        key: Optional[str] = None
        if cache is not None:
            record = index.modules[source.relpath]
            key = module_key(record.fingerprint, signature, ruleset)
            cached = cache.get(key)
            if cached is not None:
                file_findings[source.relpath] = cached
                stats.modules_cached += 1
                continue
        findings: List[Finding] = []
        for checker in active:
            # repro: allow[DET002] wall-clock stats reporting only
            t0 = time.perf_counter()
            findings.extend(checker.check_file(source, index))
            stats.merge_timings(
                # repro: allow[DET002] wall-clock stats reporting only
                {checker.name: time.perf_counter() - t0}
            )
        file_findings[source.relpath] = findings
        stats.modules_analyzed += 1
        if key is not None:
            cache.put(key, findings)
    return file_findings


def _finalize(
    index: ProjectIndex,
    active: List[Checker],
    cache: Optional[AnalysisCache],
    signature: str,
    ruleset: str,
    stats: AnalysisStats,
) -> List[Finding]:
    """Cross-file pass, cached per project (sorted module fingerprints)."""
    key: Optional[str] = None
    if cache is not None:
        key = project_key(
            [record.fingerprint for record in index.modules.values()],
            signature, ruleset,
        )
        cached = cache.get(key)
        if cached is not None:
            stats.finalize_cached = True
            return cached

    findings: List[Finding] = []
    for checker in active:
        # repro: allow[DET002] wall-clock stats reporting only
        t0 = time.perf_counter()
        findings.extend(checker.finalize(index))
        stats.merge_timings(
            # repro: allow[DET002] wall-clock stats reporting only
            {checker.name: time.perf_counter() - t0}
        )
    if cache is not None and key is not None:
        cache.put(key, findings)
    return findings


def _stale_suppressions(
    sources: List[SourceFile],
    used: Set[Tuple[str, Suppression]],
    active_rules: Set[str],
) -> Iterable[Finding]:
    """SUP002 for every reasoned suppression that matched no finding.

    Staleness is judged against the *active* rule set: a ``hot-ok``
    escape is not stale just because a partial run left the HOT checker
    out -- only a full run can prove a marker dead.
    """
    for source in sources:
        for sup in source.suppressions:
            if not sup.has_reason:
                continue  # already SUP001
            if (source.relpath, sup) in used:
                continue
            if not any(sup.matches(rule) for rule in active_rules):
                continue  # the suppressed family did not run
            yield Finding(
                rule="SUP002",
                severity="error",
                path=source.relpath,
                line=sup.line,
                message=(
                    f"stale suppression: {sup.spelling} matches no finding"
                    f" on this line; remove the marker (or fix the code it"
                    f" was excusing)"
                ),
                checker="driver",
            )


def iter_rules(checkers: Optional[Iterable[Checker]] = None):
    """Every rule the analyzer can emit (for ``--list-rules`` and docs)."""
    from .checkers import default_checkers

    from .core import Rule

    yield Rule("PARSE001", "file in the analyzed set does not parse")
    yield Rule("SUP001", "allow[...] suppression without a reason")
    yield Rule("SUP002", "suppression that no longer matches any finding")
    for checker in (checkers if checkers is not None else default_checkers()):
        for rule in checker.rules:
            yield rule
