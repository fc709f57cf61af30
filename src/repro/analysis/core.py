"""Framework primitives: rules, findings, parsed sources, checker base.

Everything here is pure stdlib (``ast`` + ``re``): the analyzer must be
importable and fast in any environment the simulator runs in, including
the dependency-free CI container.

The node table
--------------
Each :class:`SourceFile` is traversed once, into ``nodes`` (preorder)
and ``end`` (``nodes[i:end[i]]`` is what ``ast.walk(nodes[i])`` visits).
Scopes are the module and every function; a scope's ``own`` nodes skip
the functions nested in it.  Facts carry preorder indices, so no
node-to-index map exists.

Suppressions
------------
A finding is suppressed by an inline comment on the finding's line or on
a comment-only line directly above it::

    t0 = time.perf_counter()  # repro: allow[DET002] wall-clock stats only

The bracketed id may be a full rule id (``DET002``) or a rule-family
prefix (``DET``).  A reason is required -- a bare ``allow[...]`` is
itself reported as a malformed suppression (rule ``SUP001``) so silent
blanket waivers cannot accumulate, and a suppression that no longer
matches any finding is reported as stale (rule ``SUP002``).

The hot-path checker has a dedicated escape spelled
``# repro: hot-ok[reason]``: the bracket content *is* the reason, and
the marker suppresses every HOT rule on that line.  It parses into the
same :class:`Suppression` machinery (``rule_id="HOT"``), so staleness
and missing-reason detection apply to it identically.

Scopes
------
Checkers decide where a rule applies by *domain* (``sim``, ``delaymodel``,
``surrogate``, ``runtime``, ``analysis``, ``hot``, ``wrap-site``),
normally derived from the file's repository path.  A fixture outside the
real tree can opt into a domain explicitly with a
``# repro: scope[sim, hot]`` comment, which is how the checker test
fixtures exercise path-scoped rules from ``tests/analysis/``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

#: Basenames of the per-cycle modules: routers, allocators, arbiters,
#: and the stepper -- where the HOT rules look for their roots.
HOT_BASENAMES = (
    "allocators.py",
    "arbiters.py",
    "matching.py",
    "network.py",
    "engine.py",
    "channel.py",
    "credit.py",
    "buffers.py",
)

#: Basenames of the modules that wrap string-named attributes on sim
#: objects (probe monkeypatch sites).
WRAP_SITE_BASENAMES = ("probes.py",)

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_-]+)\]\s*(\S?)")
_HOT_OK_RE = re.compile(r"#\s*repro:\s*hot-ok\[([^\]]*)\]")
_SCOPE_RE = re.compile(r"#\s*repro:\s*scope\[([A-Za-z0-9_,\s-]+)\]")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")

#: Definitions that open a scope of their own (see "The node table").
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, one-line summary, default severity."""

    id: str
    summary: str
    severity: str = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a location.

    ``path`` is repository-relative (posix separators) so findings are
    stable across machines and working directories.
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    checker: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "checker": self.checker,
        }

    def sort_key(self) -> Tuple[str, int, str, str]:
        # Total over distinct findings: report order never depends on
        # the order a checker happened to visit nodes in.
        return (self.path, self.line, self.rule, self.message)

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"{self.severity}: {self.message}"
        )


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment.

    ``kind`` distinguishes the general ``allow[ID] reason`` marker from
    the hot-path ``hot-ok[reason]`` escape (which always has
    ``rule_id="HOT"``); it only affects how driver messages about the
    suppression are phrased.
    """

    rule_id: str
    line: int
    has_reason: bool
    kind: str = "allow"

    @property
    def spelling(self) -> str:
        """How the marker is written in source (for driver messages)."""
        if self.kind == "hot-ok":
            return "hot-ok[...]"
        return f"allow[{self.rule_id}]"

    def matches(self, rule: str) -> bool:
        return rule == self.rule_id or rule.startswith(self.rule_id)


class SourceFile:
    """One parsed Python source: text, AST, suppressions, domains."""

    def __init__(self, path: Path, root: Optional[Path] = None) -> None:
        self.path = Path(path)
        base = root if root is not None else Path.cwd()
        try:
            rel = self.path.resolve().relative_to(Path(base).resolve())
        except ValueError:
            rel = self.path
        self.relpath = rel.as_posix()
        self.text = self.path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.Module = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            self.syntax_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        comments = _comments(self.text, self.lines)
        self.suppressions: List[Suppression] = _parse_suppressions(comments)
        self._by_line: Dict[int, List[Suppression]] = {}
        for sup in self.suppressions:
            self._by_line.setdefault(sup.line, []).append(sup)
        self.domains: FrozenSet[str] = frozenset(
            _derive_domains(self.relpath) | _explicit_scopes(comments)
        )

    # -- the node table (built on first use) ----------------------------

    @cached_property
    def _table(self) -> Tuple[List[ast.AST], array, List[int]]:
        return _preorder(self.tree)

    @property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in preorder; ``nodes[0]`` is the module."""
        return self._table[0]

    @property
    def end(self) -> array:
        """``end[i]``: one past the last node of ``nodes[i]``'s subtree."""
        return self._table[1]

    def scopes(self) -> List[int]:
        """Indices of the module and of every function definition."""
        return [0] + self._table[2]

    def subtree(self, i: int) -> List[ast.AST]:
        """``nodes[i]`` and every node below it, in source order."""
        return self.nodes[i:self.end[i]]

    def own(self, i: int) -> List[ast.AST]:
        """:meth:`subtree` without the function definitions nested in it."""
        nodes, end, defs = self._table
        collected: List[ast.AST] = []
        start, stop = i, end[i]
        for k in range(bisect_right(defs, i), len(defs)):
            nested = defs[k]
            if nested >= stop:
                break
            if nested >= start:  # else inside an already-skipped def
                collected += nodes[start:nested]
                start = end[nested]
        collected += nodes[start:stop]
        return collected

    def children(self, i: int) -> Iterator[int]:
        """Indices of ``nodes[i]``'s direct children, in field order."""
        end = self.end
        child, stop = i + 1, end[i]
        while child < stop:
            yield child
            child = end[child]

    def in_domain(self, *domains: str) -> bool:
        return any(d in self.domains for d in domains)

    def suppressors(self, rule: str, line: int) -> List[Suppression]:
        """Every suppression that allows ``rule`` on ``line``.

        The driver marks each returned suppression as load-bearing;
        ones that never match any finding are reported stale (SUP002).
        """
        found: List[Suppression] = []
        for candidate in (line, line - 1):
            for sup in self._by_line.get(candidate, ()):
                if not sup.has_reason:
                    continue
                if candidate == line - 1 and not _comment_only(
                    self.lines, candidate
                ):
                    continue
                if sup.matches(rule):
                    found.append(sup)
        return found


def _preorder(tree: ast.AST) -> Tuple[List[ast.AST], array, List[int]]:
    """The node table: preorder nodes, subtree ends, function indices."""
    nodes: List[ast.AST] = []
    end = array("i")
    defs: List[int] = []
    node_type = ast.AST

    def visit(node: ast.AST) -> None:
        i = len(nodes)
        nodes.append(node)
        end.append(0)
        if isinstance(node, SCOPE_NODES):
            defs.append(i)
        # ast.iter_child_nodes, inlined: this is the one full traversal.
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, node_type):
                visit(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, node_type):
                        visit(item)
        end[i] = len(nodes)

    visit(tree)
    return nodes, end, defs


def _comments(text: str, lines: List[str]) -> List[Tuple[int, str]]:
    """``(lineno, comment_text)`` for every comment that may be a marker.

    Both consumers drop comments without ``repro:``, so a file without
    that text is not tokenized at all.  Tokenizing (rather than regexing
    raw lines) sees through string literals, so a marker-*shaped* string
    is not a marker.  Files that do not tokenize fall back to whole-line
    scanning; they are reported as PARSE001 regardless.
    """
    if "repro:" not in text:
        return []
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [
            (lineno, line)
            for lineno, line in enumerate(lines, start=1)
            if "#" in line
        ]


def _parse_suppressions(comments: List[Tuple[int, str]]) -> List[Suppression]:
    found: List[Suppression] = []
    for lineno, comment in comments:
        if "repro:" not in comment:
            continue
        for match in _ALLOW_RE.finditer(comment):
            found.append(
                Suppression(
                    rule_id=match.group(1),
                    line=lineno,
                    has_reason=bool(match.group(2)),
                )
            )
        for match in _HOT_OK_RE.finditer(comment):
            found.append(
                Suppression(
                    rule_id="HOT",
                    line=lineno,
                    has_reason=bool(match.group(1).strip()),
                    kind="hot-ok",
                )
            )
    return found


def _comment_only(lines: List[str], lineno: int) -> bool:
    if not 1 <= lineno <= len(lines):
        return False
    return bool(_COMMENT_ONLY_RE.match(lines[lineno - 1]))


def _explicit_scopes(comments: List[Tuple[int, str]]) -> Set[str]:
    scopes: Set[str] = set()
    for _lineno, comment in comments:
        if "repro:" not in comment:
            continue
        match = _SCOPE_RE.search(comment)
        if match:
            scopes.update(
                part.strip() for part in match.group(1).split(",")
                if part.strip()
            )
    return scopes


def _derive_domains(relpath: str) -> Set[str]:
    """Domains implied by a file's repository path."""
    parts = relpath.split("/")
    name = parts[-1]
    domains: Set[str] = set()
    if "sim" in parts:
        domains.add("sim")
    if "delaymodel" in parts:
        domains.add("delaymodel")
    if "surrogate" in parts:
        domains.add("surrogate")
    if "runtime" in parts:
        domains.add("runtime")
    if "analysis" in parts and "src" in parts:
        domains.add("analysis")
    if ("routers" in parts or name in HOT_BASENAMES) and "sim" in parts:
        domains.add("hot")
    if name in WRAP_SITE_BASENAMES:
        domains.add("wrap-site")
    return domains


class Checker:
    """Base checker: per-file visit plus a cross-file finalize pass.

    Subclasses declare their :class:`Rule` catalogue in ``rules`` and
    yield :class:`Finding` objects from :meth:`check_file` (one call per
    parsed source) and :meth:`finalize` (one call after every file has
    been seen, with the completed :class:`~repro.analysis.index.ProjectIndex`
    for cross-file resolution).  Checkers must not keep state between
    :meth:`reset` calls -- the driver reuses instances across runs.
    """

    name = "checker"
    rules: Tuple[Rule, ...] = ()

    def reset(self) -> None:
        """Clear accumulated state before a fresh analysis run."""

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        return ()

    def finalize(self, index) -> Iterable[Finding]:
        return ()

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def finding(self, rule_id: str, source: SourceFile, node: ast.AST,
                message: str) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            rule=rule.id,
            severity=rule.severity,
            path=source.relpath,
            line=getattr(node, "lineno", 1),
            message=message,
            checker=self.name,
        )

    def finding_at(self, rule_id: str, path: str, line: int,
                   message: str) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            rule=rule.id,
            severity=rule.severity,
            path=path,
            line=line,
            message=message,
            checker=self.name,
        )


def call_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a call target: ``a.b.c(...)`` -> ``"a.b.c"``."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_names(node: ast.AST) -> Set[str]:
    """Flat + dotted names of a def/class's decorators."""
    names: Set[str] = set()
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = call_name(target)
        if dotted:
            names.add(dotted)
            names.add(dotted.rsplit(".", 1)[-1])
    return names
