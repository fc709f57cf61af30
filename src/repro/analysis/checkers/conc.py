"""Lock discipline over the threaded runtime (CONC family).

The serving path (:mod:`repro.runtime.estimator`) shares state between
the caller's thread and a daemon drain worker.  ``CONC001`` enforces
the discipline that keeps that sharing sound, the lock-set shape
RacerD-style race detectors use: in a class that owns a
``threading.Lock`` / ``Condition``, every field *write* outside
``__init__`` must happen under ``with self.<lock>`` (the specific lock,
when ``LOCKED_BY`` names one) or the field must be declared in
``LOCKED_BY`` / ``THREAD_CONFINED`` next to the class.  An unguarded
write races only under an interleaving no test forces, so tier-1 does
not see it.

The declarations are plain module-level literals the analyzer reads
syntactically::

    LOCKED_BY = {"Estimator.calibration": "_lock"}
    THREAD_CONFINED = {"Estimator._local_scratch"}

Reads are deliberately not checked: flagging every unguarded read
drowns the signal, and the torn states that matter here come from
unguarded writes.  Fields built by thread-safe constructors
(``queue.Queue`` and friends) are exempt.

The rule runs over the ``runtime`` domain (fixtures opt in with
``# repro: scope[runtime]``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core import (
    SCOPE_NODES, Checker, Finding, Rule, SourceFile, call_name,
)
from ..index import ProjectIndex

#: Constructor names whose instances are guarding primitives.
LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "Lock", "RLock",
    "threading.Condition", "Condition",
})

#: Constructors whose instances are intrinsically thread-safe, so
#: unguarded mutation is fine (the queue hand-off in the estimator).
THREADSAFE_CTORS = frozenset({
    "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
    "queue.PriorityQueue",
})

#: Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "extend", "insert", "remove", "clear", "pop",
    "popleft", "appendleft", "update", "discard", "setdefault",
    "sort", "reverse", "put",
})

#: Module-level declaration names the checker reads.
LOCKED_BY_NAME = "LOCKED_BY"
THREAD_CONFINED_NAME = "THREAD_CONFINED"


class ConcurrencyChecker(Checker):
    """CONC001: lock discipline over the threaded runtime."""

    name = "conc"
    rules = (
        Rule(
            "CONC001",
            "field write in a lock-owning class outside the owning lock",
        ),
    )

    def check_file(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterable[Finding]:
        if source.tree is None or not source.in_domain("runtime"):
            return
        locked_by = _string_map(source.tree, LOCKED_BY_NAME)
        confined = _string_set(source.tree, THREAD_CONFINED_NAME)
        for i in source.children(0):
            if isinstance(source.nodes[i], ast.ClassDef):
                yield from self._check_class(source, i, locked_by, confined)

    def _check_class(
        self,
        source: SourceFile,
        index: int,
        locked_by: Dict[str, str],
        confined: Set[str],
    ) -> Iterable[Finding]:
        node = source.nodes[index]
        guards, safe = _owned_primitives(source, index)
        if not guards:
            return
        for item in node.body:
            if not isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or item.name == "__init__":
                continue
            for write in _field_writes(item, guards):
                field = write.field
                if field in guards or field in safe:
                    continue
                qualified = f"{node.name}.{field}"
                if qualified in confined:
                    continue
                required = locked_by.get(qualified)
                if required is not None:
                    if required in write.held:
                        continue
                    yield self.finding_at(
                        "CONC001", source.relpath, write.line,
                        f"'{qualified}' is declared LOCKED_BY "
                        f"'{required}' but written without "
                        f"'with self.{required}'",
                    )
                    continue
                if write.held:
                    continue
                yield self.finding_at(
                    "CONC001", source.relpath, write.line,
                    f"'{qualified}' written outside any owned lock in "
                    f"'{item.name}'; guard the write or declare the "
                    f"field in {LOCKED_BY_NAME}/{THREAD_CONFINED_NAME}",
                )


# ----------------------------------------------------------------------
# Write-site extraction.
# ----------------------------------------------------------------------


class _Write:
    """One ``self.<field>`` write site with the locks held around it."""

    __slots__ = ("field", "line", "held")

    def __init__(self, field: str, line: int,
                 held: FrozenSet[str]) -> None:
        self.field = field
        self.line = line
        self.held = held


def _field_writes(func: ast.AST, guards: Set[str]) -> List[_Write]:
    """Every ``self.<field>`` write in ``func`` with the owned locks
    (``guards``) held around it."""
    writes: List[_Write] = []

    def self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def target_fields(node: ast.AST) -> Iterable[Tuple[str, int]]:
        attr = self_attr(node)
        if attr is not None:
            yield attr, node.lineno
            return
        if isinstance(node, ast.Subscript):
            attr = self_attr(node.value)
            if attr is not None:
                yield attr, node.lineno
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from target_fields(element)

    def walk(node: ast.AST, held: FrozenSet[str]) -> None:
        # A recursion, not a table slice: each child inherits held locks.
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, ast.With):
                child_held = held | _with_locks(child, guards)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                child_held = frozenset()
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    for field, line in target_fields(target):
                        writes.append(_Write(field, line, held))
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                if not (isinstance(child, ast.AnnAssign)
                        and child.value is None):
                    for field, line in target_fields(child.target):
                        writes.append(_Write(field, line, held))
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    for field, line in target_fields(target):
                        writes.append(_Write(field, line, held))
            elif isinstance(child, ast.Call):
                target = child.func
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in MUTATOR_METHODS
                ):
                    attr = self_attr(target.value)
                    if attr is not None:
                        writes.append(
                            _Write(attr, child.lineno, held)
                        )
            walk(child, child_held)

    walk(func, frozenset())
    return writes


def _with_locks(node: ast.With, guards: Set[str]) -> FrozenSet[str]:
    """Guard attributes acquired by one ``with`` statement."""
    held: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in guards
        ):
            held.add(expr.attr)
    return frozenset(held)


# ----------------------------------------------------------------------
# Class/module fact extraction.
# ----------------------------------------------------------------------


def _owned_primitives(
    source: SourceFile, index: int,
) -> Tuple[Set[str], Set[str]]:
    """(lock and condition attrs, thread-safe container attrs) of the
    class at ``nodes[index]``."""
    guards: Set[str] = set()
    safe: Set[str] = set()
    for item in source.children(index):
        if not isinstance(source.nodes[item], SCOPE_NODES):
            continue
        for stmt in source.subtree(item):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            ctor = call_name(value)
            if ctor is None:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if ctor in LOCK_CTORS:
                    guards.add(target.attr)
                elif ctor in THREADSAFE_CTORS:
                    safe.add(target.attr)
    return guards, safe


# ----------------------------------------------------------------------
# Declaration parsing (module-level literal maps/sets).
# ----------------------------------------------------------------------


def _string_map(tree: ast.Module, name: str) -> Dict[str, str]:
    """Module-level ``NAME = {"k": "v", ...}`` literal, or empty."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            continue
        parsed: Dict[str, str] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                parsed[key.value] = value.value
        return parsed
    return {}


def _string_set(tree: ast.Module, name: str) -> Set[str]:
    """Module-level ``NAME = {"a", ...}`` (set/frozenset/tuple/list)."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and value.args:
            ctor = call_name(value)
            if ctor in ("frozenset", "set"):
                value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            return {
                el.value for el in value.elts
                if isinstance(el, ast.Constant)
                and isinstance(el.value, str)
            }
    return set()
