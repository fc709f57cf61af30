"""Lock-discipline rules over the threaded runtime (CONC family).

The serving path (:mod:`repro.runtime.estimator`) shares state between
the caller's thread and a daemon drain worker; these rules enforce the
discipline that keeps that sharing sound, the same lock-set shape
RacerD-style race detectors use:

* ``CONC001`` -- in a class that owns a ``threading.Lock`` /
  ``Condition``, every field *write* outside ``__init__`` must happen
  under ``with self.<lock>`` (the specific lock, when ``LOCKED_BY``
  names one) or the field must be declared in ``LOCKED_BY`` /
  ``THREAD_CONFINED`` next to the class.
* ``CONC002`` -- in a class that owns *no* lock, field writes in code
  reachable from a ``threading.Thread(target=...)`` entry point are
  flagged unless some lock-like context is held (two threads touch the
  instance; lock-owning classes are CONC001's territory).
* ``CONC003`` -- ``Condition.wait`` discipline: ``wait``/``wait_for``
  must run inside ``with self.<condition>``, and a bare ``wait()``
  additionally needs an enclosing ``while`` predicate loop
  (``wait_for`` carries its own predicate).
* ``CONC004`` -- mutable module-level state mutated by code reachable
  from a process-pool worker entry (``pool.submit(f, ...)``) silently
  forks per process.

Declarations mirror the scheduler's ``RESULT_NEUTRAL`` convention --
plain module-level literals the analyzer reads syntactically::

    LOCKED_BY = {"Estimator.calibration": "_lock"}
    THREAD_CONFINED = {"Estimator._local_scratch"}

Reads are deliberately not checked: flagging every unguarded read
drowns the signal, and the torn states that matter here come from
unguarded writes.  Fields built by thread-safe constructors
(``queue.Queue`` and friends) are exempt.

The rules run over the ``runtime`` domain (fixtures opt in with
``# repro: scope[runtime]``); CONC004's reachability may land findings
on any analyzed module a worker entry can reach.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core import (
    SCOPE_NODES, Checker, Finding, Rule, SourceFile, call_name,
)
from ..index import FunctionNode, ProjectIndex

#: Constructor names whose instances are guarding primitives.
LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "Lock", "RLock",
})
CONDITION_CTORS = frozenset({
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

#: Constructor calls producing mutable module-level containers.
_MUTABLE_CTOR_CALLS = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict",
    "Counter", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
})


class ConcurrencyChecker(Checker):
    """CONC001-004: lock discipline over the threaded/pooled runtime."""

    name = "conc"
    rules = (
        Rule(
            "CONC001",
            "field write in a lock-owning class outside the owning lock",
        ),
        Rule(
            "CONC002",
            "unguarded field write reachable from a Thread target",
        ),
        Rule(
            "CONC003",
            "Condition.wait without held condition or predicate loop",
        ),
        Rule(
            "CONC004",
            "mutable module-level state reachable from pool workers",
        ),
    )

    # ------------------------------------------------------------------
    # Per-file pass: CONC001 (class-local) and CONC003 (lexical).
    # ------------------------------------------------------------------

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
        locks, conditions, safe = _owned_primitives(source, index)
        guards = locks | conditions
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_waits(source, item, conditions)
            if item.name == "__init__" or not guards:
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

    def _check_waits(
        self,
        source: SourceFile,
        func: ast.AST,
        conditions: Set[str],
    ) -> Iterable[Finding]:
        """CONC003 over one method: wait discipline is lexical."""

        def walk(node: ast.AST, held: FrozenSet[str],
                 in_while: bool) -> Iterable[Finding]:
            # A recursion, not a table slice: each child inherits context.
            for child in ast.iter_child_nodes(node):
                child_held = held
                child_while = in_while
                if isinstance(child, ast.With):
                    child_held = held | _with_locks(child, conditions)
                elif isinstance(child, ast.While):
                    child_while = True
                elif isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    child_held = frozenset()
                    child_while = False
                if isinstance(child, ast.Call):
                    target = child.func
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in ("wait", "wait_for")
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"
                        and target.value.attr in conditions
                    ):
                        cond = target.value.attr
                        if cond not in held:
                            yield self.finding_at(
                                "CONC003", source.relpath, child.lineno,
                                f"'self.{cond}.{target.attr}' called "
                                f"without holding 'with self.{cond}'",
                            )
                        elif target.attr == "wait" and not in_while:
                            yield self.finding_at(
                                "CONC003", source.relpath, child.lineno,
                                f"bare 'self.{cond}.wait()' outside a "
                                f"'while' predicate loop; re-check the "
                                f"predicate after wakeup or use wait_for",
                            )
                yield from walk(child, child_held, child_while)

        yield from walk(func, frozenset(), False)

    # ------------------------------------------------------------------
    # Cross-file pass: CONC002 (thread reachability), CONC004 (pools).
    # ------------------------------------------------------------------

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        yield from self._check_thread_targets(index)
        yield from self._check_worker_globals(index)

    def _check_thread_targets(
        self, index: ProjectIndex
    ) -> Iterable[Finding]:
        emitted: Set[Tuple[str, int]] = set()
        for source in index.files:
            if source.tree is None or not source.in_domain("runtime"):
                continue
            confined = _string_set(source.tree, THREAD_CONFINED_NAME)
            for i in source.children(0):
                node = source.nodes[i]
                if not isinstance(node, ast.ClassDef):
                    continue
                locks, conditions, _safe = _owned_primitives(source, i)
                if locks | conditions:
                    continue  # CONC001 owns lock-owning classes.
                entries = _thread_targets(source, i, index)
                if not entries:
                    continue
                same_class = index.reachable(
                    entries,
                    keep=lambda n, cls=node.name: n.class_name == cls,
                )
                for reached in same_class.values():
                    if reached.name == "__init__":
                        continue
                    for write in _field_writes(
                        reached.node, guards=None
                    ):
                        qualified = f"{node.name}.{write.field}"
                        if qualified in confined:
                            continue
                        if write.held:
                            continue
                        key = (source.relpath, write.line)
                        if key in emitted:
                            continue
                        emitted.add(key)
                        yield self.finding_at(
                            "CONC002", source.relpath, write.line,
                            f"'{qualified}' written in "
                            f"'{reached.name}', reachable from a "
                            f"Thread target, without any lock held; "
                            f"guard it or declare the field in "
                            f"{THREAD_CONFINED_NAME}",
                        )

    def _check_worker_globals(
        self, index: ProjectIndex
    ) -> Iterable[Finding]:
        entries: List[FunctionNode] = []
        for source in index.files:
            if source.tree is None or not source.in_domain("runtime"):
                continue
            entries.extend(_pool_entries(source, index))
        if not entries:
            return
        reachable = index.reachable(entries)
        for source in index.files:
            if source.tree is None:
                continue
            globals_ = _mutable_globals(source.tree)
            if not globals_:
                continue
            mutators = _global_mutators(index, source, set(globals_))
            for name, line in sorted(globals_.items()):
                hit = next(
                    (
                        fn for fn in mutators.get(name, ())
                        if fn.qualname in reachable
                    ),
                    None,
                )
                if hit is None:
                    continue
                yield self.finding_at(
                    "CONC004", source.relpath, line,
                    f"module-level mutable '{name}' is mutated by "
                    f"'{hit.name}', which process-pool workers reach; "
                    "per-process copies fork silently",
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


def _field_writes(
    func: ast.AST, guards: Optional[Set[str]]
) -> List[_Write]:
    """Every ``self.<field>`` write in ``func`` with held-lock context.

    ``guards`` names the owned lock attributes to track; ``None`` means
    "track any lock-looking context" (CONC002's generous mode for
    classes that own no primitive: ``with self.<attr>`` or ``with
    <name>`` where the name smells like a lock).
    """
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


def _with_locks(
    node: ast.With, guards: Optional[Set[str]]
) -> FrozenSet[str]:
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
        ):
            if guards is not None:
                if expr.attr in guards:
                    held.add(expr.attr)
            elif _lock_like(expr.attr):
                held.add(expr.attr)
        elif guards is None and isinstance(expr, ast.Name):
            if _lock_like(expr.id):
                held.add(expr.id)
    return frozenset(held)


def _lock_like(name: str) -> bool:
    lowered = name.lower()
    return any(tag in lowered for tag in ("lock", "cond", "mutex", "sem"))


# ----------------------------------------------------------------------
# Class/module fact extraction.
# ----------------------------------------------------------------------


def _owned_primitives(
    source: SourceFile, index: int,
) -> Tuple[Set[str], Set[str], Set[str]]:
    """(lock attrs, condition attrs, thread-safe container attrs) of the
    class at ``nodes[index]``."""
    locks: Set[str] = set()
    conditions: Set[str] = set()
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
                    locks.add(target.attr)
                elif ctor in CONDITION_CTORS:
                    conditions.add(target.attr)
                elif ctor in THREADSAFE_CTORS:
                    safe.add(target.attr)
    return locks, conditions, safe


def _thread_targets(
    source: SourceFile, class_index: int, index: ProjectIndex
) -> List[FunctionNode]:
    """FunctionNodes passed as ``Thread(target=...)`` inside the class at
    ``nodes[class_index]``."""
    class_name = source.nodes[class_index].name
    entries: List[FunctionNode] = []
    for stmt in source.subtree(class_index):
        if not isinstance(stmt, ast.Call):
            continue
        ctor = call_name(stmt.func)
        if ctor not in ("threading.Thread", "Thread"):
            continue
        for keyword in stmt.keywords:
            if keyword.arg != "target":
                continue
            value = keyword.value
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                resolved = index.function_node(class_name, value.attr)
                if resolved is not None:
                    entries.append(resolved)
    return entries


def _pool_entries(
    source: SourceFile, index: ProjectIndex
) -> List[FunctionNode]:
    """Functions handed to ``pool.submit(f, ...)`` / ``pool.map(f, ...)``."""
    entries: List[FunctionNode] = []
    for stmt in source.nodes:
        if not isinstance(stmt, ast.Call):
            continue
        func = stmt.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
        ):
            continue
        if not stmt.args:
            continue
        candidate = stmt.args[0]
        resolved: Optional[FunctionNode] = None
        if isinstance(candidate, ast.Name):
            resolved = index.function_node(
                None, candidate.id, relpath=source.relpath
            ) or index.function_node(None, candidate.id)
        if resolved is not None:
            entries.append(resolved)
    return entries


def _mutable_globals(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to mutable container literals/ctors."""
    found: Dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        mutable = isinstance(
            value,
            (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
             ast.SetComp),
        )
        if not mutable and isinstance(value, ast.Call):
            mutable = call_name(value) in _MUTABLE_CTOR_CALLS
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found.setdefault(target.id, stmt.lineno)
    return found


def _global_mutators(
    index: ProjectIndex, source: SourceFile, names: Set[str]
) -> Dict[str, List[FunctionNode]]:
    """Which functions in ``source`` mutate which module globals."""
    by_name: Dict[str, List[FunctionNode]] = {}
    for fn in index.nodes.values():
        if fn.relpath != source.relpath:
            continue
        locals_: Set[str] = {
            arg.arg for arg in getattr(
                fn.node, "args", ast.arguments(
                    posonlyargs=[], args=[], kwonlyargs=[],
                    kw_defaults=[], defaults=[],
                )
            ).args
        }
        for stmt in source.subtree(fn.index):
            mutated: Optional[str] = None
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        mutated = target.value.id
                    elif (
                        isinstance(target, ast.Name)
                        and isinstance(stmt, ast.AugAssign)
                        and target.id in names
                    ):
                        mutated = target.id
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        mutated = target.value.id
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names
                ):
                    mutated = func.value.id
            if mutated is not None and mutated not in locals_:
                by_name.setdefault(mutated, []).append(fn)
    return by_name


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
