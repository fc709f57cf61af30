"""Hot-path discipline rules (HOT family).

The saturation-speed steppers (PRs 3 and 7) are fast because the
per-cycle closures allocate nothing and chase no long attribute chains;
these rules keep that property as the hot set grows.  "Hot" is a
whole-program fact: the set of functions reachable over the project
call graph from the stepper roots --

* ``Network.step`` / ``Network._step_fast`` / ``Network._step_reference``
  (and ``step``/``cycle``-shaped methods of classes in hot-domain
  files), and
* every *nested* function defined in a hot-domain file: the compiled
  step closures in ``sim/routers/specialized.py`` are nested defs
  returned by cold module-level factories, so the factories stay
  un-checked while the closures they emit are roots.

Reachability expands only through ``sim``/``hot``-domain files -- a
config ``validate()`` or a telemetry exporter shared with cold code
does not drag its whole module into the hot set.

Rules, each escapable with ``# repro: hot-ok[reason]`` on (or directly
above) the line:

* ``HOT001`` -- comprehension/generator allocation anywhere in a hot
  function, and list/dict/set display literals inside its loops (a
  fresh container per cycle per iteration).
* ``HOT002`` -- ``lambda``/nested ``def`` creation inside a hot
  function (a new code object binding per call).
* ``HOT003`` -- string formatting and logging (f-strings, ``print``,
  ``str.format``, ``logging``/``logger`` calls) in hot functions,
  except inside ``raise``/``assert`` error paths.
* ``HOT004`` -- multi-level attribute chains (``self.a.b`` and deeper)
  in loop bodies, one finding per distinct chain per loop; hoist the
  lookup into a local before the loop.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core import (
    SCOPE_NODES, Checker, Finding, Rule, SourceFile, call_name,
)
from ..index import FunctionNode, ProjectIndex

#: Method names that make a class's method a hot root when its class
#: lives in a hot-domain file.
ROOT_METHOD_NAMES = frozenset({
    "step", "_step_fast", "_step_reference", "cycle",
})

#: Logging receiver names: ``log.debug(...)``, ``logger.info(...)``.
_LOG_RECEIVERS = frozenset({"log", "logger", "logging"})
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception",
    "critical", "log",
})


class HotPathChecker(Checker):
    """HOT001-004: allocation-free discipline over the stepper's reach."""

    name = "hot"
    rules = (
        Rule(
            "HOT001",
            "per-cycle container allocation in a hot function",
        ),
        Rule(
            "HOT002",
            "lambda/closure creation in a hot function",
        ),
        Rule(
            "HOT003",
            "string formatting or logging in a hot function",
        ),
        Rule(
            "HOT004",
            "uncached multi-level attribute chain in a hot loop",
        ),
    )

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        hot = _hot_functions(index)
        for fn in sorted(hot.values(), key=lambda n: n.source_key):
            source = index.modules[fn.relpath].source
            yield from self._check_function(source, fn)

    # ------------------------------------------------------------------
    # Per-function rule scan.
    # ------------------------------------------------------------------

    def _check_function(
        self, source: SourceFile, fn: FunctionNode
    ) -> Iterable[Finding]:
        label = fn.qualname.split("::", 1)[-1]
        chains_seen: Set[Tuple[int, str]] = set()
        loop_bound: Dict[int, Set[str]] = {}

        def bound_names(loop: ast.AST) -> Set[str]:
            if id(loop) not in loop_bound:
                # The loop's table index, found by identity in fn's range.
                at = source.nodes.index(loop, fn.index, source.end[fn.index])
                loop_bound[id(loop)] = _bound_names(source.subtree(at))
            return loop_bound[id(loop)]

        def handle(node: ast.AST, in_loop: bool, in_raise: bool,
                   loop: Optional[ast.AST]) -> Iterable[Finding]:
            if isinstance(node, (ast.Raise, ast.Assert)):
                in_raise = True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield self.finding(
                    "HOT002", source, node,
                    f"nested def '{node.name}' created on every "
                    f"call of hot '{label}'; define it once outside",
                )
                return  # Its body is its own graph node.
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    "HOT002", source, node,
                    f"lambda allocated on every call of hot "
                    f"'{label}'; hoist it to module/class scope",
                )
                return
            if in_loop and loop is not None:
                chain = _maximal_chain(node)
                if chain is not None:
                    # The subtree is pure attribute hops; flag the
                    # maximal chain once and do not descend (the
                    # sub-chains would double-report).
                    if chain.split(".", 1)[0] not in bound_names(loop):
                        yield from self._check_chain(
                            source, label, node, chain, loop,
                            chains_seen,
                        )
                    return
            yield from self._check_expr(
                source, label, node, in_loop, in_raise,
            )
            yield from walk(node, in_loop, in_raise, loop)

        def walk(node: ast.AST, in_loop: bool, in_raise: bool,
                 loop: Optional[ast.AST]) -> Iterable[Finding]:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                # The iterator expression evaluates once; only the body
                # (and else) runs per iteration.
                yield from handle(node.target, in_loop, in_raise, loop)
                yield from handle(node.iter, in_loop, in_raise, loop)
                for stmt in list(node.body) + list(node.orelse):
                    yield from handle(stmt, True, in_raise, node)
                return
            if isinstance(node, ast.While):
                # The test re-evaluates every iteration.
                for stmt in [node.test] + list(node.body) + list(
                    node.orelse
                ):
                    yield from handle(stmt, True, in_raise, node)
                return
            # A recursion, not a table slice: loop/raise context descends.
            for child in ast.iter_child_nodes(node):
                yield from handle(child, in_loop, in_raise, loop)

        yield from walk(fn.node, False, False, None)

    def _check_expr(
        self,
        source: SourceFile,
        label: str,
        node: ast.AST,
        in_loop: bool,
        in_raise: bool,
    ) -> Iterable[Finding]:
        if isinstance(
            node, (ast.ListComp, ast.DictComp, ast.SetComp,
                   ast.GeneratorExp)
        ) and not in_raise:
            kind = type(node).__name__
            yield self.finding(
                "HOT001", source, node,
                f"{kind} allocates a fresh container on every call of "
                f"hot '{label}'; precompute or reuse a scratch buffer",
            )
            return
        if (
            in_loop
            and not in_raise
            and isinstance(node, (ast.List, ast.Dict, ast.Set))
        ):
            kind = type(node).__name__.lower()
            yield self.finding(
                "HOT001", source, node,
                f"{kind} literal allocated per iteration in a loop of "
                f"hot '{label}'; hoist or reuse a scratch container",
            )
            return
        if isinstance(node, ast.JoinedStr) and not in_raise:
            yield self.finding(
                "HOT003", source, node,
                f"f-string formatted on the hot path in '{label}'; "
                f"move formatting to the error/reporting path",
            )
            return
        if isinstance(node, ast.Call) and not in_raise:
            yield from self._check_call(source, label, node)

    def _check_call(
        self, source: SourceFile, label: str, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield self.finding(
                "HOT003", source, node,
                f"print() on the hot path in '{label}'",
            )
            return
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in _LOG_RECEIVERS
                and func.attr in _LOG_METHODS
            ):
                yield self.finding(
                    "HOT003", source, node,
                    f"logging call on the hot path in '{label}'; "
                    f"gate it behind a cold branch or drop it",
                )
                return
            dotted = call_name(func)
            if dotted is not None and dotted.startswith("logging."):
                yield self.finding(
                    "HOT003", source, node,
                    f"logging call on the hot path in '{label}'",
                )
                return
            if func.attr == "format" and isinstance(
                receiver, (ast.Constant, ast.JoinedStr)
            ):
                yield self.finding(
                    "HOT003", source, node,
                    f"str.format on the hot path in '{label}'",
                )

    def _check_chain(
        self,
        source: SourceFile,
        label: str,
        node: ast.AST,
        chain: str,
        loop: ast.AST,
        chains_seen: Set[Tuple[int, str]],
    ) -> Iterable[Finding]:
        key = (id(loop), chain)
        if key in chains_seen:
            return
        chains_seen.add(key)
        yield self.finding(
            "HOT004", source, node,
            f"attribute chain '{chain}' re-resolved per iteration in a "
            f"loop of hot '{label}'; cache it in a local before the "
            f"loop",
        )


# ----------------------------------------------------------------------
# Hot-set computation.
# ----------------------------------------------------------------------


def _eligible(relpath: str) -> bool:
    """Files whose code can be 'hot' at all.

    Test modules exercise hot code but do not run per cycle, and the
    checked-mode validation probes are instrumentation that is
    deliberately off the fast path -- both stay out of the hot set.
    """
    name = relpath.rsplit("/", 1)[-1]
    if name.startswith("test_") or name == "conftest.py":
        return False
    if "/validation/" in relpath:
        return False
    return True


def _hot_domain(index: ProjectIndex, relpath: str) -> bool:
    record = index.modules.get(relpath)
    return (
        record is not None
        and _eligible(relpath)
        and record.source.in_domain("hot")
    )


def _sim_domain(index: ProjectIndex, relpath: str) -> bool:
    record = index.modules.get(relpath)
    return (
        record is not None
        and _eligible(relpath)
        and record.source.in_domain("sim", "hot")
    )


def _hot_roots(index: ProjectIndex) -> List[FunctionNode]:
    roots: List[FunctionNode] = []
    for fn in index.nodes.values():
        if not _hot_domain(index, fn.relpath):
            continue
        if fn.nested:
            roots.append(fn)
        elif fn.class_name is not None and fn.name in ROOT_METHOD_NAMES:
            roots.append(fn)
    return roots


def _hot_functions(index: ProjectIndex) -> Dict[str, FunctionNode]:
    """Roots plus everything they reach inside sim/hot-domain files."""
    roots = _hot_roots(index)
    return index.reachable(
        roots, keep=lambda n: _sim_domain(index, n.relpath)
    )


def _bound_names(loop: List[ast.AST]) -> Set[str]:
    """Names (re)bound anywhere in a loop's subtree -- chains rooted at
    these are loop-varying, so "hoist before the loop" does not apply."""
    bound: Set[str] = set()
    for node in loop:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, SCOPE_NODES):
            bound.add(node.name)
    return bound


def _maximal_chain(node: ast.AST) -> Optional[str]:
    """Dotted text of a >=2-hop Load attribute chain rooted at a name.

    Only *maximal* chains count (the walk hands us every node; a chain's
    sub-chains are reached as children of an Attribute parent and are
    filtered by the caller's traversal order): for ``self.a.b`` the
    outermost Attribute yields ``"self.a.b"`` and the inner ``self.a``
    is skipped because its parent was already an Attribute.  Call
    receivers count too -- ``self.a.b.m()`` re-resolves ``self.a.b``
    per iteration just the same.
    """
    if not isinstance(node, ast.Attribute):
        return None
    if not isinstance(node.ctx, ast.Load):
        return None
    hops = 0
    probe: ast.AST = node
    while isinstance(probe, ast.Attribute):
        hops += 1
        probe = probe.value
    if hops < 2 or not isinstance(probe, ast.Name):
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return None
