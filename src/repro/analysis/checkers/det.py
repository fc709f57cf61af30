"""DET: determinism rules for the simulator, delay model and surrogate.

Bit-identical reruns -- the property every differential oracle
(fast-vs-reference, telemetry-on-vs-off, cached-vs-uncached) asserts --
require that all randomness flows through seeded :class:`random.Random`
instances and that nothing order-unstable feeds simulated results.

* ``DET001`` -- a module-level RNG call (``random.random()``,
  ``from random import randint``) inside ``repro.sim`` /
  ``repro.delaymodel`` / ``repro.surrogate``: the process-global RNG
  is shared, unseeded by default, and invisible to the result cache's
  content key.
* ``DET002`` -- a wall-clock / entropy source (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ...) in the same
  scope.  Wall-clock *instrumentation* that provably never reaches
  simulated state is fine -- annotate it
  ``# repro: allow[DET002] wall-clock stats only``.
* ``DET003`` -- iteration over a ``set``/``frozenset`` value in a hot
  path (routers, allocators, arbiters, matching, the stepper), where
  Python's hash-order can decide which request wins a cycle.  Wrap the
  iterable in ``sorted(...)`` or use an order-stable container instead;
  membership tests on sets are untouched.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from ..core import Checker, Finding, Rule, SourceFile, call_name

#: ``module.attr`` call targets that read wall clocks or OS entropy.
CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
})

#: Names importable from :mod:`random` that are *not* the seeded
#: instance constructor (importing any of these binds the global RNG).
_SEEDED_OK = frozenset({"Random", "SystemRandom"})


class DeterminismChecker(Checker):
    name = "det"
    rules = (
        Rule("DET001",
             "module-level random.* call (unseeded, process-global RNG)"),
        Rule("DET002",
             "wall-clock or OS-entropy source in deterministic code"),
        Rule("DET003",
             "iteration over a set/frozenset value in a hot path"),
    )

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        deterministic = source.in_domain(
            "sim", "delaymodel", "surrogate", "analysis"
        )
        hot = source.in_domain("hot")
        if not deterministic and not hot:
            return
        if deterministic:
            yield from self._check_rng(source)
        if hot:
            yield from self._check_set_iteration(source)

    # -- DET001 / DET002 ------------------------------------------------

    def _check_rng(self, source: SourceFile) -> Iterable[Finding]:
        for node in source.nodes:
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_OK:
                            yield self.finding(
                                "DET001", source, node,
                                f"'from random import {alias.name}' binds "
                                f"the process-global RNG; construct a "
                                f"seeded random.Random instead",
                            )
                elif node.module in ("time", "datetime", "os", "uuid",
                                     "secrets"):
                    for alias in node.names:
                        dotted = f"{node.module}.{alias.name}"
                        if dotted in CLOCK_CALLS:
                            yield self.finding(
                                "DET002", source, node,
                                f"'from {node.module} import {alias.name}' "
                                f"imports a wall-clock/entropy source into "
                                f"deterministic code",
                            )
            elif isinstance(node, ast.Call):
                dotted = call_name(node)
                if dotted is None:
                    continue
                if (
                    dotted.startswith("random.")
                    and dotted.count(".") == 1
                    and dotted.split(".", 1)[1] not in _SEEDED_OK
                ):
                    yield self.finding(
                        "DET001", source, node,
                        f"call to {dotted}() uses the process-global RNG; "
                        f"route randomness through a seeded random.Random",
                    )
                elif dotted in CLOCK_CALLS:
                    yield self.finding(
                        "DET002", source, node,
                        f"call to {dotted}() is wall-clock/entropy-"
                        f"dependent; deterministic code must not read it",
                    )

    # -- DET003 ---------------------------------------------------------

    def _check_set_iteration(self, source: SourceFile) -> Iterable[Finding]:
        for scope in source.scopes():
            own = source.own(scope)
            set_locals = _set_typed_locals(own)
            for node in own:
                for iter_node, context in _iteration_sites(node):
                    reason = _set_valued(iter_node, set_locals)
                    if reason is not None:
                        yield self.finding(
                            "DET003", source, iter_node,
                            f"{context} iterates over {reason}; hash order "
                            f"is not part of the simulated contract -- "
                            f"sort it or use an ordered container",
                        )


def _set_typed_locals(own: List[ast.AST]) -> Set[str]:
    """Local names bound to a set expression directly in a scope."""
    names: Set[str] = set()
    for node in own:
        value: Optional[ast.AST] = None
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None or not _is_set_expr(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


def _iteration_sites(
    node: ast.AST,
) -> List[Tuple[ast.AST, str]]:
    """(iterated expression, human context) pairs introduced by ``node``."""
    sites: List[Tuple[ast.AST, str]] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        sites.append((node.iter, "for loop"))
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for gen in node.generators:
            sites.append((gen.iter, "comprehension"))
    return sites


def _set_valued(node: ast.AST, set_locals: Set[str]) -> Optional[str]:
    """If ``node`` evaluates to a set, a description of it; else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return f"a {name}(...) value"
    if isinstance(node, ast.Name) and node.id in set_locals:
        return f"local set '{node.id}'"
    return None
