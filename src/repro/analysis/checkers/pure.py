"""PURE: the analytical libraries stay pure function libraries.

``repro.delaymodel`` is the analytical half of the reproduction: given a
router configuration it *computes* Table 1 delays, pipeline structures,
and derived figures; ``repro.surrogate`` layers the queueing estimator
and its calibration on top and promises the same contract (the hybrid
serving path answers queries straight from these functions, so a hidden
input would silently skew every answer).  Everything downstream (the
optimizer, the figure generators, the result cache's assumption that
config -> result is a function) relies on those computations having no
hidden inputs or outputs.  Three rules keep it that way:

* ``PURE001`` -- a ``global`` declaration inside a function: rebinding
  module state from call sites makes results order-dependent;
* ``PURE002`` -- I/O from model code (``open``, ``print``, ``input``,
  file writes, subprocess/os process calls): rendering belongs in
  ``repro.experiments``, not in the model;
* ``PURE003`` -- in-place mutation of a module-level object
  (``TABLE.append(...)``, ``_CACHE[key] = ...``, ``STATE += ...``):
  call-order-dependent module state is the classic source of
  "works in the REPL, differs in the sweep" bugs.  Memoization belongs
  in ``functools.lru_cache``, which is explicitly fine (pure
  memoization of a pure function).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..core import Checker, Finding, Rule, SourceFile, call_name

#: Bare calls that perform I/O.
IO_CALL_NAMES = frozenset({"open", "print", "input", "breakpoint"})

#: Attribute-call suffixes that perform I/O or spawn processes.
IO_ATTR_SUFFIXES = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes",
    "mkdir", "unlink", "rmdir", "touch", "system", "popen", "remove",
    "makedirs",
})

#: Dotted prefixes that perform I/O or spawn processes.
IO_DOTTED_PREFIXES = ("subprocess.", "shutil.", "sys.stdout", "sys.stderr")

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
})

class PurityChecker(Checker):
    name = "pure"
    rules = (
        Rule("PURE001", "global declaration inside pure-model function"),
        Rule("PURE002", "I/O performed by pure-model code"),
        Rule("PURE003", "in-place mutation of pure-model module state"),
    )

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        if not source.in_domain("delaymodel", "surrogate"):
            return
        module_names = _module_level_names(source.tree)
        for scope in source.scopes()[1:]:
            func = source.nodes[scope]
            own = source.own(scope)
            local_names = _local_bindings(func, own)
            for node in own:
                if isinstance(node, ast.Global):
                    yield self.finding(
                        "PURE001", source, node,
                        f"function '{func.name}' declares "
                        f"'global {', '.join(node.names)}'; the delay "
                        f"model must not rebind module state",
                    )
                elif isinstance(node, ast.Call):
                    yield from self._check_io(source, func, node)
                    yield from self._check_mutator(
                        source, func, node, module_names, local_names
                    )
                elif isinstance(node, (ast.AugAssign, ast.Assign)):
                    yield from self._check_subscript_store(
                        source, func, node, module_names, local_names
                    )

    def _check_io(self, source: SourceFile, func: ast.AST,
                  node: ast.Call) -> Iterable[Finding]:
        dotted = call_name(node)
        if dotted is None:
            return
        is_io = (
            dotted in IO_CALL_NAMES
            or dotted.rsplit(".", 1)[-1] in IO_ATTR_SUFFIXES
            or any(dotted.startswith(p) for p in IO_DOTTED_PREFIXES)
        )
        if is_io:
            yield self.finding(
                "PURE002", source, node,
                f"call to {dotted}() performs I/O inside the delay "
                f"model; move rendering/persistence to repro.experiments",
            )

    def _check_mutator(
        self, source: SourceFile, func, node: ast.Call,
        module_names: Set[str], local_names: Set[str],
    ) -> Iterable[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in MUTATOR_METHODS:
            return
        receiver = node.func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in module_names
            and receiver.id not in local_names
        ):
            yield self.finding(
                "PURE003", source, node,
                f"'{receiver.id}.{node.func.attr}(...)' mutates module-"
                f"level state from inside '{func.name}'; results become "
                f"call-order dependent (use functools.lru_cache for "
                f"memoization)",
            )

    def _check_subscript_store(
        self, source: SourceFile, func, node,
        module_names: Set[str], local_names: Set[str],
    ) -> Iterable[Finding]:
        targets = (
            [node.target] if isinstance(node, ast.AugAssign)
            else list(node.targets)
        )
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if (
                isinstance(base, ast.Name)
                and base.id in module_names
                and base.id not in local_names
                and (isinstance(target, ast.Subscript)
                     or isinstance(node, ast.AugAssign))
            ):
                kind = (
                    "augments" if isinstance(node, ast.AugAssign)
                    else "writes into"
                )
                yield self.finding(
                    "PURE003", source, node,
                    f"'{func.name}' {kind} module-level '{base.id}'; "
                    f"the delay model must not accumulate module state",
                )


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _local_bindings(func: ast.AST, own: List[ast.AST]) -> Set[str]:
    """Names bound locally in ``func`` (params, assignments, loops)."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in own:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names
