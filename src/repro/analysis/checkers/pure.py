"""PURE: the analytical libraries stay pure function libraries.

``repro.delaymodel`` is the analytical half of the reproduction: given a
router configuration it *computes* Table 1 delays, pipeline structures,
and derived figures; ``repro.surrogate`` layers the queueing estimator
and its calibration on top and promises the same contract (the hybrid
serving path answers queries straight from these functions, so a hidden
input would silently skew every answer).  Two rules keep it that way:

* ``PURE001`` -- a ``global`` declaration inside a function: rebinding
  module state from call sites makes results order-dependent, and the
  tests ask each question once, in one order;
* ``PURE002`` -- I/O from model code (``open``, ``print``, ``input``,
  file writes, subprocess/os process calls): rendering belongs in
  ``repro.experiments``, not in the model.  No test reads the stdout of
  a model function it did not render.

A module-level memo needs no rule: one keyed on too little returns a
wrong value the delay-model tests see, and a correct one is harmless.
"""

from __future__ import annotations

import ast
from typing import Iterable

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


class PurityChecker(Checker):
    name = "pure"
    rules = (
        Rule("PURE001", "global declaration inside pure-model function"),
        Rule("PURE002", "I/O performed by pure-model code"),
    )

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        if not source.in_domain("delaymodel", "surrogate"):
            return
        for scope in source.scopes()[1:]:
            func = source.nodes[scope]
            for node in source.own(scope):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        "PURE001", source, node,
                        f"function '{func.name}' declares "
                        f"'global {', '.join(node.names)}'; the delay "
                        f"model must not rebind module state",
                    )
                elif isinstance(node, ast.Call):
                    yield from self._check_io(source, node)

    def _check_io(self, source: SourceFile,
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
