"""SLOTS: non-field state on a pool-pickled dataclass.

``SLOTS003`` -- a non-field attribute assigned on an instance of a
config/result dataclass that crosses process-pool pickles.  The
dataclasses are not frozen, so a misspelled field name
(``config.buffer_per_vc = 4``) is accepted silently and the run uses
the default; and even a deliberate extra attribute is not part of the
dataclass contract: it vanishes across cache hops and ``replace()``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from ..core import Checker, Finding, Rule, SourceFile, call_name
from ..index import ProjectIndex

#: Dataclasses whose instances cross ProcessPool / result-cache pickle
#: boundaries; instance state outside their fields does not survive.
PICKLED_CLASSES = (
    "SimConfig",
    "MeasurementConfig",
    "TelemetryConfig",
    "RunResult",
)


class SlotsChecker(Checker):
    name = "slots"
    rules = (
        Rule("SLOTS003",
             "non-field attribute set on a pool-pickled dataclass"),
    )

    def check_file(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterable[Finding]:
        for scope in source.scopes():
            bindings: Dict[str, str] = {}
            for node in source.own(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        cls = _pickled_ctor(node.value)
                        if cls is not None:
                            bindings[target.id] = cls
                        else:
                            bindings.pop(target.id, None)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in bindings
                ):
                    cls_name = bindings[node.value.id]
                    info = index.resolve_base(cls_name)
                    if info is None or not info.fields:
                        continue
                    if node.attr not in info.fields:
                        yield self.finding(
                            "SLOTS003", source, node,
                            f"'{node.value.id}.{node.attr}' sets an "
                            f"attribute that is not a field of "
                            f"{cls_name}; instances cross pool/cache "
                            f"pickle boundaries and non-field state does "
                            f"not survive them",
                        )


def _pickled_ctor(value: ast.AST) -> Optional[str]:
    """Class name if ``value`` constructs a pickled dataclass."""
    candidates = [value]
    if isinstance(value, ast.IfExp):
        candidates = [value.body, value.orelse]
    for candidate in candidates:
        if isinstance(candidate, ast.Call):
            name = call_name(candidate)
            if name is not None and name.rsplit(".", 1)[-1] in PICKLED_CLASSES:
                return name.rsplit(".", 1)[-1]
    return None

