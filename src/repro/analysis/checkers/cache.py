"""CACHE: class-level state on a config dataclass never reaches the key.

``runtime/cache.py`` addresses cached :class:`RunResult` payloads by a
SHA-256 over the run's configuration, built field by field in
``config_key``.  ``tests/runtime/test_cache.py`` holds that key to the
whole-dataclass ``asdict`` recipe, so a dataclass *field* left out of
the key fails tier-1.  Neither ``asdict`` nor ``dataclasses.fields``
sees a plain class attribute or ``ClassVar``, though, so a knob added
that way slips past both the key and the test: two runs differing only
in it collapse onto one cache entry.

``CACHE002`` flags class-level state on a tracked config class
(``SimConfig``, ``MeasurementConfig``, ``TelemetryConfig``) that the
key function does not read explicitly (``config.<attr>``).  Such a
knob must become a real field, be read into the key, or carry an
inline ``# repro: allow[CACHE002] why``.

If the analyzed set contains no key function (e.g. linting a single
file), the checker stays silent: the rule is only decidable over a set
that includes the key construction.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set, Tuple

from ..core import Checker, Finding, Rule
from ..index import ClassInfo, FunctionInfo, ProjectIndex

#: Dataclasses whose class-level state must not steer keyed runs.
TRACKED_CONFIG_CLASSES = (
    "SimConfig",
    "MeasurementConfig",
    "TelemetryConfig",
)

#: Name of the function that builds the cache key payload.
KEY_FUNCTION = "config_key"


class CacheKeyChecker(Checker):
    name = "cache"
    rules = (
        Rule("CACHE002",
             "class-level state on a config dataclass is invisible to "
             "asdict() and so to the cache key"),
    )

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        key_functions = index.functions.get(KEY_FUNCTION, [])
        if not key_functions:
            return
        read: Set[Tuple[str, str]] = set()
        for func in key_functions:
            read |= _explicit_reads(func)
        for name in TRACKED_CONFIG_CLASSES:
            info = index.resolve_base(name)
            if info is None or not info.is_dataclass:
                continue
            for attr in sorted(info.class_attrs):
                if attr.startswith("__") or (name, attr) in read:
                    continue
                yield self.finding_at(
                    "CACHE002", info.relpath,
                    _attr_line(index, info, attr),
                    f"{name}.{attr} is class-level state: asdict() skips "
                    f"it, so it never reaches the cache key built by "
                    f"{KEY_FUNCTION}() even though it can steer behaviour "
                    f"(make it a field or key it explicitly)",
                )


def _explicit_reads(func: FunctionInfo) -> Set[Tuple[str, str]]:
    """(class, attribute) pairs ``func`` reads off a tracked parameter."""
    param_class = {}
    args = func.node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is None:
            continue
        annotation = ast.unparse(arg.annotation)
        for name in TRACKED_CONFIG_CLASSES:
            if name in annotation:
                param_class[arg.arg] = name
    return {
        (param_class[node.value.id], node.attr)
        for node in func.source.subtree(func.index)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in param_class
    }


def _attr_line(index: ProjectIndex, info: ClassInfo, attr: str) -> int:
    """Line of ``attr``'s class-level assignment inside ``info``'s body."""
    node = index.modules[info.relpath].source.nodes[info.index]
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ) and item.target.id == attr:
            return item.lineno
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == attr for t in item.targets
        ):
            return item.lineno
    return info.line
