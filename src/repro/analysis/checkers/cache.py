"""CACHE: every config field must participate in the result-cache key.

``runtime/cache.py`` addresses cached :class:`RunResult` payloads by a
SHA-256 over the run's configuration.  A config field that does *not*
ride the key is a stale-cache bug waiting to happen: two runs differing
only in that field collapse onto one cache entry and the second run is
served the first run's results.

``CACHE001`` cross-references the fields of the tracked config
dataclasses (``SimConfig``, ``MeasurementConfig``, ``TelemetryConfig``)
against the body of the key function (``config_key``):

* ``asdict(param)`` covers every field of the parameter's annotated
  class, *recursively* -- a covered class whose field annotation names
  another tracked dataclass covers that class too (``SimConfig.telemetry:
  Optional[TelemetryConfig]`` carries TelemetryConfig into the key);
* a direct ``param.field`` attribute read covers that single field;
* ``asdict(param.field)`` covers that field and the tracked dataclass
  its annotation names (``asdict(config.telemetry)`` -> TelemetryConfig),
  and nothing else of the parameter's class;
* a field can be exempted by name in a module-level
  ``CACHE_KEY_EXEMPT = {"Class.field", ...}`` set next to the key
  function, or inline on the field with ``# repro: allow[CACHE001] why``.

``CACHE002`` flags class-level state on a tracked config class: a plain
class attribute or ``ClassVar`` is not a dataclass field, so
``asdict()`` -- and therefore an asdict-built key -- silently skips it
even though it can steer behaviour.  Such a knob must become a real
field, be read into the key explicitly, or be exempted like a field.

If the analyzed set contains tracked dataclasses but no key function
(e.g. linting a single file), the checker stays silent rather than
flagging everything: completeness is only decidable over a set that
includes the key construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core import Checker, Finding, Rule, call_name
from ..index import ClassInfo, FunctionInfo, ProjectIndex

#: Dataclasses whose fields must all participate in the cache key.
TRACKED_CONFIG_CLASSES = (
    "SimConfig",
    "MeasurementConfig",
    "TelemetryConfig",
)

#: Name of the function that builds the cache key payload.
KEY_FUNCTION = "config_key"

#: Module-level set naming deliberately-unfingerprinted fields.
EXEMPT_SET_NAME = "CACHE_KEY_EXEMPT"


class CacheKeyChecker(Checker):
    name = "cache"
    rules = (
        Rule("CACHE001",
             "config dataclass field missing from the cache key"),
        Rule("CACHE002",
             "class-level state on a config dataclass is invisible to "
             "asdict() and so to the cache key"),
    )

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        tracked: Dict[str, ClassInfo] = {}
        for name in TRACKED_CONFIG_CLASSES:
            info = index.resolve_base(name)
            if info is not None and info.is_dataclass:
                tracked[name] = info
        if not tracked:
            return

        key_functions = index.functions.get(KEY_FUNCTION, [])
        if not key_functions:
            return

        covered_classes: Set[str] = set()
        covered_fields: Set[Tuple[str, str]] = set()
        exempt: Set[str] = set()
        for func in key_functions:
            file_classes, file_fields = _coverage(func, tracked)
            covered_classes |= file_classes
            covered_fields |= file_fields
            exempt |= _exemptions(func)

        # asdict() recurses into nested dataclasses: a covered class
        # whose field annotation mentions a tracked class covers it too.
        changed = True
        while changed:
            changed = False
            for name in list(covered_classes):
                info = tracked.get(name)
                if info is None:
                    continue
                for annotation in info.fields.values():
                    for other in tracked:
                        if other in annotation and other not in covered_classes:
                            covered_classes.add(other)
                            changed = True

        for name, info in sorted(tracked.items()):
            for field_name, _annotation in info.fields.items():
                if name in covered_classes:
                    continue
                if (name, field_name) in covered_fields:
                    continue
                if f"{name}.{field_name}" in exempt:
                    continue
                yield self.finding_at(
                    "CACHE001", info.relpath,
                    _field_line(index, info, field_name),
                    f"{name}.{field_name} does not participate in the "
                    f"cache key built by {KEY_FUNCTION}(); a run differing "
                    f"only in this field would be served a stale cached "
                    f"result (add it to the key or to {EXEMPT_SET_NAME})",
                )
            # Class-level attributes never ride asdict(), so full-class
            # coverage does not cover them -- only an explicit read does.
            for attr in sorted(info.class_attrs):
                if attr.startswith("__"):
                    continue
                if (name, attr) in covered_fields:
                    continue
                if f"{name}.{attr}" in exempt:
                    continue
                yield self.finding_at(
                    "CACHE002", info.relpath,
                    _field_line(index, info, attr),
                    f"{name}.{attr} is class-level state: asdict() skips "
                    f"it, so it never reaches the cache key built by "
                    f"{KEY_FUNCTION}() even though it can steer behaviour "
                    f"(make it a field, key it explicitly, or add it to "
                    f"{EXEMPT_SET_NAME})",
                )


def _coverage(
    func: FunctionInfo, tracked: Dict[str, ClassInfo]
) -> Tuple[Set[str], Set[Tuple[str, str]]]:
    """(classes fully covered, (class, field) pairs covered) by ``func``."""
    param_class: Dict[str, str] = {}
    for arg in (
        list(func.node.args.posonlyargs)
        + list(func.node.args.args)
        + list(func.node.args.kwonlyargs)
    ):
        if arg.annotation is None:
            continue
        annotation = _text(arg.annotation)
        for name in tracked:
            if name in annotation:
                param_class[arg.arg] = name

    source = func.source
    classes: Set[str] = set()
    fields: Set[Tuple[str, str]] = set()
    for i, node in enumerate(source.subtree(func.index), func.index):
        if isinstance(node, ast.Call):
            dotted = call_name(node)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "asdict":
                # A call's children are its func, args, then keywords.
                for arg in list(source.children(i))[1:1 + len(node.args)]:
                    inner = source.subtree(arg)
                    classes |= _asdict_classes(inner, param_class, tracked)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in param_class
        ):
            fields.add((param_class[node.value.id], node.attr))
    return classes, fields


def _asdict_classes(
    inner: List[ast.AST],
    param_class: Dict[str, str],
    tracked: Dict[str, ClassInfo],
) -> Set[str]:
    """Tracked classes one ``asdict(<inner>)`` argument dumps whole.

    ``asdict(param)`` dumps the parameter's class; ``asdict(param.field)``
    dumps only what the field holds -- the tracked dataclass its
    annotation names (``asdict(config.telemetry)`` -> TelemetryConfig) --
    and says nothing about the parameter's other fields;
    ``asdict(Tracked(...))`` dumps the constructed class.
    """
    classes: Set[str] = set()
    field_bases = set()
    for sub in inner:
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in param_class
        ):
            field_bases.add(id(sub.value))
            annotation = tracked[param_class[sub.value.id]].fields.get(
                sub.attr, ""
            )
            classes.update(name for name in tracked if name in annotation)
    for sub in inner:
        if isinstance(sub, ast.Name):
            if sub.id in param_class and id(sub) not in field_bases:
                classes.add(param_class[sub.id])
        elif isinstance(sub, ast.Call):
            ctor = call_name(sub)
            if ctor in tracked:
                classes.add(ctor)
    return classes


def _exemptions(func: FunctionInfo) -> Set[str]:
    """``CACHE_KEY_EXEMPT`` entries from the key function's module."""
    return _string_set(func.source.tree, EXEMPT_SET_NAME)


def _string_set(tree: ast.Module, set_name: str) -> Set[str]:
    """String elements of a module-level ``NAME = {...}`` assignment."""
    found: Set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == set_name:
                for element in getattr(node.value, "elts", ()):
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        found.add(element.value)
    return found


def _field_line(index: ProjectIndex, info: ClassInfo,
                field_name: str) -> int:
    """Line of ``field_name``'s declaration inside ``info``'s class."""
    node = index.modules[info.relpath].source.nodes[info.index]
    for item in node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id == field_name
        ):
            return item.lineno
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == field_name
            for t in item.targets
        ):
            return item.lineno
    return info.line


def _text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return ""
