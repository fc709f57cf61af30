"""SLOTS: ``__slots__`` coverage and per-instance patching hazards.

Three ways a slotted or pool-pickled class silently loses data:

* ``SLOTS001`` -- a class declares ``__slots__`` but a method assigns a
  ``self.attr`` the slot tuple does not cover.  On a fully-slotted
  inheritance chain that assignment raises ``AttributeError`` at
  runtime -- but only on the (possibly rare) path that executes it.
* ``SLOTS002`` -- a probe wrap site patches an attribute on
  instances whose every provider class is fully slotted: the patch
  raises at attach time.  The sim deliberately leaves router/sink/source
  classes un-slotted so wrappers can intercept them (see
  ``network.py``); this rule keeps that contract honest when someone
  later adds ``__slots__`` for speed.
* ``SLOTS003`` -- a non-field attribute assigned on an instance of a
  config/result dataclass that crosses process-pool pickles.  Slotted
  or not, the extra attribute is not part of the dataclass contract:
  it vanishes or desynchronizes across cache/pool hops.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core import Checker, Finding, Rule, SourceFile, call_name
from ..index import ClassInfo, ProjectIndex
from .wrap import all_wrap_sites

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
        Rule("SLOTS001",
             "self attribute assigned outside the class's __slots__"),
        Rule("SLOTS002",
             "instance patch targets a fully-__slots__ class"),
        Rule("SLOTS003",
             "non-field attribute set on a pool-pickled dataclass"),
    )

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        yield from self._check_pickled_instances(source, index)

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        yield from self._check_slot_coverage(index)
        yield from self._check_patched_slotted(index)

    # -- SLOTS001 -------------------------------------------------------

    def _check_slot_coverage(
        self, index: ProjectIndex
    ) -> Iterable[Finding]:
        for info in index.all_classes():
            if info.slots is None:
                continue
            chain = index.slots_chain(info)
            if chain is None:
                # Some base carries a __dict__ (or is unresolvable):
                # stray assignments land there legally.
                continue
            allowed = set(chain) | index.properties_chain(info)
            for attr in sorted(info.self_attrs - allowed):
                if attr.startswith("__"):
                    continue
                line = _self_store_line(index, info, attr)
                yield self.finding_at(
                    "SLOTS001", info.relpath, line,
                    f"{info.name}.{attr} is assigned on self but missing "
                    f"from __slots__ (chain covers: "
                    f"{', '.join(sorted(allowed)) or 'nothing'}); this "
                    f"raises AttributeError on the path that executes it",
                )

    # -- SLOTS002 -------------------------------------------------------

    def _check_patched_slotted(
        self, index: ProjectIndex
    ) -> Iterable[Finding]:
        seen: Set[Tuple[str, int, str]] = set()
        for site in all_wrap_sites(index):
            if not site.patches:
                continue
            dedupe = (site.relpath, site.line, site.attr)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            providers = [
                info for info in index.providers(site.attr)
                if info.relpath != site.relpath
            ]
            if not providers:
                continue  # WRAP001's problem, not ours
            slotted = [
                info for info in providers
                if index.slots_chain(info) is not None
            ]
            if len(slotted) == len(providers):
                names = ", ".join(sorted(info.name for info in slotted))
                yield self.finding_at(
                    "SLOTS002", site.relpath, site.line,
                    f"instance patch of '{site.attr}' targets only "
                    f"fully-__slots__ classes ({names}); the assignment "
                    f"raises AttributeError at attach time -- drop the "
                    f"__slots__ or wrap at the class/call site instead",
                )

    # -- SLOTS003 -------------------------------------------------------

    def _check_pickled_instances(
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


def _self_store_line(index: ProjectIndex, info: ClassInfo,
                     attr: str) -> int:
    """Line of the first ``self.<attr>`` store inside ``info``'s body."""
    source = index.modules[info.relpath].source
    for sub in source.subtree(info.index):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
            and sub.attr == attr
        ):
            return sub.lineno
    return info.line
