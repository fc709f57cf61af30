"""WRAP: string-named wrap targets must resolve to real attributes.

Validation probes instrument the simulator by monkeypatching *named*
attributes on live objects at attach time (``sink.accept =
wrapped``).  Nothing ties
those names to the definitions in ``sim/``: rename ``Sink.accept`` and
the in-order probe silently stops probing -- the failure surfaces hours
later as a vacuously passing oracle, not as a lint error.

``WRAP001`` closes that gap.  In the wrap-site modules (``probes.py``
or any file scoped ``# repro: scope[wrap-site]``) it collects every
wrap target:

* ``getattr(obj, "name", ...)`` / ``setattr(obj, "name", ...)`` with a
  literal name;
* the read-then-reassign monkeypatch idiom: an attribute both loaded
  and stored (or deleted) on the same non-``self`` object within one
  function;
* ``"name" in obj.__dict__`` membership probes.

Each target must be provided (method, ``self.x`` assignment, property,
``__slots__`` entry, or dataclass field) by at least one class in the
analyzed set; unresolved names fail the lint at the wrap site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..core import Checker, Finding, Rule, SourceFile, call_name
from ..index import ProjectIndex


@dataclass(frozen=True)
class WrapSite:
    """One attribute name a probe wraps, and where."""

    attr: str
    relpath: str
    line: int
    kind: str  # "getattr" | "monkeypatch" | "dict-probe" | "setattr"


def collect_wrap_sites(source: SourceFile) -> List[WrapSite]:
    """Every wrap target named in ``source`` (a wrap-site module)."""
    sites: List[WrapSite] = []
    for scope in source.scopes():
        loads: Set[Tuple[str, str]] = set()
        # The last store in source order names a monkeypatch site.
        stores: Dict[Tuple[str, str], int] = {}
        for node in source.own(scope):
            if isinstance(node, ast.Call):
                dotted = call_name(node)
                if dotted in ("getattr", "setattr", "delattr") and len(
                    node.args
                ) >= 2:
                    name_arg = node.args[1]
                    if isinstance(name_arg, ast.Constant) and isinstance(
                        name_arg.value, str
                    ):
                        sites.append(WrapSite(
                            attr=name_arg.value,
                            relpath=source.relpath,
                            line=node.lineno,
                            kind=dotted,
                        ))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                base = node.value.id
                if base in ("self", "cls"):
                    continue
                if node.attr == "__dict__":
                    continue
                key = (base, node.attr)
                if isinstance(node.ctx, ast.Load):
                    loads.add(key)
                else:  # Store or Del: both are instance patches
                    stores[key] = node.lineno
            elif isinstance(node, ast.Compare):
                sites.extend(_dict_probe_sites(node, source))
        for key in sorted(loads & set(stores)):
            base, attr = key
            if attr.startswith("__"):
                continue
            sites.append(WrapSite(
                attr=attr,
                relpath=source.relpath,
                line=stores[key],
                kind="monkeypatch",
            ))
    return sites


def _dict_probe_sites(
    node: ast.Compare, source: SourceFile
) -> List[WrapSite]:
    """``"attr" in obj.__dict__`` membership probes."""
    sites: List[WrapSite] = []
    if not any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
        return sites
    operands = [node.left] + list(node.comparators)
    has_dunder_dict = any(
        isinstance(operand, ast.Attribute) and operand.attr == "__dict__"
        for operand in operands
    )
    if not has_dunder_dict:
        return sites
    for operand in operands:
        if isinstance(operand, ast.Constant) and isinstance(
            operand.value, str
        ):
            sites.append(WrapSite(
                attr=operand.value,
                relpath=source.relpath,
                line=node.lineno,
                kind="dict-probe",
            ))
    return sites


class WrapTargetChecker(Checker):
    name = "wrap"
    rules = (
        Rule("WRAP001",
             "wrapped attribute name resolves to no class in the tree"),
    )

    def finalize(self, index: ProjectIndex) -> Iterable[Finding]:
        # Sites come from the completed index, so the checker keeps no
        # state between files.
        sites = [
            site for source in index.files
            if source.in_domain("wrap-site")
            for site in collect_wrap_sites(source)
        ]
        seen: Set[Tuple[str, str, int]] = set()
        for site in sites:
            dedupe = (site.relpath, site.attr, site.line)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            providers = [
                info for info in index.providers(site.attr)
                # A wrapper defined in the wrap-site module itself (e.g.
                # a proxy class) must not satisfy its own resolution.
                if info.relpath != site.relpath
            ]
            if not providers:
                yield self.finding_at(
                    "WRAP001", site.relpath, site.line,
                    f"wrapped attribute '{site.attr}' ({site.kind}) does "
                    f"not resolve to any method, self-assigned attribute, "
                    f"property, slot, or field of a class in the analyzed "
                    f"tree -- a rename has orphaned this probe point",
                )
