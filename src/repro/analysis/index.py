"""Cross-file symbol index the checkers resolve names against.

One pass over every parsed source collects, per class: methods,
``self.x`` attribute assignments (including inside nested closures,
which is where probe wrappers assign), properties, literal ``__slots__``
tuples, dataclass fields with their annotation text, and base-class
names.  Top-level functions are indexed by name so cross-file checkers
(e.g. the cache-key checker looking for ``config_key``) can find their
definition wherever it lives in the analyzed set.

On top of the symbol tables the index builds the whole-program
machinery the HOT checker needs:

* a :class:`FunctionNode` per function definition -- top-level,
  method, or nested closure -- with the call references its body makes;
* a conservative call graph over those nodes.  A bare call resolves to
  every top-level function (and, via ``__init__``, every class) of that
  name; ``self.m()`` resolves within the enclosing class and its
  resolvable bases; ``obj.m()`` resolves to every indexed class method
  named ``m`` (the same any-provider semantics WRAP uses), except that
  a constructor receiver (``Simulator(...).run()``) or a class-name
  receiver (``Network.step``) resolves precisely;
* a content fingerprint per module and a :meth:`ProjectIndex.signature`
  digest over the *indexed facts* -- the incremental driver keys cached
  per-module findings on it, so a comment-only edit elsewhere does not
  invalidate them while any symbol or call-edge change does.

The index is purely syntactic -- no imports are executed -- so it works
identically on the real tree and on throwaway fixture trees.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import SourceFile, call_name, decorator_names

#: Method names too ubiquitous for any-provider call resolution: a
#: ``.items()`` or ``.format()`` call says nothing about which class is
#: the receiver, so resolving it to every provider would glue unrelated
#: subsystems into one reachability blob.  Project-meaningful names
#: (``cycle``, ``drain``, ``inject``, ...) stay resolvable.
UBIQUITOUS_METHODS = frozenset({
    "items", "keys", "values", "copy", "join", "split", "rsplit",
    "strip", "lstrip", "rstrip", "encode", "decode", "format",
    "startswith", "endswith", "sort", "reverse", "count", "index",
    "lower", "upper", "title", "replace", "setdefault", "isdigit",
    "partition", "rpartition", "splitlines", "to_dict", "from_dict",
})


@dataclass
class ClassInfo:
    """Everything the checkers need to know about one class definition."""

    name: str
    relpath: str
    line: int
    #: Preorder index of the ``class`` statement in its source's table.
    index: int
    bases: Tuple[str, ...] = ()
    #: Literal ``__slots__`` entries, or None when the class declares no
    #: ``__slots__`` (or declares one the analyzer cannot read
    #: statically, which is treated as "no slots" -- conservative).
    slots: Optional[Tuple[str, ...]] = None
    methods: Set[str] = field(default_factory=set)
    self_attrs: Set[str] = field(default_factory=set)
    properties: Set[str] = field(default_factory=set)
    class_attrs: Set[str] = field(default_factory=set)
    is_dataclass: bool = False
    #: Dataclass fields in declaration order: name -> annotation source.
    fields: Dict[str, str] = field(default_factory=dict)
    #: ``self.x = Ctor(...)`` assignments: attr -> dotted constructor
    #: name (the first in source order across the methods).
    attr_ctors: Dict[str, str] = field(default_factory=dict)

    def provides(self, attr: str) -> bool:
        """Does an instance of this class expose ``attr``?"""
        return (
            attr in self.methods
            or attr in self.self_attrs
            or attr in self.properties
            or attr in self.class_attrs
            or attr in self.fields
            or (self.slots is not None and attr in self.slots)
        )


@dataclass
class FunctionInfo:
    """One top-level (module-scope) function definition."""

    name: str
    source: SourceFile
    node: ast.FunctionDef
    index: int


@dataclass(frozen=True)
class CallRef:
    """One call reference made by a function body.

    ``kind`` is how the target was named: ``"bare"`` (``f(...)``),
    ``"self"`` (``self.m(...)``), ``"dotted"`` (``base.m(...)`` with a
    plain-name base -- possibly a class name), ``"ctor"``
    (``Cls(...).m(...)``), or ``"method"`` (``<expr>.m(...)``).
    """

    kind: str
    name: str


@dataclass
class FunctionNode:
    """One function definition in the call graph (any nesting level)."""

    qualname: str
    relpath: str
    name: str
    node: ast.AST
    #: Preorder index of ``node`` in its source's table.
    index: int
    class_name: Optional[str] = None
    nested: bool = False
    calls: Tuple[CallRef, ...] = ()

    @property
    def source_key(self) -> Tuple[str, int]:
        return (self.relpath, self.node.lineno)


@dataclass
class ModuleRecord:
    """Per-module bookkeeping for the incremental driver."""

    relpath: str
    fingerprint: str
    source: SourceFile


class ProjectIndex:
    """Name -> definitions map over every analyzed source file."""

    def __init__(self) -> None:
        self.files: List[SourceFile] = []
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, List[FunctionInfo]] = {}
        self.modules: Dict[str, ModuleRecord] = {}
        #: Every function definition, keyed by qualname.
        self.nodes: Dict[str, FunctionNode] = {}
        #: Method name -> nodes (any class), for any-provider resolution.
        self._methods_by_name: Dict[str, List[str]] = {}
        #: Bare function name -> nodes (top-level and nested).
        self._functions_by_name: Dict[str, List[str]] = {}
        #: Class name -> {method name -> qualname}.
        self._class_methods: Dict[str, Dict[str, str]] = {}

    def add_file(self, source: SourceFile) -> None:
        self.files.append(source)
        self.modules[source.relpath] = ModuleRecord(
            relpath=source.relpath,
            fingerprint=hashlib.sha256(source.text.encode()).hexdigest(),
            source=source,
        )
        for i, node in enumerate(source.nodes):
            if isinstance(node, ast.ClassDef):
                info = _class_info(source, i)
                self.classes.setdefault(info.name, []).append(info)
        for i in source.children(0):
            node = source.nodes[i]
            if isinstance(node, ast.FunctionDef):
                self.functions.setdefault(node.name, []).append(
                    FunctionInfo(node.name, source, node, i)
                )
        self._index_call_graph(source)

    # ------------------------------------------------------------------
    # Call graph.
    # ------------------------------------------------------------------

    def _index_call_graph(self, source: SourceFile) -> None:
        for fn in _function_defs(source):
            self.nodes[fn.qualname] = fn
            self._functions_by_name.setdefault(fn.name, []).append(
                fn.qualname
            )
            if fn.class_name is not None:
                self._methods_by_name.setdefault(fn.name, []).append(
                    fn.qualname
                )
                self._class_methods.setdefault(
                    fn.class_name, {}
                ).setdefault(fn.name, fn.qualname)

    def resolve_call(
        self, node: FunctionNode, ref: CallRef
    ) -> List[FunctionNode]:
        """Every definition ``ref`` may reach, conservatively."""
        targets: List[FunctionNode] = []
        if ref.kind == "bare":
            for qual in self._functions_by_name.get(ref.name, ()):
                candidate = self.nodes[qual]
                if candidate.class_name is None:
                    targets.append(candidate)
            # A bare call of a class name constructs it.
            init = self._class_methods.get(ref.name, {}).get("__init__")
            if init:
                targets.append(self.nodes[init])
        elif ref.kind == "self":
            resolved = self._resolve_self(node, ref.name)
            if resolved is not None:
                return [resolved]
            return self._any_provider(ref.name)
        elif ref.kind in ("dotted", "ctor"):
            base, _, method = ref.name.rpartition(".")
            qual = self._class_methods.get(base, {}).get(method)
            if qual:
                return [self.nodes[qual]]
            if ref.kind == "dotted":
                return self._any_provider(method)
        elif ref.kind == "method":
            return self._any_provider(ref.name)
        return targets

    def _resolve_self(
        self, node: FunctionNode, method: str
    ) -> Optional[FunctionNode]:
        cls = node.class_name
        seen: Set[str] = set()
        while cls is not None and cls not in seen:
            seen.add(cls)
            qual = self._class_methods.get(cls, {}).get(method)
            if qual:
                return self.nodes[qual]
            info = self.resolve_base(cls)
            cls = info.bases[0] if info is not None and info.bases else None
        return None

    def _any_provider(self, method: str) -> List[FunctionNode]:
        if method in UBIQUITOUS_METHODS:
            return []
        return [
            self.nodes[q] for q in self._methods_by_name.get(method, ())
        ]

    def reachable(
        self,
        roots: Iterable[FunctionNode],
        keep=None,
    ) -> Dict[str, FunctionNode]:
        """Transitive closure over the call graph from ``roots``.

        ``keep`` filters *expansion*: a node failing the predicate is
        neither included nor followed.  Roots always pass.
        """
        frontier = list(roots)
        seen: Dict[str, FunctionNode] = {}
        for root in frontier:
            seen[root.qualname] = root
        while frontier:
            node = frontier.pop()
            for ref in node.calls:
                for target in self.resolve_call(node, ref):
                    if target.qualname in seen:
                        continue
                    if keep is not None and not keep(target):
                        continue
                    seen[target.qualname] = target
                    frontier.append(target)
        return seen

    # ------------------------------------------------------------------
    # Incremental-driver signatures.
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Digest of every indexed fact (symbols + call edges).

        Two trees with identical signatures resolve identically for
        every cross-file checker question, so cached per-module findings
        keyed on (module fingerprint, this signature) stay valid across
        edits -- comments, docstrings, formatting -- that change no
        indexed fact.
        """
        payload: Dict[str, object] = {}
        for relpath in sorted(self.modules):
            source = self.modules[relpath].source
            classes = sorted(
                (
                    info.name,
                    list(info.bases),
                    sorted(info.methods),
                    sorted(info.self_attrs),
                    sorted(info.properties),
                    sorted(info.class_attrs),
                    list(info.slots) if info.slots is not None else None,
                    sorted(info.fields.items()),
                    sorted(info.attr_ctors.items()),
                    info.is_dataclass,
                )
                for info in self.all_classes()
                if info.relpath == relpath
            )
            functions = sorted(
                (
                    fn.qualname,
                    [(ref.kind, ref.name) for ref in fn.calls],
                )
                for fn in self.nodes.values()
                if fn.relpath == relpath
            )
            payload[relpath] = {
                "classes": classes,
                "functions": functions,
                "domains": sorted(source.domains),
            }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def all_classes(self) -> List[ClassInfo]:
        return [info for infos in self.classes.values() for info in infos]

    def providers(self, attr: str) -> List[ClassInfo]:
        """Every indexed class whose instances expose ``attr``."""
        return [c for c in self.all_classes() if c.provides(attr)]

    def resolve_base(self, name: str) -> Optional[ClassInfo]:
        """The unique class definition for ``name``, if unambiguous."""
        infos = self.classes.get(name, [])
        return infos[0] if len(infos) == 1 else None


def _class_info(source: SourceFile, index: int) -> ClassInfo:
    node = source.nodes[index]
    decorators = decorator_names(node)
    info = ClassInfo(
        name=node.name,
        relpath=source.relpath,
        line=node.lineno,
        index=index,
        bases=tuple(
            n for n in (call_name(b) for b in node.bases) if n is not None
        ),
        is_dataclass="dataclass" in decorators
        or any(d.endswith(".dataclass") for d in decorators),
    )
    # The statement children of a class are exactly its body.
    for child in source.children(index):
        item = source.nodes[child]
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            item_decos = decorator_names(item)
            if "property" in item_decos or any(
                d.endswith(".setter") or d.endswith(".getter")
                or d.endswith(".deleter") for d in item_decos
            ):
                info.properties.add(item.name)
            else:
                info.methods.add(item.name)
            method = source.subtree(child)
            info.self_attrs |= _self_stores(method)
            for attr, ctor in _self_ctor_stores(method).items():
                info.attr_ctors.setdefault(attr, ctor)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    if target.id == "__slots__":
                        info.slots = _literal_slots(item.value)
                    else:
                        info.class_attrs.add(target.id)
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            name = item.target.id
            if name == "__slots__":
                info.slots = _literal_slots(item.value)
            elif info.is_dataclass and not _is_classvar(item.annotation):
                info.fields[name] = _annotation_text(item.annotation)
            else:
                info.class_attrs.add(name)
    return info


def _self_stores(method: List[ast.AST]) -> Set[str]:
    """Attribute names assigned on ``self`` anywhere in a method subtree.

    Includes nested closures: a probe's ``attach`` assigning
    ``self._wrapped`` from inside a wrapper function still counts.
    """
    stores: Set[str] = set()
    for node in method:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            stores.add(node.attr)
    return stores


def _self_ctor_stores(method: List[ast.AST]) -> Dict[str, str]:
    """``self.x = Ctor(...)`` assignments: attr -> dotted ctor name
    (the first assignment in source order wins)."""
    ctors: Dict[str, str] = {}
    for node in method:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not isinstance(value, ast.Call):
            continue
        ctor = call_name(value.func)
        if ctor is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                ctors.setdefault(target.attr, ctor)
    return ctors


def _function_defs(source: SourceFile) -> List[FunctionNode]:
    """Every function definition in ``source`` as a FunctionNode: in
    def and class bodies, and in if/try/with bodies outside functions."""
    nodes: List[FunctionNode] = []
    taken: Set[str] = set()

    def visit(
        parent: int,
        class_name: Optional[str],
        prefix: str,
        nested: bool,
    ) -> None:
        for i in source.children(parent):
            stmt = source.nodes[i]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{source.relpath}::{prefix}{stmt.name}"
                if qual in taken:
                    qual = f"{qual}@{stmt.lineno}"
                taken.add(qual)
                nodes.append(
                    FunctionNode(
                        qualname=qual,
                        relpath=source.relpath,
                        name=stmt.name,
                        node=stmt,
                        index=i,
                        class_name=class_name,
                        nested=nested,
                        calls=_call_refs(source, i),
                    )
                )
                visit(i, class_name, f"{prefix}{stmt.name}.<locals>.", True)
            elif isinstance(stmt, ast.ClassDef):
                visit(i, stmt.name, f"{prefix}{stmt.name}.", nested)
            elif not nested and isinstance(
                stmt, (ast.If, ast.Try, ast.With)
            ):
                visit(i, class_name, prefix, nested)

    visit(0, None, "", False)
    return nodes


#: Nodes whose bodies run in a call of their own, not the enclosing one.
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _call_refs(source: SourceFile, index: int) -> Tuple[CallRef, ...]:
    """Call references made directly by the body of ``nodes[index]``
    (not its nested defs, lambdas, or classes)."""
    refs: Dict[CallRef, None] = {}  # an insertion-ordered set

    def add(kind: str, name: str) -> None:
        refs.setdefault(CallRef(kind, name))

    nodes, end = source.nodes, source.end
    for stmt in source.children(index):
        if not isinstance(nodes[stmt], ast.stmt):
            continue  # arguments, decorators, return annotation
        i, stop = stmt, end[stmt]
        while i < stop:
            node = nodes[i]
            i = end[i] if isinstance(node, _OPAQUE) else i + 1
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Name):
                add("bare", target.id)
            elif isinstance(target, ast.Attribute):
                receiver = target.value
                ctor = (
                    call_name(receiver.func)
                    if isinstance(receiver, ast.Call) else None
                )
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    add("self", target.attr)
                elif isinstance(receiver, ast.Name):
                    add("dotted", f"{receiver.id}.{target.attr}")
                elif ctor is not None:
                    add("ctor", f"{ctor.rpartition('.')[2]}.{target.attr}")
                else:
                    add("method", target.attr)
    return tuple(refs)


def _literal_slots(value: Optional[ast.AST]) -> Optional[Tuple[str, ...]]:
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        names: List[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                names.append(element.value)
            else:
                return None
        return tuple(names)
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    return None


def _is_classvar(annotation: Optional[ast.AST]) -> bool:
    text = _annotation_text(annotation)
    return text.startswith("ClassVar") or text.startswith("typing.ClassVar")


def _annotation_text(annotation: Optional[ast.AST]) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover
        return ""
