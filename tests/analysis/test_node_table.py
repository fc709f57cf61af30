"""The node table against the AST walks it replaced.

Every checker and the project index read one preorder table per file
(``SourceFile.nodes`` / ``end``) instead of walking the AST on their
own.  Over every ``.py`` file under ``src``, ``tests`` (fixtures
included) and ``benchmarks`` this suite shows:

* the subtree of every def, class and lambda is what ``ast.walk``
  visits, as an identity multiset;
* each scope's own nodes are a reference recursive walk's, in source
  order;
* every site whose result depends on visit order gives the answer the
  replaced walk gave, or is order-free:

  - wrap's ``loads`` / ``stores``: the replaced stack walk visited the
    last sibling first, so the *last* store in source order named a
    monkeypatch site.  The table keeps that (a later store overwrites)
    and ``loads`` only answers membership.  The site list holds the
    same sites in another order; the kind WRAP001 reports for each
    (attribute, line) is shown equal on the corpus.
  - det's stack-order ``_walk_scope`` (and pure's): the own scope holds
    the same nodes; ``_set_typed_locals`` is a set, and findings are
    ordered by ``Finding.sort_key``, which is total.
"""

import ast
import random

import pytest

from repro.analysis.checkers.wrap import WrapSite, collect_wrap_sites
from repro.analysis.core import SCOPE_NODES, Finding, SourceFile, call_name

from .conftest import REPO_ROOT

CORPUS = sorted(
    path
    for top in ("src", "tests", "benchmarks")
    for path in (REPO_ROOT / top).rglob("*.py")
)


@pytest.fixture(scope="module")
def sources():
    return [SourceFile(path, root=REPO_ROOT) for path in CORPUS]


def _ids(nodes):
    return sorted(map(id, nodes))


def _recursive_own(scope: ast.AST):
    """Reference: ``scope`` then its nodes in source order, skipping
    nested function definitions."""
    collected = [scope]

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, SCOPE_NODES):
                collected.append(child)
                visit(child)

    visit(scope)
    return collected


def _stack_own(scope: ast.AST):
    """Reference: the stack-order scope walk det, pure and wrap used."""
    collected = []
    stack = [scope]
    while stack:
        node = stack.pop()
        collected.append(node)
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, SCOPE_NODES)
        )
    return collected


def test_corpus_covers_fixtures_and_every_tree():
    relpaths = {path.relative_to(REPO_ROOT).parts[0] for path in CORPUS}
    assert relpaths == {"src", "tests", "benchmarks"}
    assert any(path.parent.name == "fixtures" for path in CORPUS)


def test_subtrees_are_what_ast_walk_visits(sources):
    for source in sources:
        assert _ids(source.nodes) == _ids(ast.walk(source.tree))
        assert source.nodes[0] is source.tree
        for i, node in enumerate(source.nodes):
            if isinstance(
                node, SCOPE_NODES + (ast.ClassDef, ast.Lambda)
            ):
                assert _ids(source.subtree(i)) == _ids(ast.walk(node)), (
                    f"{source.relpath}:{node.lineno}"
                )


def test_own_scopes_are_a_recursive_walk_in_source_order(sources):
    for source in sources:
        scopes = source.scopes()
        expected = [source.tree] + [
            node for node in ast.walk(source.tree)
            if isinstance(node, SCOPE_NODES)
        ]
        assert _ids(source.nodes[i] for i in scopes) == _ids(expected)
        for i in scopes:
            own = source.own(i)
            scope = source.nodes[i]
            assert list(map(id, own)) == list(
                map(id, _recursive_own(scope))
            ), f"{source.relpath}:{getattr(scope, 'lineno', 0)}"
            # The stack walk saw the same nodes, in another order.
            assert _ids(own) == _ids(_stack_own(scope))


def test_children_are_iter_child_nodes(sources):
    for source in sources[:40]:
        for i, node in enumerate(source.nodes):
            assert [source.nodes[c] for c in source.children(i)] == list(
                ast.iter_child_nodes(node)
            )


def test_wrap_sites_match_the_stack_walk(sources):
    def reference(source):
        sites = []
        scopes = [source.tree] + [
            node for node in ast.walk(source.tree)
            if isinstance(node, SCOPE_NODES)
        ]
        for scope in scopes:
            loads, stores = {}, {}
            for node in _stack_own(scope):
                if isinstance(node, ast.Call):
                    dotted = call_name(node)
                    if dotted in ("getattr", "setattr", "delattr") and len(
                        node.args
                    ) >= 2:
                        name = node.args[1]
                        if isinstance(name, ast.Constant) and isinstance(
                            name.value, str
                        ):
                            sites.append(WrapSite(
                                name.value, source.relpath, node.lineno,
                                dotted,
                            ))
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name
                ):
                    if node.value.id in ("self", "cls"):
                        continue
                    if node.attr == "__dict__":
                        continue
                    key = (node.value.id, node.attr)
                    if isinstance(node.ctx, ast.Load):
                        loads.setdefault(key, node.lineno)
                    else:
                        stores.setdefault(key, node.lineno)
                elif isinstance(node, ast.Compare):
                    sites.extend(_dict_probes(node, source))
            for key in sorted(set(loads) & set(stores)):
                if not key[1].startswith("__"):
                    sites.append(WrapSite(
                        key[1], source.relpath, stores[key], "monkeypatch",
                    ))
        return sites

    def reported(sites):
        # WRAP001 reports the first site per (attr, line); its kind is
        # in the message.
        first = {}
        for site in sites:
            first.setdefault((site.attr, site.line), site.kind)
        return first

    checked = 0
    for source in sources:
        found, expected = collect_wrap_sites(source), reference(source)
        assert sorted(found, key=repr) == sorted(expected, key=repr)
        assert reported(found) == reported(expected), source.relpath
        checked += len(expected)
    assert checked > 20


def _dict_probes(node: ast.Compare, source: SourceFile):
    if not any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
        return []
    operands = [node.left] + list(node.comparators)
    if not any(
        isinstance(o, ast.Attribute) and o.attr == "__dict__"
        for o in operands
    ):
        return []
    return [
        WrapSite(o.value, source.relpath, node.lineno, "dict-probe")
        for o in operands
        if isinstance(o, ast.Constant) and isinstance(o.value, str)
    ]


def test_finding_order_is_independent_of_visit_order():
    findings = [
        Finding("HOT001", "error", "m.py", 7, message, "hot")
        for message in ("b iterates", "a iterates", "c iterates")
    ] + [Finding("DET002", "error", "m.py", 7, "z", "det")]
    expected = sorted(findings, key=Finding.sort_key)
    rng = random.Random(0)
    for _ in range(10):
        shuffled = list(findings)
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=Finding.sort_key) == expected


def test_marker_free_files_are_not_tokenized(tmp_path, monkeypatch):
    import repro.analysis.core as core

    def refuse(*_args, **_kwargs):
        raise AssertionError("tokenized a file without markers")

    plain = tmp_path / "plain.py"
    plain.write_text("x = 1  # an ordinary comment\n")
    monkeypatch.setattr(core.tokenize, "generate_tokens", refuse)
    source = SourceFile(plain, root=tmp_path)
    assert source.suppressions == [] and source.domains == frozenset()
