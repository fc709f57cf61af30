"""ProjectIndex unit suite: call graph, fingerprints, signatures."""

from pathlib import Path

from repro.analysis.core import SourceFile
from repro.analysis.index import ProjectIndex


def _index(tmp_path: Path, **modules: str) -> ProjectIndex:
    index = ProjectIndex()
    for name, text in modules.items():
        path = tmp_path / f"{name}.py"
        path.write_text(text)
        index.add_file(SourceFile(path, root=tmp_path))
    return index


GRAPH = (
    "def helper():\n"
    "    return 1\n"
    "\n"
    "class Engine:\n"
    "    def __init__(self):\n"
    "        self.pump = Pump()\n"
    "\n"
    "    def run(self):\n"
    "        helper()\n"
    "        self.spin()\n"
    "        self.pump.prime()\n"
    "\n"
    "    def spin(self):\n"
    "        pass\n"
    "\n"
    "class Pump:\n"
    "    def prime(self):\n"
    "        pass\n"
)


def test_bare_name_edge(tmp_path):
    index = _index(tmp_path, mod=GRAPH)
    run = index.nodes["mod.py::Engine.run"]
    reached = index.reachable([run])
    assert "mod.py::helper" in reached


def test_self_method_edge(tmp_path):
    index = _index(tmp_path, mod=GRAPH)
    run = index.nodes["mod.py::Engine.run"]
    reached = index.reachable([run])
    assert "mod.py::Engine.spin" in reached


def test_ctor_typed_attribute_edge(tmp_path):
    # self.pump = Pump() in __init__ types the receiver of
    # self.pump.prime(), so the edge is precise, not any-provider.
    index = _index(tmp_path, mod=GRAPH)
    run = index.nodes["mod.py::Engine.run"]
    reached = index.reachable([run])
    assert "mod.py::Pump.prime" in reached


def test_reachable_keep_filter_blocks_expansion(tmp_path):
    index = _index(tmp_path, mod=GRAPH)
    run = index.nodes["mod.py::Engine.run"]
    reached = index.reachable(
        [run], keep=lambda n: n.class_name == "Engine"
    )
    # Roots always pass; expansion stays inside the Engine class.
    assert "mod.py::Engine.run" in reached
    assert "mod.py::Engine.spin" in reached
    assert "mod.py::helper" not in reached


def test_nested_functions_get_locals_qualnames(tmp_path):
    index = _index(
        tmp_path,
        mod=(
            "def make():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
        ),
    )
    assert any(
        node.nested and "make.<locals>.inner" in qualname
        for qualname, node in index.nodes.items()
    )


def test_call_refs_leave_nested_defs_to_their_own_nodes(tmp_path):
    index = _index(
        tmp_path,
        mod=(
            "def outer(flag):\n"
            "    def inner():\n"
            "        from_inner()\n"
            "    if flag:\n"
            "        def guarded():\n"
            "            from_guarded()\n"
            "    class Local:\n"
            "        made = from_class_body()\n"
            "    from_outer(lambda: from_lambda())\n"
            "    return inner\n"
        ),
    )
    outer = index.nodes["mod.py::outer"]
    assert [(ref.kind, ref.name) for ref in outer.calls] == [
        ("bare", "from_outer"),
    ]
    inner = index.nodes["mod.py::outer.<locals>.inner"]
    assert [ref.name for ref in inner.calls] == ["from_inner"]


def test_module_fingerprint_tracks_any_byte(tmp_path):
    index_a = _index(tmp_path, mod=GRAPH)
    fp_a = index_a.modules["mod.py"].fingerprint
    (tmp_path / "mod.py").write_text(GRAPH + "# trailing comment\n")
    index_b = ProjectIndex()
    index_b.add_file(SourceFile(tmp_path / "mod.py", root=tmp_path))
    assert index_b.modules["mod.py"].fingerprint != fp_a


def test_signature_ignores_comment_only_edits(tmp_path):
    index_a = _index(tmp_path, mod=GRAPH)
    (tmp_path / "mod.py").write_text("# a leading comment\n" + GRAPH)
    index_b = ProjectIndex()
    index_b.add_file(SourceFile(tmp_path / "mod.py", root=tmp_path))
    assert index_b.signature() == index_a.signature()


def test_signature_tracks_structural_edits(tmp_path):
    index_a = _index(tmp_path, mod=GRAPH)
    (tmp_path / "mod.py").write_text(
        GRAPH + "\ndef extra():\n    return 2\n"
    )
    index_b = ProjectIndex()
    index_b.add_file(SourceFile(tmp_path / "mod.py", root=tmp_path))
    assert index_b.signature() != index_a.signature()


def test_signature_is_stable_across_builds(tmp_path):
    index_a = _index(tmp_path, mod=GRAPH)
    index_b = _index(tmp_path, mod=GRAPH)
    assert index_a.signature() == index_b.signature()
