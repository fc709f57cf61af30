"""SLOTS checker: slot coverage, slotted-instance patching, pickled
dataclass hygiene."""

from repro.analysis.checkers.slots import SlotsChecker

from .conftest import run_analysis, rules_of


def _slots_only(*paths, root=None):
    return run_analysis(*paths, checkers=[SlotsChecker()], root=root)


def test_bad_fixture_fires_coverage_and_pickle_rules():
    result = _slots_only("slots_bad.py")
    rules = rules_of(result)
    assert rules.count("SLOTS001") == 2  # Packed.tagged, PackedChild.checksum
    assert rules.count("SLOTS003") == 1  # SimConfig.run_label
    messages = " ".join(f.message for f in result.new_findings)
    assert "tagged" in messages
    assert "checksum" in messages
    assert "run_label" in messages


def test_good_fixture_is_silent():
    result = _slots_only("slots_good.py")
    assert result.ok, [str(f) for f in result.new_findings]


def test_patching_fully_slotted_class_fires_slots002():
    result = _slots_only(
        "slots_bad_patch_collectors.py", "slots_patch_routers.py"
    )
    assert "SLOTS002" in rules_of(result)
    finding = next(
        f for f in result.new_findings if f.rule == "SLOTS002"
    )
    assert "SlottedRouter" in finding.message


def test_dict_backed_provider_keeps_patch_legal(tmp_path):
    # Same patch, but the provider has no __slots__: instances carry a
    # __dict__, so the wrap is fine (this is the sim's actual contract).
    site = tmp_path / "probes.py"
    site.write_text(
        "class C:\n"
        "    def attach(self, network):\n"
        "        for router in network.routers:\n"
        "            original = router.forward\n"
        "            router.forward = lambda f: original(f)\n"
    )
    provider = tmp_path / "routers.py"
    provider.write_text(
        "class Router:\n"
        "    def forward(self, flit):\n"
        "        return flit\n"
    )
    result = _slots_only(site, provider, root=tmp_path)
    assert result.ok, [str(f) for f in result.new_findings]


def test_unresolvable_base_disables_coverage_check(tmp_path):
    # A base class outside the analyzed set may carry __dict__;
    # flagging would be a false positive, so the checker must not.
    snippet = tmp_path / "mod.py"
    snippet.write_text(
        "from somewhere import Base\n"
        "class Sub(Base):\n"
        "    __slots__ = ('x',)\n"
        "    def set_both(self):\n"
        "        self.x = 1\n"
        "        self.y = 2\n"
    )
    result = _slots_only(snippet, root=tmp_path)
    assert result.ok, [str(f) for f in result.new_findings]
