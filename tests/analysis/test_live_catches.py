"""Every analyzer rule earns its place by a live catch.

A rule stays only while it catches a defect, seeded in the real tree,
that no tier-1 test, CI gate or perf-smoke check catches.
``LIVE_CATCHES`` names, per surviving rule, the test that applies that
defect to a ``tmp_path`` copy of the real file and asserts the finding.
A new rule that comes without such a test fails
:func:`test_every_rule_names_its_live_catch`.

``SEEDS`` holds the defects tested here; the rest live next to their
checker's other tests.
"""

import importlib
import shutil
from typing import NamedTuple, Tuple

import pytest

from repro.analysis import analyze
from repro.analysis.checkers import default_checkers
from repro.analysis.driver import iter_rules

from .conftest import REPO_ROOT, rules_of

DRIVER_RULES = ("PARSE001", "SUP001", "SUP002")


class Seed(NamedTuple):
    """One defect: replace ``old`` by ``new`` in ``path``; ``context``
    names the other real files the rule needs to resolve it."""

    path: str
    old: str
    new: str
    context: Tuple[str, ...] = ()


SEEDS = {
    # A wall-clock budget makes results depend on machine speed; tier-1
    # machines drain well inside it.
    "DET002": Seed(
        "src/repro/sim/engine.py",
        "        while network.cycle < drain_deadline and not "
        "self._sample_complete(\n            sample_size\n        ):",
        "        while network.cycle < drain_deadline and not "
        "self._sample_complete(\n            sample_size\n"
        "        ) and time.perf_counter() - t2 < 30.0:",
    ),
    # The arbiter ablation silently runs at the default 8 buffers/VC.
    "SLOTS003": Seed(
        "src/repro/experiments/ablations.py",
        '    """Matrix (LRU) vs round-robin arbiters in the spec-VC '
        'router."""\n    base = SimConfig(\n'
        "        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, "
        "buffers_per_vc=4,\n        seed=seed,\n    )\n",
        '    """Matrix (LRU) vs round-robin arbiters in the spec-VC '
        'router."""\n    base = SimConfig(\n'
        "        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,\n"
        "        seed=seed,\n    )\n    base.buffer_per_vc = 4\n",
        context=("src/repro/sim/config.py",),
    ),
    # Chien's delay then depends on which port counts were asked first.
    "PURE001": Seed(
        "src/repro/delaymodel/chien.py",
        "    if v < 1:\n",
        "    global _ROUTING_TAU\n    if p > 5:\n"
        "        _ROUTING_TAU = 80.0 * p / 5\n    if v < 1:\n",
    ),
    # A debug print left in the model lands in every report's stdout.
    "PURE002": Seed(
        "src/repro/delaymodel/chien.py",
        "    ports = p * v\n",
        "    ports = p * v\n    print(\"chien\", p, v, w)\n",
    ),
    # The per-cycle costs below are a few per cent each: inside the
    # perf-smoke and end-to-end bounds, so only the HOT rules see them.
    "HOT001": Seed(
        "src/repro/sim/network.py",
        "        for router in routers:\n            if router.active:\n",
        "        for router in [r for r in routers if r.active]:\n"
        "            if True:\n",
    ),
    "HOT002": Seed(
        "src/repro/sim/routers/specialized.py",
        "        router.pending_st = []\n        for port, vc in pending:\n",
        "        router.pending_st = []\n"
        "        send = lambda ch, f: ch.send(f, cycle)\n"
        "        for port, vc in pending:\n",
    ),
    "HOT003": Seed(
        "src/repro/sim/routers/specialized.py",
        "            flit = queue.popleft()\n",
        "            flit = queue.popleft()\n"
        "            label = f\"{port}.{vc}->{out_port}\"\n",
    ),
    "HOT004": Seed(
        "src/repro/sim/routers/specialized.py",
        "            forwarded[out_port] += 1\n",
        "            router.stats.forwarded_by_output[out_port] += 1\n",
    ),
}

#: Surviving rule -> the test that seeds its defect in a copy of the
#: real tree and asserts the finding.
LIVE_CATCHES = {
    "DET002": "test_live_catches::test_seeded_defect_is_flagged[DET002]",
    "CACHE002":
        "test_cache::test_adding_unfingerprinted_field_to_real_tree_fails",
    "WRAP001": "test_wrap::test_renaming_wrapped_method_fails_lint",
    "SLOTS003": "test_live_catches::test_seeded_defect_is_flagged[SLOTS003]",
    "PURE001": "test_live_catches::test_seeded_defect_is_flagged[PURE001]",
    "PURE002": "test_live_catches::test_seeded_defect_is_flagged[PURE002]",
    "CONC001": "test_conc::test_drain_loop_without_idle_lock_trips_conc001",
    "HOT001": "test_live_catches::test_seeded_defect_is_flagged[HOT001]",
    "HOT002": "test_live_catches::test_seeded_defect_is_flagged[HOT002]",
    "HOT003": "test_live_catches::test_seeded_defect_is_flagged[HOT003]",
    "HOT004": "test_live_catches::test_seeded_defect_is_flagged[HOT004]",
}

#: Rules whose defect tier-1 already catches, kept only because their
#: family is the last producer of a frozen ``BENCHMARK.json`` row.
KEPT_FOR_BENCHMARK_ROW = {"WRAP001": "analysis.checker_s.wrap"}


def test_every_rule_names_its_live_catch():
    rules = {rule.id for rule in iter_rules()} - set(DRIVER_RULES)
    assert set(LIVE_CATCHES) == rules
    assert set(KEPT_FOR_BENCHMARK_ROW) <= rules


def test_named_catches_exist():
    for rule, test_id in LIVE_CATCHES.items():
        module, _, name = test_id.partition("::")
        function, _, param = name.partition("[")
        tests = importlib.import_module(f"{__package__}.{module}")
        assert callable(getattr(tests, function, None)), test_id
        if param:
            assert param.rstrip("]") == rule and rule in SEEDS, test_id


def _copy(tmp_path, relpaths):
    for relpath in relpaths:
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, target)


@pytest.mark.parametrize("rule", sorted(SEEDS))
def test_seeded_defect_is_flagged(tmp_path, rule):
    seed = SEEDS[rule]
    checkers = [
        checker for checker in default_checkers()
        if any(r.id == rule for r in checker.rules)
    ]
    _copy(tmp_path, (seed.path,) + seed.context)
    clean = analyze([tmp_path / "src"], checkers=checkers, root=tmp_path)
    assert rule not in rules_of(clean), [str(f) for f in clean.new_findings]

    target = tmp_path / seed.path
    text = target.read_text()
    assert text.count(seed.old) == 1, f"{seed.path} drifted from the seed"
    target.write_text(text.replace(seed.old, seed.new))
    dirty = analyze([tmp_path / "src"], checkers=checkers, root=tmp_path)
    assert rule in rules_of(dirty), [str(f) for f in dirty.new_findings]
