"""Golden regression tests: exact outputs pinned to committed fixtures.

The approximate anchor tests (``tests/delaymodel/test_table1.py``,
``tests/sim/test_zero_load.py``) assert we stay near the *paper's*
numbers; these goldens additionally pin our *own* exact outputs, so an
unintended change that stays inside the paper-tolerance window still
fails loudly.  Both the delay model and the simulator are deterministic,
so exact equality is the right bar.  Regeneration workflow: see
``tests/conftest.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.delaymodel.table1 import generate_table1
from repro.experiments.report import telemetry_report, telemetry_snapshot_config
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.engine import simulate
from repro.sim.network import Network
from repro.sim.snapshot import state_digest

#: Same scale as the zero-load anchor tests.
MEAS = MeasurementConfig(
    warmup_cycles=200, sample_packets=300, max_cycles=30_000
)

ZERO_LOAD_CONFIGS = [
    ("wormhole_1vc_8buf", RouterKind.WORMHOLE, 1, 8),
    ("virtual_channel_2vc_4buf", RouterKind.VIRTUAL_CHANNEL, 2, 4),
    ("speculative_vc_2vc_4buf", RouterKind.SPECULATIVE_VC, 2, 4),
    ("single_cycle_wormhole_1vc_8buf", RouterKind.SINGLE_CYCLE_WORMHOLE, 1, 8),
    ("single_cycle_vc_2vc_4buf", RouterKind.SINGLE_CYCLE_VC, 2, 4),
]

#: The speculative-router dimensions with a compiled closure of their
#: own (allocator kind, priority, arbiter, packet-dependent routing,
#: dateline classes), on top of one default config per router kind.
STATE_DIGEST_VARIANTS = [
    ("maximum", dict(allocator_kind="maximum")),
    ("equal", dict(speculation_priority="equal")),
    ("round_robin", dict(arbiter_kind="round_robin")),
    ("o1turn", dict(routing_function="o1turn")),
    ("adaptive", dict(routing_function="adaptive")),
    ("torus", dict(topology="torus")),
]


def test_table1_delay_model_golden(golden):
    rows = [
        {
            "section": row.section,
            "module": row.module,
            "model_tau4": row.model_tau4,
        }
        for row in generate_table1()
    ]
    assert rows, "Table 1 produced no rows"
    golden.check("table1", rows)


@pytest.mark.sim
def test_telemetry_snapshot_golden(golden, tmp_path):
    """The canonical instrumented run (8x8 spec-VC at 0.42 load): the
    speculation win rate and channel utilization in the rendered report
    must match the exported JSONL exactly, and both are pinned."""
    report = telemetry_report(
        telemetry_snapshot_config(), MEAS, export_dir=tmp_path
    )

    header = json.loads((tmp_path / "telemetry.jsonl").read_text()
                        .splitlines()[0])
    assert header["type"] == "summary"
    win_rate = header["speculation_win_rate"]
    utilization = header["channel_utilization"]
    # The human-readable report reproduces the exported numbers.
    assert f"speculation win rate  {win_rate:.1%}" in report
    assert f"channel utilization   {utilization:.1%}" in report

    trace = json.loads((tmp_path / "trace.json").read_text())
    kinds = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
    assert {"route_computed", "vc_grant", "switch_grant",
            "traversal"} <= kinds

    # Deterministic simulator + fixed seed: pin the exact values.
    golden.check("telemetry_snapshot", {
        "cycles_observed": header["cycles_observed"],
        "speculation_win_rate": win_rate,
        "channel_utilization": utilization,
    })


@pytest.mark.sim
def test_zero_load_latency_golden(golden):
    latencies = {}
    for label, kind, vcs, bufs in ZERO_LOAD_CONFIGS:
        config = SimConfig(
            router_kind=kind, num_vcs=vcs, buffers_per_vc=bufs,
            injection_fraction=0.05, seed=42,
        )
        latencies[label] = simulate(config, MEAS).average_latency
    golden.check("zero_load", latencies)


@pytest.mark.sim
def test_state_digest_golden(golden):
    """The cycle kernel's complete microarchitectural state after 400
    cycles near saturation, for every router kind and every
    speculative-router variant, on both steppers.  A kernel refactor
    that claims "no behaviour change" must leave this fixture alone."""
    configs = {
        kind.value: SimConfig(
            router_kind=kind, mesh_radix=4,
            num_vcs=2 if kind.uses_vcs else 1,
            buffers_per_vc=5,  # VCT needs a whole packet per buffer
            injection_fraction=0.42, seed=11,
        )
        for kind in RouterKind
    }
    spec_vc = configs[RouterKind.SPECULATIVE_VC.value]
    for label, override in STATE_DIGEST_VARIANTS:
        configs[f"speculative_vc_{label}"] = replace(spec_vc, **override)
    digests = {}
    for label, config in configs.items():
        digests[label] = {}
        for stepper in ("fast", "reference"):
            network = Network(replace(config, stepper=stepper))
            network.run(400)
            assert network.total_flits_ejected() > 0
            digests[label][stepper] = state_digest(network)
    golden.check("state_digest", digests)
