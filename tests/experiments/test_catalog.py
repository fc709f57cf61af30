"""The experiment catalog: coverage of every accepted scenario, and run().

Every enumerated value ``SimConfig.validate()`` accepts -- each
``RouterKind`` and each value of the string knobs in
``repro.sim.config.CHOICES`` -- appears in some catalog row, or in
``UNROWED`` with the reason it has none.  A new value that comes with
neither fails :func:`test_every_accepted_value_is_rowed_or_unrowed`, the
way ``tests/analysis/test_live_catches.py`` holds every analyzer rule to
its live catch.
"""

from dataclasses import replace

import pytest

from repro.experiments.catalog import CATALOG, get_row, run
from repro.runtime import Experiment
from repro.sim.config import CHOICES, MeasurementConfig, RouterKind, SimConfig

#: Accepted (knob, value) -> why no catalog row simulates it.
UNROWED = {
    ("routing_function", "yx"):
        "xy mirrored: on the paper's uniform traffic over a symmetric "
        "mesh it measures the xy curve; o1turn routes half its packets YX",
    ("injection_process", "bernoulli"):
        "memoryless arrivals for the property and traffic tests; the "
        "paper's sources are constant-rate and no claim turns on it",
    ("traffic_pattern", "hotspot"):
        "a congestion demonstration for the examples and the oracles; the "
        "paper makes no claim about it",
    ("stepper", "reference"):
        "the oracle stepper, bit-identical to fast "
        "(tests/sim/test_fast_stepper.py): its row would repeat its twin",
}


def accepted():
    values = {("router_kind", kind.value) for kind in RouterKind}
    values |= {
        (knob, value) for knob, choices in CHOICES.items() for value in choices
    }
    return values


def rowed():
    values = set()
    for row in CATALOG:
        for spec in row.curves:
            values.add(("router_kind", spec.config.router_kind.value))
            values |= {(knob, getattr(spec.config, knob)) for knob in CHOICES}
    return values


def test_every_accepted_value_is_rowed_or_unrowed():
    assert accepted() - rowed() - set(UNROWED) == set()


def test_unrowed_values_are_accepted_and_have_no_row():
    assert set(UNROWED) <= accepted()
    assert set(UNROWED) & rowed() == set()


@pytest.mark.parametrize("knob", sorted(CHOICES))
def test_validate_rejects_a_value_outside_the_choices(knob):
    with pytest.raises(ValueError, match="unknown"):
        replace(SimConfig(), **{knob: "nonesuch"}).validate()


def test_rows_are_named_once_and_every_point_validates():
    assert len({row.name for row in CATALOG}) == len(CATALOG)
    for row in CATALOG:
        assert get_row(row.name) is row
        for spec in row.curves:
            for config in row.configs(spec):
                config.validate()


def test_run_gives_every_backend_the_same_truncated_curves():
    """Serial walks a figure curve and stops at its first saturated
    load; process:2 runs every load in one batch and cuts afterwards."""
    tiny = MeasurementConfig(
        warmup_cycles=50, sample_packets=60, max_cycles=1_200,
        drain_cycles=100,
    )
    fig18 = get_row("fig18")
    row = replace(fig18, loads=(0.3, 0.9, 0.95), curves=tuple(
        replace(spec, config=replace(spec.config, mesh_radix=4))
        for spec in fig18.curves
    ))
    serial = Experiment(tiny, backend="serial")
    pooled = Experiment(tiny, backend="process:2")
    curves = {
        name: run([row], experiment)["fig18"].curves
        for name, experiment in (("serial", serial), ("pooled", pooled))
    }
    assert curves["serial"] == curves["pooled"]
    # Each curve saturates at 0.9: 0.95 is cut from both.
    assert [len(curve.points) for _, curve in curves["serial"]] == [2, 2]
    assert serial.stats.points_executed == 4
    assert pooled.stats.points_executed == 6
