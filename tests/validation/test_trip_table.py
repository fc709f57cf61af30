"""The probe-by-bug trip table: which probes catch which injected bug,
and how many cycles after the bug first changed the run.

Every case of the bug catalogue (``bug_cases.py``) runs once with its
config's default probe set in collecting mode, up to ``HORIZON`` cycles
after the bug fires.  Probes only read state, so each probe's first
violation is the cycle at which it alone would have tripped; an
exception that ends the run (the simulator's own assertions, a credit
counter's overflow) is recorded too, as ``raise:<function>``.  A cycle
probe stamps its violation with the clock after the step it checks, so
a bug in step ``t`` caught on that step's settled state reads ``+1``;
the delivery probe and an exception stamp the step they happen in.

The watchdog runs with a 50-cycle stall horizon, the one its own
bug-injection case uses: at its default 1 000 it could trip nothing
inside the table's horizon.

The table is pinned in ``tests/experiments/goldens/trip_table.json``;
after a deliberate change to a probe or a case, regenerate it with::

    PYTHONPATH=src python -m pytest tests/validation/test_trip_table.py --update-goldens

and read its diff: a probe that stops tripping a case, or trips it
later, is a weaker checked mode.
"""

import pytest

from repro.sim.validation import ValidationSuite, WatchdogProbe
from repro.sim.validation.probes import default_probes

from .bug_cases import CASES

pytestmark = pytest.mark.sim

#: Cycles each case runs after its bug first fires.
HORIZON = 64

#: Every probe ``default_probes`` builds, for some router kind.
PROBES = (
    "flit_conservation", "credit_consistency", "switch_legality",
    "speculation_legality", "vc_exclusivity", "in_order_delivery",
    "watchdog",
)


class _Horizon(Exception):
    pass


class _FirstTrips(ValidationSuite):
    """Keeps each probe's first violation cycle and never raises one;
    ends the run ``HORIZON`` cycles after the armed bug fires."""

    def __init__(self, probes) -> None:
        super().__init__(probes, fail_fast=False)
        self.armed = None
        self.first = {}

    def report(self, violation) -> None:
        self.first.setdefault(violation.probe, violation.cycle)

    def after_cycle(self, network) -> None:
        super().after_cycle(network)
        if self.armed.fired and network.cycle > self.armed.cycle + HORIZON:
            raise _Horizon


def trips(case):
    """``{probe or raise:<function>: cycles after the bug fired}``."""
    probes = [
        WatchdogProbe(stall_horizon=50) if probe.name == "watchdog"
        else probe
        for probe in default_probes(case.config)
    ]
    suite = _FirstTrips(probes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        sim, suite.armed = case.arm(monkeypatch, checked=suite)
        try:
            sim.run()
        except _Horizon:
            pass
        except Exception as error:  # the run's own end: record where
            frame = error.__traceback__
            while frame.tb_next is not None:
                frame = frame.tb_next
            name = f"raise:{frame.tb_frame.f_code.co_qualname}"
            suite.first.setdefault(name, sim.network.cycle)
    assert suite.armed.fired, f"case {case.name} never fired"
    return {
        name: cycle - suite.armed.cycle
        for name, cycle in sorted(suite.first.items())
    }


@pytest.fixture(scope="module")
def table():
    return {case.name: trips(case) for case in CASES}


def probes_in(row):
    return [name for name in row if name in PROBES]


def test_trip_table_golden(table, golden):
    golden.check("trip_table", table)


def test_every_case_trips_a_probe(table):
    assert [name for name, row in table.items() if not probes_in(row)] == []


def test_every_probe_trips_some_case_alone(table):
    """A probe earns its cost only while some bug trips it and no other
    probe."""
    alone = {probes_in(row)[0] for row in table.values()
             if len(probes_in(row)) == 1}
    assert alone == set(PROBES)
