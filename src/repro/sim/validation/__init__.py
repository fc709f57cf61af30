"""Machine-checked simulation invariants ("checked mode").

The paper's headline numbers rest on the cycle-accurate engine being
correct: flit conservation, credit accounting, and speculative-grant
priority are exactly the places a subtle bug silently skews every
figure.  This package makes those invariants executable:

* :mod:`~repro.sim.validation.probes` -- pluggable invariant probes a
  :class:`~repro.sim.engine.Simulator` runs every cycle in checked
  mode: flit conservation (network-wide), credit counts
  matching downstream free-buffer counts, output-VC exclusivity,
  switch-grant and speculation legality, per-packet in-order delivery,
  and a
  deadlock/livelock watchdog that dumps a network snapshot on trip.
* :mod:`~repro.sim.validation.suite` -- :class:`ValidationSuite`, the
  probe container the engine drives (``checked=True`` builds the
  default suite for a config).
* :mod:`~repro.sim.validation.oracle` -- differential oracles that run
  two configurations to completion and diff their metrics/counters
  (speculative vs non-speculative router, serial vs parallel sweeps,
  cached vs uncached results).
* :mod:`~repro.sim.validation.proptest` -- a seeded generator of
  randomized traffic/config cases driven through checked engines.

Checked mode costs nothing when disabled: the engine holds ``None`` and
skips a single attribute test per cycle.

Quick use::

    from repro.sim import RouterKind, SimConfig, simulate

    result = simulate(
        SimConfig(router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
                  buffers_per_vc=4, injection_fraction=0.2),
        checked=True,
    )
    print(result.validation["ok"], result.validation["cycles_checked"])
"""

from .probes import (
    CreditConsistencyProbe,
    FlitConservationProbe,
    InOrderDeliveryProbe,
    InvariantViolation,
    Probe,
    SpeculationLegalityProbe,
    SwitchLegalityProbe,
    VCExclusivityProbe,
    Violation,
    WatchdogProbe,
)
from .suite import ValidationSuite, resolve_checked

__all__ = [
    "CreditConsistencyProbe",
    "FlitConservationProbe",
    "InOrderDeliveryProbe",
    "InvariantViolation",
    "Probe",
    "SpeculationLegalityProbe",
    "SwitchLegalityProbe",
    "VCExclusivityProbe",
    "ValidationSuite",
    "Violation",
    "WatchdogProbe",
    "resolve_checked",
]
