"""Differential oracles: compute the same answer two ways and diff.

Each oracle runs two configurations (or two execution paths) that must
agree -- exactly, or up to a stated structural relation -- and returns
an :class:`OracleReport` listing every check made and every mismatch
found:

* :func:`oracle_spec_vs_nonspec` -- the speculative and non-speculative
  VC routers on identical seeds: both must pass every invariant probe,
  deliver the full sample, and satisfy the paper's structural relations
  (the speculative router's shallower pipeline means lower latency; only
  it issues speculative grants).
* :func:`oracle_serial_vs_parallel` -- the same sweep through the
  serial backend and the process pool must produce bit-identical
  curves (each point is a pure function of config + seed).
* :func:`oracle_cached_vs_uncached` -- a point served from the result
  cache must equal the freshly executed one, whichever backend wrote
  the entry.
* :func:`oracle_fast_vs_reference` -- the event-driven fast stepper and
  the original full-scan reference stepper must be cycle-for-cycle
  bit-identical: same :class:`RunResult` and the same per-sink delivery
  history (packet ids, sources, destinations, creation/injection/
  ejection cycles) across seeded random configurations covering every
  router kind, traffic pattern and injection process.

These are coarse end-to-end checks that complement the per-cycle probes
of :mod:`repro.sim.validation.probes`: a bug that preserves every local
invariant but changes results between equivalent execution paths still
gets caught here.
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Union

from ..config import MeasurementConfig, RouterKind, SimConfig
from ..metrics import RunResult


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the two sides of an oracle."""

    what: str
    lhs: Any
    rhs: Any

    def __str__(self) -> str:
        return f"{self.what}: {self.lhs!r} != {self.rhs!r}"


@dataclass
class OracleReport:
    """Outcome of one differential oracle."""

    name: str
    lhs_label: str
    rhs_label: str
    checks: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def compare(self, what: str, lhs: Any, rhs: Any) -> bool:
        """Record one equality check; returns whether it held."""
        self.checks += 1
        if lhs != rhs:
            self.mismatches.append(Mismatch(what, lhs, rhs))
            return False
        return True

    def expect(self, condition: bool, what: str,
               lhs: Any = None, rhs: Any = None) -> bool:
        """Record one boolean structural check."""
        self.checks += 1
        if not condition:
            self.mismatches.append(Mismatch(what, lhs, rhs))
        return condition

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs_label,
            "rhs": self.rhs_label,
            "ok": self.ok,
            "checks": self.checks,
            "mismatches": [str(m) for m in self.mismatches],
        }

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        lines = [
            f"oracle {self.name} [{self.lhs_label} vs {self.rhs_label}]: "
            f"{status} ({self.checks} checks)"
        ]
        for mismatch in self.mismatches:
            lines.append(f"  mismatch {mismatch}")
        return "\n".join(lines)


def diff_run_results(report: OracleReport, lhs: RunResult, rhs: RunResult,
                     label: str = "point") -> None:
    """Field-by-field comparison of two run results into ``report``.

    Equality already excludes wall-clock time and validation summaries
    (``compare=False`` fields), so two runs of the same point -- checked
    or not, cached or not, serial or parallel -- must diff clean.
    """
    if report.compare(label, lhs, rhs):
        return
    # Unequal: replace the single coarse mismatch with per-field detail.
    report.mismatches.pop()
    for f in dataclass_fields(RunResult):
        if not f.compare:
            continue
        report.compare(
            f"{label}.{f.name}", getattr(lhs, f.name), getattr(rhs, f.name)
        )


class Delivery(NamedTuple):
    """One tail ejection as :func:`record_deliveries` logs it."""

    packet_id: int
    source: int
    destination: int
    length: int
    creation_cycle: int
    injection_cycle: Optional[int]
    ejection_cycle: int
    measured: bool

    @property
    def latency(self) -> int:
        """Creation-to-ejection latency, as ``Packet.latency``."""
        return self.ejection_cycle - self.creation_cycle


def record_deliveries(network) -> List[List[Delivery]]:
    """Log every packet each sink of ``network`` ejects, from now on.

    Sinks keep only counts and sample latencies, so a delivery history
    exists only where it is asked for.  This wraps each sink's
    ``accept`` (as :class:`~repro.sim.validation.probes.InOrderDeliveryProbe`
    does) and appends a :class:`Delivery` per tail ejection to that
    sink's log.  Returns the logs, indexed by node, each in ejection
    order.  Attach before ``run()``; the wrappers stay for the
    network's lifetime (a test and oracle tool, not a run mode).
    """
    logs: List[List[Delivery]] = []
    for sink in network.sinks:
        log: List[Delivery] = []
        logs.append(log)

        def accept(flit, cycle, _original=sink.accept, _log=log):
            _original(flit, cycle)
            if flit.is_tail:
                packet = flit.packet
                _log.append(Delivery(
                    packet.packet_id, packet.source, packet.destination,
                    packet.length, packet.creation_cycle,
                    packet.injection_cycle, packet.ejection_cycle,
                    packet.measured,
                ))

        sink.accept = accept
    return logs


#: Small-but-nontrivial measurement scale the oracles default to.
ORACLE_MEASUREMENT = MeasurementConfig(
    warmup_cycles=150, sample_packets=200, max_cycles=20_000,
    drain_cycles=10_000,
)


def _tiny_config(kind: RouterKind, **overrides) -> SimConfig:
    defaults: Dict[str, Any] = dict(
        router_kind=kind,
        mesh_radix=4,
        num_vcs=2 if kind.uses_vcs else 1,
        buffers_per_vc=4,
        injection_fraction=0.2,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def oracle_spec_vs_nonspec(
    measurement: Optional[MeasurementConfig] = None,
    *,
    load: float = 0.2,
    seed: int = 11,
    mesh_radix: int = 4,
    num_vcs: int = 2,
) -> OracleReport:
    """Speculative vs non-speculative VC router on identical seeds."""
    from ..engine import simulate

    measurement = measurement or ORACLE_MEASUREMENT
    report = OracleReport(
        "spec_vs_nonspec", "speculative_vc", "virtual_channel"
    )
    spec_cfg = _tiny_config(
        RouterKind.SPECULATIVE_VC, injection_fraction=load, seed=seed,
        mesh_radix=mesh_radix, num_vcs=num_vcs,
    )
    nonspec_cfg = replace(spec_cfg, router_kind=RouterKind.VIRTUAL_CHANNEL)
    spec = simulate(spec_cfg, measurement, checked=True)
    nonspec = simulate(nonspec_cfg, measurement, checked=True)

    report.expect(
        spec.validation is not None and spec.validation["ok"],
        "speculative run passes every invariant probe",
        spec.validation and spec.validation["violations"], [],
    )
    report.expect(
        nonspec.validation is not None and nonspec.validation["ok"],
        "non-speculative run passes every invariant probe",
        nonspec.validation and nonspec.validation["violations"], [],
    )
    report.expect(
        not spec.saturated and not nonspec.saturated,
        "neither run saturates at this load",
        spec.saturated, nonspec.saturated,
    )
    report.compare(
        "sampled packets", spec.sample_packets, nonspec.sample_packets
    )
    report.expect(
        spec.average_latency < nonspec.average_latency,
        "speculative pipeline (3 stages) beats non-speculative (4 stages)",
        spec.average_latency, nonspec.average_latency,
    )
    report.expect(
        spec.spec_grants > 0,
        "speculative router issued speculative grants",
        spec.spec_grants, "> 0",
    )
    report.expect(
        nonspec.spec_grants == 0,
        "non-speculative router issued no speculative grants",
        nonspec.spec_grants, 0,
    )
    return report


def oracle_serial_vs_parallel(
    measurement: Optional[MeasurementConfig] = None,
    *,
    config: Optional[SimConfig] = None,
    loads=(0.1, 0.2, 0.3),
) -> OracleReport:
    """``Experiment.sweep`` on the serial backend vs the process pool.

    Each point is a pure function of config + seed, so the process
    pool must reproduce the serial curve bit for bit.
    """
    from ...runtime.backends import ProcessBackend
    from ...runtime.experiment import Experiment

    measurement = measurement or ORACLE_MEASUREMENT
    config = config or _tiny_config(RouterKind.SPECULATIVE_VC)
    report = OracleReport(
        "serial_vs_parallel", "backend=serial", "backend=process"
    )
    serial = Experiment(measurement, backend="serial").sweep(
        config, label="serial", loads=loads
    )
    parallel = Experiment(measurement, backend=ProcessBackend(2)).sweep(
        config, label="process", loads=loads
    )
    report.compare(
        "process point count", len(serial.points), len(parallel.points)
    )
    for i, (lhs, rhs) in enumerate(zip(serial.points, parallel.points)):
        diff_run_results(report, lhs, rhs, label=f"process point[{i}]")
    return report


def oracle_cached_vs_uncached(
    cache_dir: Union[str, Path, None] = None,
    measurement: Optional[MeasurementConfig] = None,
    *,
    config: Optional[SimConfig] = None,
) -> OracleReport:
    """A cache-served result must equal the freshly executed one.

    Runs the fresh-then-cached round trip once per execution backend
    (serial, process pool): both stream results into the same
    content-addressed store, so a cache entry written by either must be
    served back bit-identical to a fresh execution.  ``cache_dir=None``
    uses throwaway temporary directories (one per backend).
    """
    from ...runtime.backends import ProcessBackend
    from ...runtime.experiment import Experiment

    measurement = measurement or ORACLE_MEASUREMENT
    config = config or _tiny_config(RouterKind.SPECULATIVE_VC)
    report = OracleReport("cached_vs_uncached", "fresh run", "cache hit")
    backends = (
        ("serial", lambda: "serial"),
        ("process", lambda: ProcessBackend(2)),
    )

    def _run(name: str, make_backend, directory: Union[str, Path]) -> None:
        fresh_exp = Experiment(
            measurement, backend=make_backend(), cache=directory
        )
        fresh = fresh_exp.point(config)
        report.expect(
            fresh_exp.stats.cache_hits == 0,
            f"[{name}] first run executes (cold cache)",
            fresh_exp.stats.cache_hits, 0,
        )
        cached_exp = Experiment(
            measurement, backend=make_backend(), cache=directory
        )
        cached = cached_exp.point(config)
        report.expect(
            cached_exp.stats.cache_hits == 1,
            f"[{name}] second run is served from the cache",
            cached_exp.stats.cache_hits, 1,
        )
        diff_run_results(report, fresh, cached, label=f"[{name}] result")

    for name, make_backend in backends:
        if cache_dir is None:
            with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
                _run(name, make_backend, tmp)
        else:
            _run(name, make_backend, Path(cache_dir) / name)
    return report


def oracle_fast_vs_reference(
    measurement: Optional[MeasurementConfig] = None,
    *,
    seed: int = 0,
    cases: int = 10,
) -> OracleReport:
    """The fast stepper vs the reference stepper, bit for bit.

    Both steppers advance the same synchronous machine; the fast one
    only skips work that is provably a no-op (idle router phases, empty
    channels, non-firing constant-rate generators).  This oracle runs
    ``cases`` seeded random configurations -- drawn from the same
    generator as the property suite, so every router kind, topology,
    traffic pattern and injection process appears -- once per stepper,
    and diffs the full :class:`RunResult` plus the per-sink delivery
    history down to individual packet ids and ejection cycles.
    """
    from .. import flit as flit_module
    from ..engine import Simulator
    from .proptest import CASE_MEASUREMENT, generate_cases

    measurement = measurement or CASE_MEASUREMENT
    report = OracleReport(
        "fast_vs_reference", "stepper=fast", "stepper=reference"
    )

    def _run(config: SimConfig, stepper: str):
        # Packet ids come from a module-global counter and o1turn keys
        # its route choice off the id, so both sides must observe the
        # same id sequence: reset the counter before each run.
        flit_module._packet_ids = itertools.count()
        simulator = Simulator(replace(config, stepper=stepper), measurement)
        deliveries = record_deliveries(simulator.network)
        result = simulator.run()
        return result, deliveries

    for case in generate_cases(seed, cases):
        label = (
            f"case[{case.case_id}] {case.config.router_kind.value} "
            f"{case.config.traffic_pattern}/{case.config.injection_process}"
        )
        fast_result, fast_deliveries = _run(case.config, "fast")
        ref_result, ref_deliveries = _run(case.config, "reference")
        diff_run_results(report, fast_result, ref_result, label=label)
        report.compare(
            f"{label} per-sink deliveries", fast_deliveries, ref_deliveries
        )
    return report


def oracle_telemetry_on_vs_off(
    measurement: Optional[MeasurementConfig] = None,
    *,
    configs: Optional[List[SimConfig]] = None,
) -> OracleReport:
    """Telemetry must observe without perturbing: bit-identical results.

    Runs each configuration twice -- plain, and with a telemetry session
    attached (aggressive sampling so every scan it makes executes) --
    and diffs the full :class:`RunResult` plus the per-sink delivery
    history.  ``RunResult.telemetry`` is a ``compare=False`` field, so
    any mismatch here is a real perturbation of the simulated machine
    (e.g. a scan waking a sleeping router or consuming RNG draws),
    not the summary itself.
    """
    from ...telemetry.config import TelemetryConfig
    from .. import flit as flit_module
    from ..engine import Simulator

    measurement = measurement or ORACLE_MEASUREMENT
    report = OracleReport(
        "telemetry_on_vs_off", "telemetry=off", "telemetry=on"
    )
    if configs is None:
        configs = [
            _tiny_config(RouterKind.SPECULATIVE_VC),
            _tiny_config(RouterKind.VIRTUAL_CHANNEL, seed=7),
            _tiny_config(RouterKind.WORMHOLE, injection_fraction=0.15),
            # The fast stepper's sleeping routers are the risk surface:
            # a low-load run where sampling must not wake anything.
            _tiny_config(
                RouterKind.SPECULATIVE_VC, injection_fraction=0.05,
                traffic_pattern="hotspot", seed=3,
            ),
        ]
    telemetry = TelemetryConfig(
        sample_period=1, window_cycles=32, max_windows=8, capture_trace=True
    )

    def _run(config: SimConfig, with_telemetry: bool):
        flit_module._packet_ids = itertools.count()
        simulator = Simulator(
            config, measurement,
            telemetry=telemetry if with_telemetry else False,
        )
        deliveries = record_deliveries(simulator.network)
        result = simulator.run()
        return result, deliveries

    for config in configs:
        label = (
            f"{config.router_kind.value} load "
            f"{config.injection_fraction} seed {config.seed}"
        )
        plain_result, plain_deliveries = _run(config, with_telemetry=False)
        observed_result, observed_deliveries = _run(config, with_telemetry=True)
        diff_run_results(report, plain_result, observed_result, label=label)
        report.compare(
            f"{label} per-sink deliveries",
            plain_deliveries, observed_deliveries,
        )
        report.expect(
            observed_result.telemetry is not None
            and observed_result.telemetry.cycles_observed
            == observed_result.cycles_simulated,
            f"{label} telemetry observed every cycle",
            observed_result.telemetry
            and observed_result.telemetry.cycles_observed,
            observed_result.cycles_simulated,
        )
        report.expect(
            plain_result.telemetry is None,
            f"{label} plain run carries no telemetry",
            plain_result.telemetry, None,
        )
    return report


def run_all_oracles(
    measurement: Optional[MeasurementConfig] = None,
) -> List[OracleReport]:
    """Every differential oracle, at the default tiny scale."""
    return [
        oracle_spec_vs_nonspec(measurement),
        oracle_serial_vs_parallel(measurement),
        oracle_cached_vs_uncached(measurement=measurement),
        oracle_fast_vs_reference(),
        oracle_telemetry_on_vs_off(measurement),
    ]
