"""Simulation driver: warm-up, sampling, drain, and measurement.

Mirrors the paper's methodology (Section 5): run a warm-up phase, then
tag a sample of injected packets and keep simulating until every tagged
packet has been received, measuring average latency over the sample.
Saturated configurations never drain; a drain-cycle cap turns those runs
into ``saturated=True`` results (the vertical part of the curves).
"""

from __future__ import annotations

import time
from array import array
from typing import Optional, Union

from ..telemetry.config import TelemetryConfig
from ..telemetry.session import TelemetrySession, resolve_telemetry
from .config import MeasurementConfig, SimConfig
from .instrumentation import collect_counters
from .metrics import LatencyStats, RunResult
from .network import Network
from .validation import ValidationSuite, resolve_checked


class Simulator:
    """One simulation run at a fixed configuration.

    ``checked`` enables the invariant-probe layer of
    :mod:`repro.sim.validation`: ``True`` runs the default probe suite
    for the config every cycle, or pass a configured
    :class:`~repro.sim.validation.ValidationSuite`.  With validation
    disabled (the default) the probes cost nothing: the per-step hook is
    a single attribute test.

    ``telemetry`` enables the observability layer of
    :mod:`repro.telemetry` the same way: ``True`` (or a
    :class:`~repro.telemetry.TelemetryConfig` /
    :class:`~repro.telemetry.TelemetrySession`) attaches a session
    whose summary lands on ``RunResult.telemetry``; ``None`` defers to
    ``config.telemetry``.  Disabled, it is the same single attribute
    test per step and installs nothing.
    """

    def __init__(
        self,
        config: SimConfig,
        measurement: Optional[MeasurementConfig] = None,
        checked: Union[ValidationSuite, bool, None] = None,
        telemetry: Union[TelemetrySession, TelemetryConfig, bool, None] = None,
    ) -> None:
        self.config = config
        self.measurement = measurement or MeasurementConfig()
        self.network = Network(config)
        self.validation = resolve_checked(checked, config)
        if self.validation is not None:
            self.validation.attach(self.network)
        self.telemetry = resolve_telemetry(telemetry, config)
        if self.telemetry is not None:
            self.telemetry.attach(self.network)

    def run(self) -> RunResult:
        network = self.network
        measurement = self.measurement
        wall: dict = {}
        # repro: allow[DET002] wall-clock stats only (RunResult.wall)
        t0 = time.perf_counter()

        # Warm-up: packets injected now are excluded from the sample.
        network.measuring_generation = False
        self._run_cycles(measurement.warmup_cycles)
        warmup_end = network.cycle
        t1 = time.perf_counter()  # repro: allow[DET002] wall-clock stats only
        wall["warmup"] = t1 - t0

        # Sampling: tag the next `sample_packets` generated packets.
        network.measuring_generation = True
        generated_before = network.packets_generated
        ejected_before = network.total_flits_ejected()
        measure_start = network.cycle
        target = measurement.sample_packets
        injection_deadline = measurement.max_cycles
        while (
            network.packets_generated - generated_before < target
            and network.cycle < injection_deadline
        ):
            self._step()
        network.measuring_generation = False
        sample_size = network.packets_generated - generated_before
        # Accepted throughput: the ejection rate over the sampling
        # window (all packets, sampled or not -- the steady-state rate).
        window = max(1, network.cycle - measure_start)
        ejected_in_window = network.total_flits_ejected() - ejected_before
        sample_end = network.cycle
        t2 = time.perf_counter()  # repro: allow[DET002] wall-clock stats only
        wall["sample"] = t2 - t1

        # Drain: run until every tagged packet is ejected (or give up).
        drain_deadline = min(
            network.cycle + measurement.drain_cycles, measurement.max_cycles
        )
        while network.cycle < drain_deadline and not self._sample_complete(
            sample_size
        ):
            self._step()
        t3 = time.perf_counter()  # repro: allow[DET002] wall-clock stats only
        wall["drain"] = t3 - t2
        wall["total"] = t3 - t0

        saturated = network.total_measured_ejected() < sample_size
        # An undrained sample's mean is biased low (the missing packets
        # are the slow ones); such runs report latency=None/inf.
        latency = (
            LatencyStats.from_latencies(self._delivered_sample())
            if sample_size and not saturated
            else None
        )

        accepted_flits = ejected_in_window / (network.mesh.num_nodes * window)
        accepted_fraction = (
            accepted_flits / network.mesh.capacity_flits_per_node_cycle()
        )

        counters = collect_counters(
            network,
            warmup_cycles=warmup_end,
            sample_cycles=sample_end - warmup_end,
            drain_cycles=network.cycle - sample_end,
            wall_seconds=wall,
        )
        validation = (
            self.validation.finalize(network)
            if self.validation is not None else None
        )
        telemetry = (
            self.telemetry.finalize(network)
            if self.telemetry is not None else None
        )
        return RunResult(
            injection_fraction=self.config.injection_fraction,
            latency=None if saturated else latency,
            accepted_fraction=accepted_fraction,
            saturated=saturated,
            cycles_simulated=network.cycle,
            sample_packets=sample_size,
            spec_grants=counters.spec_grants,
            spec_wasted=counters.spec_wasted,
            counters=counters,
            validation=validation,
            telemetry=telemetry,
            source="simulated",
        )

    # ------------------------------------------------------------------

    def _step(self) -> None:
        self.network.step()
        if self.validation is not None:
            self.validation.after_cycle(self.network)
        if self.telemetry is not None:
            self.telemetry.after_cycle(self.network)

    def _run_cycles(self, cycles: int) -> None:
        for _ in range(cycles):
            self._step()

    def _delivered_sample(self) -> array:
        # Sinks keep the measured packets' latencies at ejection time,
        # so this is a concatenation, not a rescan of every delivery.
        latencies = array("q")
        for sink in self.network.sinks:
            latencies.extend(sink.latencies)
        return latencies

    def _sample_complete(self, sample_size: int) -> bool:
        return self.network.total_measured_ejected() >= sample_size


def simulate(
    config: SimConfig,
    measurement: Optional[MeasurementConfig] = None,
    checked: Union[ValidationSuite, bool, None] = None,
    telemetry: Union[TelemetrySession, TelemetryConfig, bool, None] = None,
) -> RunResult:
    """The direct-engine one-liner: build a :class:`Simulator` and run it.

    Bypasses the runtime on purpose (no validation pass, cache or
    batching) -- it is what the validation oracles compare
    :meth:`repro.runtime.Experiment.point` against.
    """
    return Simulator(config, measurement, checked, telemetry).run()
