"""Simulation configuration.

Defaults follow Section 5 of the paper: an 8x8 mesh, dimension-ordered
routing, uniform random traffic from constant-rate sources, 5-flit
packets, 1-cycle flit propagation, credit-based flow control.

Credits dispatch at switch-grant time (flit read-out) and propagate for
``credit_propagation`` cycles.  The resulting credit loops -- 5 cycles
for the wormhole and speculative VC routers, 6 for the non-speculative
VC router, 3 for the single-cycle model, 8 with Figure 18's 4-cycle
credit propagation -- carry the same per-router-type deltas as the
paper's turnaround numbers (4/5/2/7, Section 5.2) and reproduce its
measured zero-load latencies, including the one extra cycle of the
speculative router when 4-flit VC buffers do not cover the loop
(footnote 15).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..telemetry.config import TelemetryConfig


class RouterKind(enum.Enum):
    """The router microarchitectures simulated in Section 5 (plus VCT)."""

    WORMHOLE = "wormhole"
    VIRTUAL_CHANNEL = "virtual_channel"
    SPECULATIVE_VC = "speculative_vc"
    #: Unit-latency baselines of Section 5.2 (the "C" simulator).
    SINGLE_CYCLE_WORMHOLE = "single_cycle_wormhole"
    SINGLE_CYCLE_VC = "single_cycle_vc"
    #: Virtual cut-through (Related Work): wormhole datapath with
    #: whole-packet admission; needs buffers >= packet length.
    VIRTUAL_CUT_THROUGH = "virtual_cut_through"

    @property
    def is_single_cycle(self) -> bool:
        return self in (
            RouterKind.SINGLE_CYCLE_WORMHOLE,
            RouterKind.SINGLE_CYCLE_VC,
        )

    @property
    def uses_vcs(self) -> bool:
        return self in (
            RouterKind.VIRTUAL_CHANNEL,
            RouterKind.SPECULATIVE_VC,
            RouterKind.SINGLE_CYCLE_VC,
        )

    @property
    def default_credit_pipeline(self) -> int:
        """Extra credit-processing cycles in the upstream router.

        Zero by default for every router kind: credits dispatch at
        switch-grant time and are checked combinationally at switch
        allocation, so the turnaround difference between router types
        emerges from their pipeline depths (the non-speculative VC
        router's switch-allocation stage sits one cycle deeper, giving
        it the one-cycle-longer credit loop of Section 5.2).  Raise this
        to model slower credit processing.
        """
        return 0


#: Every value each enumerated string knob of :class:`SimConfig` accepts
#: (router kinds are :class:`RouterKind`); :meth:`SimConfig.validate`
#: rejects anything else.  ``tests/experiments/test_catalog.py`` holds
#: each value to an experiment-catalog row or a stated reason it has none.
CHOICES = {
    "allocator_kind": ("separable", "maximum"),
    "arbiter_kind": ("matrix", "round_robin"),
    "injection_process": ("constant", "bernoulli", "bursty"),
    "routing_function": ("xy", "yx", "o1turn", "adaptive"),
    "speculation_priority": ("conservative", "equal"),
    "stepper": ("fast", "reference"),
    "topology": ("mesh", "torus"),
    "traffic_pattern": ("uniform", "transpose", "bit_complement", "hotspot"),
}

#: Largest per-port VC count :meth:`SimConfig.validate` accepts: beyond
#: this the p*v-input separable allocator leaves Table 1's modelled
#: range and the simulated arbitration is no longer meaningful.
MAX_ARBITED_VCS = 64


@dataclass
class SimConfig:
    """Full parameter set for one simulation run."""

    router_kind: RouterKind = RouterKind.WORMHOLE
    mesh_radix: int = 8
    #: VCs per physical channel (ignored by wormhole routers).
    num_vcs: int = 1
    #: Flit buffers per *virtual channel* (wormhole: per input port).
    buffers_per_vc: int = 8
    packet_length: int = 5
    #: Offered load as a fraction of network capacity (the paper's x axis).
    injection_fraction: float = 0.1
    #: Flit channel propagation delay in cycles.
    flit_propagation: int = 1
    #: Credit channel propagation delay in cycles (Figure 18 sweeps this).
    credit_propagation: int = 1
    #: Credit processing cycles; None = the router kind's default.
    credit_pipeline: Optional[int] = None
    #: Extra allocation-pipeline stages for VC-family routers: the delay
    #: model prescribes these when the (combined) VC allocator straddles
    #: cycle boundaries at high VC counts (Figure 11: the 5-stage
    #: non-speculative router at v=16, the 4-stage speculative one at
    #: v=32).  Each extra stage delays a head's allocation eligibility
    #: by one cycle; body flits pipeline behind the head as usual.
    va_extra_cycles: int = 0
    traffic_pattern: str = "uniform"
    #: "constant" (paper), "bernoulli", or "bursty" (on/off Markov).
    injection_process: str = "constant"
    #: Mean packets per burst for the bursty process.
    burst_length: float = 8.0
    arbiter_kind: str = "matrix"
    #: Allocation strategy for VC-router switch/VC allocators:
    #: "separable" (the paper's two-stage design) or "maximum" (exact
    #: matching -- the efficiency upper bound, for ablations).
    allocator_kind: str = "separable"
    #: Speculation priority in the speculative router: "conservative"
    #: (the paper's -- non-speculative requests always win) or "equal"
    #: (ablation: speculation competes head-to-head and can displace
    #: certain traffic).
    speculation_priority: str = "conservative"
    #: Routing function: "xy" (the paper's dimension order), "yx", or
    #: "o1turn" (per-packet XY/YX with VC classes; VC routers on a mesh).
    routing_function: str = "xy"
    #: Topology: "mesh" (the paper's) or "torus" (wrap links + dateline
    #: VC classes; VC routers only).
    topology: str = "mesh"
    seed: int = 1
    #: Simulation stepper: "fast" (event wheel + activity tracking) or
    #: "reference" (the original full-scan stepper).  Both are
    #: cycle-for-cycle bit-identical for a fixed seed; "reference" is
    #: kept as the oracle baseline for differential testing.
    stepper: str = "fast"
    #: Streaming observability (:mod:`repro.telemetry`).  ``None`` (the
    #: default) records nothing and costs nothing; a
    #: :class:`~repro.telemetry.TelemetryConfig` attaches a telemetry
    #: session whose summary rides on the run result.  Part of the
    #: config so the request travels through the result cache's content
    #: key and across worker processes; never affects simulated
    #: behaviour (enforced by the ``telemetry_on_vs_off`` oracle).
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if isinstance(self.telemetry, dict):
            # Convenience for configs rebuilt from JSON/dicts.
            self.telemetry = TelemetryConfig(**self.telemetry)
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetryConfig
        ):
            raise TypeError(
                f"telemetry must be a TelemetryConfig or None, "
                f"got {self.telemetry!r}"
            )
        if self.mesh_radix < 2:
            raise ValueError(f"mesh radix must be >= 2, got {self.mesh_radix}")
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.buffers_per_vc < 1:
            raise ValueError(
                f"buffers_per_vc must be >= 1, got {self.buffers_per_vc}"
            )
        if self.packet_length < 1:
            raise ValueError(f"packet_length must be >= 1, got {self.packet_length}")
        if self.injection_fraction < 0:
            raise ValueError(
                f"injection_fraction must be >= 0, got {self.injection_fraction}"
            )
        if self.flit_propagation < 1:
            raise ValueError("flit_propagation must be >= 1 cycle")
        if self.credit_propagation < 1:
            raise ValueError("credit_propagation must be >= 1 cycle")
        if not self.router_kind.uses_vcs and self.num_vcs != 1:
            raise ValueError(
                f"{self.router_kind.value} routers have a single queue per "
                f"input port; set num_vcs=1 (got {self.num_vcs})"
            )
        if self.router_kind.uses_vcs and self.num_vcs < 2:
            raise ValueError(
                "virtual-channel routers need num_vcs >= 2 "
                f"(got {self.num_vcs})"
            )
        if self.allocator_kind not in CHOICES["allocator_kind"]:
            raise ValueError(
                f"unknown allocator kind {self.allocator_kind!r}"
            )
        if self.speculation_priority not in CHOICES["speculation_priority"]:
            raise ValueError(
                f"unknown speculation priority {self.speculation_priority!r}"
            )
        if self.va_extra_cycles < 0:
            raise ValueError("va_extra_cycles must be >= 0")
        if self.va_extra_cycles and not self.router_kind.uses_vcs:
            raise ValueError(
                "va_extra_cycles models a deeper VC-allocation pipeline; "
                f"{self.router_kind.value} routers have no VA stage"
            )
        if self.va_extra_cycles and self.router_kind.is_single_cycle:
            raise ValueError(
                "single-cycle routers cannot have extra pipeline stages"
            )
        if self.routing_function not in CHOICES["routing_function"]:
            raise ValueError(
                f"unknown routing function {self.routing_function!r}"
            )
        if self.topology not in CHOICES["topology"]:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.stepper not in CHOICES["stepper"]:
            raise ValueError(
                f"unknown stepper {self.stepper!r}; "
                "choose 'fast' or 'reference'"
            )
        if self.topology == "torus" and not self.router_kind.uses_vcs:
            raise ValueError(
                "wormhole routers deadlock on a torus (cyclic ring "
                "dependencies); use a VC router with dateline classes"
            )
        if (
            self.routing_function in ("o1turn", "adaptive")
            and not self.router_kind.uses_vcs
        ):
            raise ValueError(
                f"{self.routing_function} routing needs VC classes; "
                "use a VC router"
            )
        if (
            self.routing_function in ("o1turn", "adaptive")
            and self.topology == "torus"
        ):
            raise ValueError(
                f"{self.routing_function} is mesh-only (a torus would need "
                "additional VC classes on top of the datelines)"
            )

    def validate(self) -> "SimConfig":
        """Strict pre-flight validation for the experiment runtime.

        ``__post_init__`` keeps construction permissive enough for
        exploratory use (e.g. a zero injection rate for hand-injected
        traces); ``validate()`` adds the checks a sweep point must pass
        so misconfigurations fail at :class:`~repro.runtime.Experiment`
        entry with a clear message instead of deep inside
        :class:`~repro.sim.network.Network` or a router constructor.
        Returns ``self`` so call sites can chain.
        """
        # Re-run the construction checks: dataclasses are mutable, so a
        # config edited after creation may have drifted out of bounds.
        self.__post_init__()
        if not 0.0 < self.injection_fraction <= 1.0:
            raise ValueError(
                "injection_fraction is a fraction of network capacity and "
                f"must lie in (0, 1]; got {self.injection_fraction}"
            )
        if self.num_vcs > MAX_ARBITED_VCS:
            raise ValueError(
                f"num_vcs={self.num_vcs} exceeds the {MAX_ARBITED_VCS}-VC "
                "limit the separable allocator's arbiters are modelled "
                "for (Table 1's delay equations stop being meaningful)"
            )
        if (
            self.router_kind is RouterKind.VIRTUAL_CUT_THROUGH
            and self.buffers_per_vc < self.packet_length
        ):
            raise ValueError(
                "virtual cut-through admits whole packets and needs "
                f"buffers_per_vc >= packet_length "
                f"({self.buffers_per_vc} < {self.packet_length})"
            )
        if self.credit_pipeline is not None and self.credit_pipeline < 0:
            raise ValueError("credit_pipeline must be >= 0")
        # Construction leaves these to the traffic and arbiter factories;
        # a sweep point must not reach them with a value they refuse.
        for knob in ("arbiter_kind", "injection_process", "traffic_pattern"):
            value = getattr(self, knob)
            if value not in CHOICES[knob]:
                raise ValueError(
                    f"unknown {knob.replace('_', ' ')} {value!r}; "
                    f"choose from {', '.join(CHOICES[knob])}"
                )
        return self

    @property
    def effective_credit_pipeline(self) -> int:
        if self.credit_pipeline is not None:
            if self.credit_pipeline < 0:
                raise ValueError("credit_pipeline must be >= 0")
            return self.credit_pipeline
        return self.router_kind.default_credit_pipeline

    @property
    def credit_channel_delay(self) -> int:
        """Delay parameter of the credit channel.

        The :class:`~repro.sim.channel.PipelinedChannel` adds one
        receiver-write cycle, so a credit sent at ST cycle ``t`` becomes
        usable at ``t + propagation + pipeline``.
        """
        return self.credit_propagation + self.effective_credit_pipeline - 1

    @property
    def buffers_per_port(self) -> int:
        """Total flit buffers per input port (the paper's figure captions)."""
        return self.num_vcs * self.buffers_per_vc


@dataclass
class MeasurementConfig:
    """Warm-up / sample-size parameters.

    The paper uses ``warmup_cycles=10_000`` and ``sample_packets=100_000``;
    the defaults here are scaled down so sweeps finish quickly, with
    :func:`paper_scale` providing the full-size settings.
    """

    warmup_cycles: int = 1_000
    sample_packets: int = 2_000
    #: Hard cap on total simulated cycles (saturated runs never drain).
    max_cycles: int = 60_000
    #: Give up waiting for the sample to drain this many cycles after
    #: injection of the sample completed.
    drain_cycles: int = 20_000

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be >= 0")
        if self.sample_packets < 1:
            raise ValueError("sample_packets must be >= 1")
        if self.max_cycles <= self.warmup_cycles:
            raise ValueError("max_cycles must exceed warmup_cycles")


def paper_scale() -> MeasurementConfig:
    """The paper's full-scale measurement parameters (Section 5)."""
    return MeasurementConfig(
        warmup_cycles=10_000,
        sample_packets=100_000,
        max_cycles=2_000_000,
        drain_cycles=200_000,
    )
