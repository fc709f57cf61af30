"""Analytical queueing surrogate for the cycle-accurate simulator.

Maps a :class:`~repro.sim.config.SimConfig` plus an offered load to a
predicted average packet latency, per-hop breakdown, delivered
throughput, and a predicted saturation load -- in microseconds instead
of the seconds a cycle-accurate run costs.  The model is in the spirit
of Mandal et al.'s analytical NoC performance models (PAPERS.md): a
deterministic service-time core derived from the delay model's pipeline
depths, an M/G/1-style contention term per hop, and a credit-turnaround
correction for buffers too shallow to cover the credit loop (the
paper's footnote 15), with worst-case sanity coming from the saturation
bound (offered load beyond the saturation point never predicts a
finite latency).

The service-time core is exact by construction:

* per-hop router latency is the pipeline depth EQ 1 prescribes for the
  router's flow-control method (:mod:`repro.delaymodel.pipeline`), plus
  any ``va_extra_cycles`` the config adds;
* link traversal costs ``flit_propagation`` cycles per hop;
* the tail of an ``L``-flit packet serializes ``L - 1`` cycles behind
  its head;
* when the per-VC buffer depth does not cover the credit loop
  (``pipeline depth + flit propagation + credit propagation + credit
  pipeline``), each buffer refill stalls the stream -- footnote 15's
  extra cycle at 4-flit buffers falls out of the same expression.

Everything on top of that core is *contention*, which no closed form
captures exactly for a wormhole mesh; the surrogate uses the M/G/1
waiting-time shape ``rho / (1 - rho)`` scaled by a handful of free
coefficients (:class:`SurrogateCoefficients`) that
:mod:`repro.surrogate.calibration` fits against cached simulated
sweeps.

Every function here is a pure function of its arguments -- no RNG, no
I/O, no module state -- and the :mod:`repro.analysis` DET/PURE rules
are enforced over this package exactly as over ``repro.delaymodel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from ..delaymodel.pipeline import FlowControl, pipeline_for
from ..delaymodel.tau import DEFAULT_CLOCK_TAU4
from ..sim.config import RouterKind, SimConfig
from ..sim.topology import make_topology

__all__ = [
    "SurrogateCoefficients",
    "ServiceTime",
    "HopBreakdown",
    "SurrogateEstimate",
    "class_key",
    "default_saturation",
    "estimate",
    "estimate_curve",
    "predicted_saturation",
    "service_time",
]

#: Flow-control method whose EQ-1 pipeline gives each simulated router
#: kind its per-hop depth.  The single-cycle baselines ("C" simulator,
#: Section 5.2) are unit-latency by definition; virtual cut-through
#: shares the wormhole datapath.
_KIND_TO_FLOW = {
    RouterKind.WORMHOLE: FlowControl.WORMHOLE,
    RouterKind.VIRTUAL_CUT_THROUGH: FlowControl.WORMHOLE,
    RouterKind.VIRTUAL_CHANNEL: FlowControl.VIRTUAL_CHANNEL,
    RouterKind.SPECULATIVE_VC: FlowControl.SPECULATIVE_VIRTUAL_CHANNEL,
}

#: The paper's canonical port count / phit width / VC count: the delay
#: model point whose pipeline depths the simulated routers implement
#: (Figure 4; ``repro.core.design._SIMULATED_DEPTHS`` realises the same
#: depths).  Depth is looked up here rather than per-config because the
#: simulator's fixed datapaths keep these depths at every radix; deeper
#: model pipelines reach the simulator via ``va_extra_cycles``.
_CANONICAL_P = 5
_CANONICAL_W = 32
_CANONICAL_V = 2

#: Default saturation loads (fraction of capacity) per router kind on a
#: mesh, used when no calibration is attached.  Rough shapes from the
#: paper's Figure 13/15 ordering: VC routers saturate past wormhole,
#: speculation does not cost throughput, unit-latency routers clear
#: their pipelined counterparts.  Calibration replaces these with
#: per-class fits.
_DEFAULT_SATURATION_MESH = {
    RouterKind.WORMHOLE: 0.42,
    RouterKind.VIRTUAL_CUT_THROUGH: 0.42,
    RouterKind.VIRTUAL_CHANNEL: 0.62,
    RouterKind.SPECULATIVE_VC: 0.62,
    RouterKind.SINGLE_CYCLE_WORMHOLE: 0.52,
    RouterKind.SINGLE_CYCLE_VC: 0.72,
}

#: A torus normalizes offered load against a doubled bisection
#: capacity (``8/k`` vs ``4/k`` flits/node/cycle), so the same router
#: saturates at roughly half the capacity *fraction* it reaches on the
#: mesh (the absolute flit rate is comparable).
_TORUS_SATURATION_FACTOR = 0.5


@dataclass(frozen=True)
class SurrogateCoefficients:
    """The free parameters of the surrogate's contention model.

    The deterministic service-time core has no knobs; these few
    coefficients absorb what the closed form cannot derive.  Defaults
    are serviceable uncalibrated guesses;
    :func:`repro.surrogate.calibration.calibrate` fits them per
    configuration class against cached simulated sweeps.
    """

    #: Additive zero-load correction (cycles): injection/ejection
    #: register writes the hop expression does not itemize.
    zero_load_offset: float = 1.0
    #: Multiplier on the M/G/1 waiting term (absorbs the service-time
    #: variance factor ``(1 + c_s^2) / 2`` and allocator efficiency).
    contention_scale: float = 1.0
    #: Offered load (fraction of capacity) where the contention term
    #: diverges.  ``None`` falls back to :func:`default_saturation`.
    saturation_load: Optional[float] = None
    #: Weight on the credit-turnaround stall term (1.0 = the loop/buffer
    #: expression verbatim).
    credit_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.contention_scale < 0:
            raise ValueError("contention_scale must be >= 0")
        if self.saturation_load is not None and not (
            0.0 < self.saturation_load <= 1.5
        ):
            raise ValueError(
                f"saturation_load must lie in (0, 1.5], "
                f"got {self.saturation_load}"
            )
        if self.credit_weight < 0:
            raise ValueError("credit_weight must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "zero_load_offset": self.zero_load_offset,
            "contention_scale": self.contention_scale,
            "saturation_load": self.saturation_load,
            "credit_weight": self.credit_weight,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SurrogateCoefficients":
        return cls(**data)


#: The uncalibrated default coefficient set.
DEFAULT_COEFFICIENTS = SurrogateCoefficients()


@dataclass(frozen=True)
class ServiceTime:
    """Deterministic service-time core of one router configuration."""

    #: Pipeline depth per hop in cycles (EQ 1 depth + va_extra_cycles).
    per_hop_cycles: int
    #: Clock cycle the depth was designed against, in tau4.
    clock_tau4: float
    #: Mean hop count under uniform traffic on this topology.
    average_hops: float
    #: Credit-loop length in cycles (dispatch at ST to usable upstream).
    credit_loop_cycles: int
    #: Stall cycles an ``L``-flit packet accumulates when per-VC buffers
    #: do not cover the credit loop (0.0 when they do).
    credit_stall_cycles: float
    #: Effective channel occupancy of one packet, in cycles.
    packet_service_cycles: float


def _per_hop_depth(config: SimConfig) -> Tuple[int, float]:
    """(pipeline depth incl. extra VA stages, clock in tau4) per hop."""
    if config.router_kind.is_single_cycle:
        return 1, DEFAULT_CLOCK_TAU4
    depth = _base_depth(config.router_kind)
    return depth + config.va_extra_cycles, DEFAULT_CLOCK_TAU4


@lru_cache(maxsize=None)
def _base_depth(kind: RouterKind) -> int:
    """EQ-1 pipeline depth of the canonical design point for ``kind``."""
    flow = _KIND_TO_FLOW[kind]
    design = pipeline_for(
        flow, _CANONICAL_P, _CANONICAL_W, v=_CANONICAL_V
    )
    return design.depth


@lru_cache(maxsize=256)
def _average_hops(topology: str, radix: int) -> float:
    """Mean uniform-traffic hop count: a closed form of the two."""
    return make_topology(topology, radix).average_hop_distance()


def service_time(
    config: SimConfig,
    coefficients: SurrogateCoefficients = DEFAULT_COEFFICIENTS,
) -> ServiceTime:
    """The deterministic service-time core for one configuration."""
    depth, clock_tau4 = _per_hop_depth(config)
    hops = _average_hops(config.topology, config.mesh_radix)
    loop = (
        depth
        + config.flit_propagation
        + config.credit_propagation
        + config.effective_credit_pipeline
    )
    # Buffers shallower than the credit loop stall the stream once per
    # refill: each of the packet's L-1 tail flits pays (loop/buffers - 1)
    # extra cycles.  Footnote 15's "+1 cycle at 4-flit buffers" is this
    # expression at loop=5, buffers=4, L=5.
    shortfall = loop / config.buffers_per_vc - 1.0
    stall = (
        coefficients.credit_weight
        * max(0.0, shortfall)
        * (config.packet_length - 1)
    )
    return ServiceTime(
        per_hop_cycles=depth,
        clock_tau4=clock_tau4,
        average_hops=hops,
        credit_loop_cycles=loop,
        credit_stall_cycles=stall,
        packet_service_cycles=config.packet_length + stall,
    )


def default_saturation(config: SimConfig) -> float:
    """Uncalibrated saturation-load guess for ``config``.

    Per-kind mesh defaults scaled for the torus's capacity
    normalization; deliberately coarse -- calibration replaces it.
    """
    base = _DEFAULT_SATURATION_MESH[config.router_kind]
    if config.topology == "torus":
        base *= _TORUS_SATURATION_FACTOR
    return base


@dataclass(frozen=True)
class HopBreakdown:
    """Where the predicted latency comes from, in cycles.

    ``router`` and ``link`` cover the head flit's whole path (hops + 1
    routers, hops links); ``serialization`` is the packet tail;
    ``credit`` the turnaround stalls; ``contention`` the queueing term
    summed over all arbitration points.
    """

    router_cycles: float
    link_cycles: float
    serialization_cycles: float
    credit_cycles: float
    contention_cycles: float
    offset_cycles: float

    @property
    def total_cycles(self) -> float:
        return (
            self.router_cycles + self.link_cycles
            + self.serialization_cycles + self.credit_cycles
            + self.contention_cycles + self.offset_cycles
        )

    @property
    def zero_load_cycles(self) -> float:
        """The total less contention, to the bit what ``total_cycles``
        is at ``contention_cycles=0.0`` (adding 0.0 to the positive
        partial sum is exact)."""
        return (
            self.router_cycles + self.link_cycles
            + self.serialization_cycles + self.credit_cycles
            + self.offset_cycles
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "router_cycles": self.router_cycles,
            "link_cycles": self.link_cycles,
            "serialization_cycles": self.serialization_cycles,
            "credit_cycles": self.credit_cycles,
            "contention_cycles": self.contention_cycles,
            "offset_cycles": self.offset_cycles,
        }


@dataclass(frozen=True)
class SurrogateEstimate:
    """One surrogate answer: predicted latency/throughput at one load."""

    injection_fraction: float
    latency_cycles: float           # math.inf past the saturation load
    zero_load_cycles: float
    throughput_fraction: float      # delivered load, fraction of capacity
    utilization: float              # rho = load / saturation_load
    saturation_load: float          # load where contention diverges
    predicted_saturation: float     # knee: latency crosses 3x zero-load
    saturated: bool
    breakdown: HopBreakdown
    service: ServiceTime

    @property
    def average_latency(self) -> float:
        """Alias matching :class:`~repro.sim.metrics.RunResult`."""
        return self.latency_cycles

    def to_dict(self) -> Dict[str, Any]:
        return {
            "injection_fraction": self.injection_fraction,
            "latency_cycles": (
                self.latency_cycles
                if math.isfinite(self.latency_cycles) else None
            ),
            "zero_load_cycles": self.zero_load_cycles,
            "throughput_fraction": self.throughput_fraction,
            "utilization": self.utilization,
            "saturation_load": self.saturation_load,
            "predicted_saturation": self.predicted_saturation,
            "saturated": self.saturated,
            "breakdown": self.breakdown.to_dict(),
        }

    def describe(self) -> str:
        latency = (
            f"{self.latency_cycles:7.1f}"
            if math.isfinite(self.latency_cycles) else "    inf"
        )
        return (
            f"load {self.injection_fraction:4.0%}  latency {latency} cycles  "
            f"accepted {self.throughput_fraction:5.1%}"
            f"{'  [saturated]' if self.saturated else ''}"
        )


#: Latency multiple of zero-load used to read the saturation knee off a
#: curve -- mirrors ``repro.experiments.sweep.SATURATION_LATENCY_MULTIPLE``
#: (duplicated so the surrogate stays importable without the
#: experiments layer).
SATURATION_LATENCY_MULTIPLE = 3.0


def _breakdown(
    config: SimConfig,
    service: ServiceTime,
    coefficients: SurrogateCoefficients,
    contention: float,
) -> HopBreakdown:
    """The latency breakdown at a given contention term."""
    hops = service.average_hops
    return HopBreakdown(
        router_cycles=(hops + 1.0) * service.per_hop_cycles,
        link_cycles=hops * config.flit_propagation,
        serialization_cycles=float(config.packet_length - 1),
        credit_cycles=service.credit_stall_cycles,
        contention_cycles=contention,
        offset_cycles=coefficients.zero_load_offset,
    )


def _contention_cycles(
    service: ServiceTime,
    coefficients: SurrogateCoefficients,
    utilization: float,
) -> float:
    """M/G/1-style waiting summed over the head's arbitration points.

    ``W = scale * S * rho / (2 * (1 - rho))`` per hop; the variance
    factor ``(1 + c_s^2) / 2`` and the allocator's matching efficiency
    are absorbed by ``contention_scale``.
    """
    if utilization >= 1.0:
        return math.inf
    waiting = (
        coefficients.contention_scale
        * service.packet_service_cycles
        * utilization
        / (2.0 * (1.0 - utilization))
    )
    return (service.average_hops + 1.0) * waiting


def estimate(
    config: SimConfig,
    load: Optional[float] = None,
    coefficients: SurrogateCoefficients = DEFAULT_COEFFICIENTS,
) -> SurrogateEstimate:
    """Predict latency/throughput for ``config`` at ``load``.

    ``load`` defaults to ``config.injection_fraction``.  A pure
    function of ``(config, load, coefficients)``: repeated calls return
    equal estimates and never mutate the config.
    """
    if load is None:
        load = config.injection_fraction
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    service = service_time(config, coefficients)
    saturation = coefficients.saturation_load
    if saturation is None:
        saturation = default_saturation(config)
    utilization = load / saturation
    contention = _contention_cycles(service, coefficients, utilization)
    breakdown = _breakdown(config, service, coefficients, contention)
    zero_load = breakdown.zero_load_cycles
    return SurrogateEstimate(
        injection_fraction=load,
        latency_cycles=zero_load + contention,
        zero_load_cycles=zero_load,
        throughput_fraction=min(load, saturation),
        utilization=utilization,
        saturation_load=saturation,
        predicted_saturation=_knee(
            service, coefficients, saturation, zero_load,
            SATURATION_LATENCY_MULTIPLE,
        ),
        saturated=not math.isfinite(contention),
        breakdown=breakdown,
        service=service,
    )


def estimate_curve(
    config: SimConfig,
    loads,
    coefficients: SurrogateCoefficients = DEFAULT_COEFFICIENTS,
):
    """One :func:`estimate` per load, in ascending load order."""
    return [
        estimate(config, load, coefficients) for load in sorted(loads)
    ]


def predicted_saturation(
    config: SimConfig,
    coefficients: SurrogateCoefficients = DEFAULT_COEFFICIENTS,
    latency_multiple: float = SATURATION_LATENCY_MULTIPLE,
) -> float:
    """The load where predicted latency crosses the saturation knee.

    Solves ``L(x) = latency_multiple * L(0)`` in closed form: with
    ``A = (hops + 1) * scale * S / 2`` the contention term is
    ``A * rho / (1 - rho)``, so the crossing utilization is
    ``g / (1 + g)`` with ``g = (latency_multiple - 1) * L0 / A``.  This
    is the number comparable to ``find_saturation`` reading the knee
    off a measured curve.
    """
    if latency_multiple <= 1.0:
        raise ValueError("latency_multiple must exceed 1.0")
    service = service_time(config, coefficients)
    saturation = coefficients.saturation_load
    if saturation is None:
        saturation = default_saturation(config)
    zero_load = _breakdown(
        config, service, coefficients, 0.0
    ).zero_load_cycles
    return _knee(
        service, coefficients, saturation, zero_load, latency_multiple
    )


def _knee(
    service: ServiceTime,
    coefficients: SurrogateCoefficients,
    saturation: float,
    zero_load: float,
    latency_multiple: float,
) -> float:
    """:func:`predicted_saturation` over an already computed core."""
    amplitude = (
        (service.average_hops + 1.0)
        * coefficients.contention_scale
        * service.packet_service_cycles
        / 2.0
    )
    if amplitude <= 0.0:
        # No contention term at all: the curve never bends, so the
        # knee coincides with the hard saturation bound.
        return saturation
    gain = (latency_multiple - 1.0) * zero_load / amplitude
    return saturation * gain / (1.0 + gain)


def class_key(config: SimConfig) -> str:
    """Calibration-class identity of a config: everything but load/seed.

    Two configs in the same class share coefficients; the key is a
    readable string so calibration tables serialize to flat JSON.
    """
    return "|".join((
        config.router_kind.value,
        config.topology,
        f"k{config.mesh_radix}",
        f"v{config.num_vcs}",
        f"b{config.buffers_per_vc}",
        f"L{config.packet_length}",
        config.routing_function,
        config.allocator_kind,
        config.speculation_priority,
        config.traffic_pattern,
        config.injection_process,
        f"fp{config.flit_propagation}",
        f"cp{config.credit_propagation}",
        f"cpl{config.effective_credit_pipeline}",
        f"va{config.va_extra_cycles}",
    ))
