"""Ablation studies for the design choices DESIGN.md calls out.

Four knobs the paper fixes by argument rather than measurement, each
made measurable here:

* **Allocator efficiency** (Section 3.2): separable two-stage allocation
  vs an exact maximum matching -- how much saturation throughput does
  the simple circuit really sacrifice?
* **Arbiter policy**: the matrix (least-recently-served) arbiter vs
  round-robin.
* **Buffer depth vs the credit loop** (Figures 14/15): sweep buffers per
  VC across the credit-loop boundary and watch throughput saturate.
* **Traffic pattern** (footnote 13): the paper argues flow-control
  comparisons are "relatively invariant to traffic patterns"; we rerun
  the wormhole-vs-speculative comparison under transpose and
  bit-complement traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..runtime.experiment import Experiment
from ..sim.config import MeasurementConfig, RouterKind, SimConfig
from ..sim.metrics import RunResult


@dataclass
class AblationResult:
    """Results of one ablation: variant label -> per-load results."""

    name: str
    runs: Dict[str, List[RunResult]]

    def render(self) -> str:
        lines = [f"Ablation: {self.name}"]
        for label, results in self.runs.items():
            lines.append(f"  {label}:")
            for result in results:
                lines.append("    " + result.describe())
        return "\n".join(lines)


def _run_variants(
    name: str,
    variants: Dict[str, SimConfig],
    loads: Sequence[float],
    measurement: Optional[MeasurementConfig],
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Run every (variant, load) point as one Experiment batch.

    ``experiment`` owns the scale when passed; otherwise one is built
    from ``measurement`` honoring ``$REPRO_WORKERS`` / ``$REPRO_CACHE``,
    so the whole ablation fans out in parallel for free.
    """
    if experiment is None:
        experiment = Experiment.from_env(measurement)
    flat = [
        replace(config, injection_fraction=load)
        for config in variants.values()
        for load in loads
    ]
    results = experiment.map(flat)
    runs = {}
    for index, label in enumerate(variants):
        start = index * len(loads)
        runs[label] = results[start:start + len(loads)]
    return AblationResult(name, runs)


def allocator_ablation(
    loads: Sequence[float] = (0.45, 0.55),
    measurement: Optional[MeasurementConfig] = None,
    num_vcs: int = 2,
    buffers_per_vc: int = 4,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Separable vs maximum-matching allocation in the spec-VC router."""
    base = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=num_vcs,
        buffers_per_vc=buffers_per_vc, seed=seed,
    )
    return _run_variants(
        "separable vs maximum-matching allocation",
        {
            "separable (paper)": replace(base, allocator_kind="separable"),
            "maximum matching": replace(base, allocator_kind="maximum"),
        },
        loads, measurement, experiment,
    )


def arbiter_ablation(
    loads: Sequence[float] = (0.45, 0.55),
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Matrix (LRU) vs round-robin arbiters in the spec-VC router."""
    base = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        seed=seed,
    )
    return _run_variants(
        "matrix vs round-robin arbiters",
        {
            "matrix (paper)": replace(base, arbiter_kind="matrix"),
            "round-robin": replace(base, arbiter_kind="round_robin"),
        },
        loads, measurement, experiment,
    )


def buffer_depth_sweep(
    buffers: Sequence[int] = (2, 3, 4, 5, 6, 8),
    load: float = 0.55,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Latency vs buffers/VC across the credit-loop coverage boundary.

    The speculative router's credit loop is 5 cycles (DESIGN.md section
    4), so latency at a demanding load should improve sharply up to ~5
    buffers per VC and flatten beyond -- the Figure 14/15 mechanism
    isolated.
    """
    variants = {
        f"{b} buffers/VC": SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=b, seed=seed,
        )
        for b in buffers
    }
    return _run_variants(
        "buffers per VC vs the 5-cycle credit loop",
        variants, (load,), measurement, experiment,
    )


def traffic_pattern_study(
    patterns: Sequence[str] = ("uniform", "transpose", "bit_complement"),
    load: float = 0.35,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> Dict[str, AblationResult]:
    """Wormhole vs speculative VC under several traffic patterns.

    Tests the paper's footnote-13 premise: the *relative* ranking of
    flow-control methods should hold across patterns (unlike routing
    strategies, which are pattern-sensitive).
    """
    results = {}
    for pattern in patterns:
        variants = {
            "wormhole (8 bufs)": SimConfig(
                router_kind=RouterKind.WORMHOLE, buffers_per_vc=8,
                traffic_pattern=pattern, seed=seed,
            ),
            "specVC (2vcsX4bufs)": SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
                buffers_per_vc=4, traffic_pattern=pattern, seed=seed,
            ),
        }
        results[pattern] = _run_variants(
            f"flow control under {pattern} traffic",
            variants, (load,), measurement, experiment,
        )
    return results


def topology_study(
    loads: Sequence[float] = (0.05, 0.25),
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Mesh vs torus ("other topologies", the paper's conclusion).

    The torus needs dateline VC classes for deadlock freedom, which
    halves the VC choice per hop, but its wrap links cut the average
    path from 5.33 to 4.06 hops at k=8 -- a ~5-cycle zero-load win for
    the 3-stage speculative router.  Loads are fractions of each
    topology's own capacity (0.5 vs 1.0 flits/node/cycle).
    """
    base = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        seed=seed,
    )
    return _run_variants(
        "mesh vs torus (speculative VC router)",
        {
            "8x8 mesh (paper)": replace(base, topology="mesh"),
            "8x8 torus (dateline VCs)": replace(base, topology="torus"),
        },
        loads, measurement, experiment,
    )


def o1turn_study(
    load: float = 0.40,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 2,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Routing policies under transpose traffic (the paper's "other
    routing policies" direction).

    Three policies on the speculative VC router: the paper's XY
    dimension order; O1TURN (per-packet XY/YX, VC-class separated); and
    minimal adaptive routing with a Duato escape VC and footnote-5
    re-iteration.  Under the adversarial transpose pattern the oblivious
    XY order concentrates load, o1turn halves it, and adaptivity routes
    around it.
    """
    base = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        traffic_pattern="transpose", seed=seed,
    )
    return _run_variants(
        "routing policies under transpose traffic",
        {
            "xy (paper)": replace(base, routing_function="xy"),
            "o1turn": replace(base, routing_function="o1turn"),
            "adaptive (escape VC)": replace(base, routing_function="adaptive"),
        },
        (load,), measurement, experiment,
    )


#: Alias reflecting the broadened scope of :func:`o1turn_study`.
routing_policy_study = o1turn_study


def speculation_priority_ablation(
    loads: Sequence[float] = (0.45, 0.55),
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Conservative vs equal-priority speculation (Section 3.1's claim).

    The paper asserts speculation has "no adverse impact on throughput"
    *because* non-speculative requests win the switch.  Dropping that
    priority lets failed speculations displace certain flits; this
    ablation measures the cost of doing so.
    """
    base = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        seed=seed,
    )
    return _run_variants(
        "conservative vs equal-priority speculation",
        {
            "conservative (paper)": replace(
                base, speculation_priority="conservative"
            ),
            "equal priority": replace(base, speculation_priority="equal"),
        },
        loads, measurement, experiment,
    )


def vc_partition_sweep(
    partitions: Sequence[tuple] = ((2, 8), (4, 4), (8, 2)),
    load: float = 0.60,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """How to split a fixed 16-flit buffer budget across VCs.

    Figures 14/15 compare 2x8 and 4x4; this sweep adds 8x2 to expose the
    full trade-off -- more VCs decouple more packets, but below the
    credit loop (~4-5 flits) each VC can no longer stream at full rate.
    """
    variants = {
        f"{v}vcs x {b}bufs": SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=v,
            buffers_per_vc=b, seed=seed,
        )
        for v, b in partitions
    }
    return _run_variants(
        "partitioning 16 buffers across virtual channels",
        variants, (load,), measurement, experiment,
    )


def flow_control_trio(
    loads: Sequence[float] = (0.35, 0.45),
    buffers: int = 8,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 3,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Wormhole vs virtual cut-through vs speculative VC.

    Adds the Related Work's third flow-control method to the paper's
    comparison: with buffers near the packet size, VCT's whole-packet
    admission costs it against plain wormhole, while the speculative VC
    router beats both -- reinforcing the paper's case for virtual
    channels over deeper single queues.
    """
    variants = {
        "wormhole": SimConfig(
            router_kind=RouterKind.WORMHOLE, buffers_per_vc=buffers,
            seed=seed,
        ),
        "virtual cut-through": SimConfig(
            router_kind=RouterKind.VIRTUAL_CUT_THROUGH,
            buffers_per_vc=buffers, seed=seed,
        ),
        "speculative VC": SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=buffers // 2, seed=seed,
        ),
    }
    return _run_variants(
        "wormhole vs virtual cut-through vs speculative VC",
        variants, loads, measurement, experiment,
    )


def burstiness_study(
    load: float = 0.30,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 6,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Constant-rate vs bursty sources at equal average load.

    The paper uses constant-rate sources; bursty arrivals at the same
    mean stress the buffers and source queues, shifting the whole
    latency curve up -- a robustness check on the flow-control ranking.
    """
    variants = {}
    for kind_label, kind, vcs, bufs in (
        ("wormhole", RouterKind.WORMHOLE, 1, 8),
        ("specVC", RouterKind.SPECULATIVE_VC, 2, 4),
    ):
        for process in ("constant", "bursty"):
            variants[f"{kind_label}, {process}"] = SimConfig(
                router_kind=kind, num_vcs=vcs, buffers_per_vc=bufs,
                injection_process=process, seed=seed,
            )
    return _run_variants(
        "constant vs bursty injection", variants, (load,), measurement,
        experiment,
    )


def pipeline_depth_study(
    extras: Sequence[int] = (0, 1, 2),
    loads: Sequence[float] = (0.05, 0.45),
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Cost of extra allocation-pipeline stages, isolated.

    The delay model prescribes extra stages when allocators straddle
    cycle boundaries (Figure 11's 5-stage router at v=16); this study
    deepens the same v=2 speculative router artificially, showing the
    zero-load cost (+1 cycle per hop per stage) and the load behaviour
    -- the quantity the paper's whole pipeline-vs-clock argument trades
    against.
    """
    variants = {
        f"+{extra} allocation stage(s)": SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=4, va_extra_cycles=extra, seed=seed,
        )
        for extra in extras
    }
    return _run_variants(
        "extra allocation-pipeline stages (speculative VC router)",
        variants, loads, measurement, experiment,
    )


def many_vcs_study(
    load: float = 0.60,
    measurement: Optional[MeasurementConfig] = None,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> AblationResult:
    """Are 16 VCs worth their fifth pipeline stage? (Figure 11 -> Section 5.)

    The model says a 16-VC non-speculative router needs 5 stages; the
    paper never simulates one.  This study does, against the paper's
    4-stage 2-VC router at matched 16-flit total buffering: the extra
    stage costs ~5 zero-load cycles while the VC-count throughput gain
    has already saturated (Figure 15's lesson) -- vindicating the
    paper's focus on small VC counts.
    """
    variants = {
        "2 VCs x 8 bufs (4-stage)": SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2,
            buffers_per_vc=8, seed=seed,
        ),
        "16 VCs x 1 buf (5-stage)": SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=16,
            buffers_per_vc=1, va_extra_cycles=1, seed=seed,
        ),
        "16 VCs x 4 bufs (5-stage)": SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=16,
            buffers_per_vc=4, va_extra_cycles=1, seed=seed,
        ),
    }
    return _run_variants(
        "many VCs vs the extra pipeline stage they cost",
        variants, (0.05, load), measurement, experiment,
    )


def render_all(
    measurement: Optional[MeasurementConfig] = None,
    experiment: Optional[Experiment] = None,
) -> str:
    """Run every ablation at default scale and render a combined report.

    Every study batches its points through ``experiment`` (default: one
    ``Experiment.from_env(measurement)`` shared by all of them), so
    ``REPRO_WORKERS=4 python -m repro.experiments --ablations`` runs
    every batch in parallel and one ``stats`` record covers the report.
    """
    if experiment is None:
        experiment = Experiment.from_env(measurement)
    studies = (
        allocator_ablation, arbiter_ablation, buffer_depth_sweep,
        topology_study, o1turn_study, speculation_priority_ablation,
        vc_partition_sweep, flow_control_trio, burstiness_study,
    )
    sections = [study(experiment=experiment).render() for study in studies]
    for result in traffic_pattern_study(experiment=experiment).values():
        sections.append(result.render())
    return "\n\n".join(sections)
