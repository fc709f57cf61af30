"""One reproduction driver per table/figure of the paper.

Each ``figNN`` function runs the experiment behind that figure and
returns a structured result carrying both our measurements and the
paper's reported values, plus a text rendering.  The benchmark harness
(``benchmarks/bench_figNN.py``) calls these; EXPERIMENTS.md records the
paper-vs-measured outcomes.

The simulation figures accept a :class:`MeasurementConfig` so callers
choose the scale; the defaults are laptop-sized, and
:func:`repro.sim.config.paper_scale` gives the paper's full runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..delaymodel.modules import RoutingRange, speculative_allocation_delay
from ..delaymodel.pipeline import (
    PipelineDesign,
    speculative_vc_pipeline,
    virtual_channel_pipeline,
    wormhole_pipeline,
)
from ..delaymodel.table1 import Table1Row, generate_table1, render_table1
from ..delaymodel.tau import tau_to_tau4
from ..runtime.experiment import Experiment
from ..sim.config import MeasurementConfig, RouterKind, SimConfig
from ..sim.credit import (
    NONSPECULATIVE_VC_TIMING,
    SINGLE_CYCLE_TIMING,
    SPECULATIVE_VC_SLOW_CREDIT_TIMING,
    SPECULATIVE_VC_TIMING,
    WORMHOLE_TIMING,
    turnaround_timeline,
)
from ..sim.metrics import SweepResult
from .sweep import DEFAULT_LOADS, find_saturation

#: Channel width used throughout the paper's pipeline figures.
PAPER_W = 32
#: Virtual-channel counts on Figure 11/12's x axis.
PAPER_V_SWEEP = (2, 4, 8, 16, 32)
#: Physical-channel counts on Figure 11/12's x axis (2D mesh / extra).
PAPER_P_SWEEP = (5, 7)


# ---------------------------------------------------------------------------
# Table 1.
# ---------------------------------------------------------------------------

def table1() -> List[Table1Row]:
    """Regenerate Table 1's model column (with the paper's values attached)."""
    return generate_table1()


def render_table1_report() -> str:
    return render_table1(table1())


# ---------------------------------------------------------------------------
# Figure 11: pipeline depths vs (p, v).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig11Bar:
    """One bar of Figure 11: a router configuration's pipeline."""

    label: str
    p: int
    v: int
    design: PipelineDesign

    @property
    def stages(self) -> int:
        return self.design.depth


@dataclass
class Fig11Result:
    nonspeculative: List[Fig11Bar]
    speculative: List[Fig11Bar]
    wormhole: Fig11Bar

    def render(self) -> str:
        lines = ["Figure 11: per-node latency (pipeline stages) at clk=20 tau4"]
        lines.append(f"  wormhole reference: {self.wormhole.stages} stages")
        lines.append("  (a) non-speculative VC router (VC allocator: Rpv)")
        for bar in self.nonspeculative:
            occupancy = ", ".join(
                f"{f:.2f}" for f in bar.design.stage_occupancies()
            )
            lines.append(
                f"    {bar.label:12s}: {bar.stages} stages  [{occupancy}]"
            )
        lines.append("  (b) speculative VC router (VC allocator: Rv)")
        for bar in self.speculative:
            occupancy = ", ".join(
                f"{f:.2f}" for f in bar.design.stage_occupancies()
            )
            lines.append(
                f"    {bar.label:12s}: {bar.stages} stages  [{occupancy}]"
            )
        return "\n".join(lines)


def fig11(
    p_values: Sequence[int] = PAPER_P_SWEEP,
    v_values: Sequence[int] = PAPER_V_SWEEP,
    w: int = PAPER_W,
) -> Fig11Result:
    """Pipelines proposed by the model for VC routers (Figure 11)."""
    nonspec = [
        Fig11Bar(
            f"{v}vcs,{p}pcs", p, v,
            virtual_channel_pipeline(p, v, w, RoutingRange.RPV),
        )
        for p in p_values
        for v in v_values
    ]
    spec = [
        Fig11Bar(
            f"{v}vcs,{p}pcs", p, v,
            speculative_vc_pipeline(p, v, w, RoutingRange.RV),
        )
        for p in p_values
        for v in v_values
    ]
    wormhole = Fig11Bar(
        "wormhole", p_values[0], 1, wormhole_pipeline(p_values[0], w)
    )
    return Fig11Result(nonspec, spec, wormhole)


# ---------------------------------------------------------------------------
# Figure 12: combined VC + speculative switch allocation delay.
# ---------------------------------------------------------------------------

@dataclass
class Fig12Result:
    #: delay in tau4, keyed by (routing range, p, v).
    delays_tau4: Dict[Tuple[str, int, int], float]
    p_values: Sequence[int]
    v_values: Sequence[int]

    def series(self, routing_range: RoutingRange) -> List[float]:
        """One plotted line: delays in the paper's x-axis order."""
        return [
            self.delays_tau4[(routing_range.value, p, v)]
            for p in self.p_values
            for v in self.v_values
        ]

    def render(self) -> str:
        lines = [
            "Figure 12: combined VC & switch allocation delay (tau4)",
            f"{'config':>12} {'R:v':>7} {'R:p':>7} {'R:pv':>7}",
        ]
        for p in self.p_values:
            for v in self.v_values:
                rv = self.delays_tau4[("Rv", p, v)]
                rp = self.delays_tau4[("Rp", p, v)]
                rpv = self.delays_tau4[("Rpv", p, v)]
                lines.append(
                    f"{f'{v}vcs,{p}pcs':>12} {rv:7.1f} {rp:7.1f} {rpv:7.1f}"
                )
        return "\n".join(lines)


def fig12(
    p_values: Sequence[int] = PAPER_P_SWEEP,
    v_values: Sequence[int] = PAPER_V_SWEEP,
) -> Fig12Result:
    """Combined allocation-stage delay vs configuration (Figure 12)."""
    delays = {
        (rng.value, p, v): tau_to_tau4(speculative_allocation_delay(p, v, rng))
        for rng in RoutingRange
        for p in p_values
        for v in v_values
    }
    return Fig12Result(delays, p_values, v_values)


# ---------------------------------------------------------------------------
# Simulation figures (13, 14, 15, 17, 18).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """One curve of a latency-throughput figure."""

    label: str
    config: SimConfig
    paper_zero_load: Optional[float] = None     # cycles
    paper_saturation: Optional[float] = None    # fraction of capacity


@dataclass
class SimFigureResult:
    figure: str
    curves: List[Tuple[CurveSpec, SweepResult]]

    def render(self) -> str:
        lines = [f"{self.figure}:"]
        for spec, curve in self.curves:
            lines.append(curve.describe())
            zero_load = curve.zero_load_latency()
            saturation = find_saturation(curve)
            paper_bits = []
            if spec.paper_zero_load is not None:
                paper_bits.append(f"paper zero-load {spec.paper_zero_load:.0f}")
            if spec.paper_saturation is not None:
                paper_bits.append(f"paper saturation {spec.paper_saturation:.0%}")
            paper = f" ({'; '.join(paper_bits)})" if paper_bits else ""
            lines.append(
                f"  -> zero-load {zero_load:.1f} cycles, "
                f"saturation ~{saturation:.0%}{paper}"
            )
        return "\n".join(lines)


def _run_figure(
    figure: str,
    specs: Sequence[CurveSpec],
    measurement: Optional[MeasurementConfig],
    loads: Sequence[float],
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Run every curve of a figure through one :class:`Experiment`.

    With a parallel/cached experiment attached, all the figure's
    (curve, load) points fan out as a single batch, so an entire figure
    reproduces in one parallel wave and re-runs serve from cache.
    """
    if experiment is None:
        experiment = Experiment.from_env(measurement)
    elif measurement is not None and measurement != experiment.measurement:
        # Same backend, plan, cache, progress, checked/telemetry modes and
        # stats record -- only the scale differs.
        experiment = copy.copy(experiment)
        experiment.measurement = measurement
    sweeps = experiment.sweeps(
        [(spec.label, spec.config) for spec in specs], loads=loads
    )
    return SimFigureResult(figure, list(zip(specs, sweeps)))


def fig13(
    measurement: Optional[MeasurementConfig] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Figure 13: 8 buffers per input port.

    Paper: zero-load 29 (WH) / 36 (VC 2vcsX4bufs) / 30 (specVC);
    saturation ~40% / ~50% / ~55% of capacity.
    """
    specs = [
        CurveSpec(
            "WH (8 bufs)",
            SimConfig(router_kind=RouterKind.WORMHOLE, buffers_per_vc=8, seed=seed),
            paper_zero_load=29, paper_saturation=0.40,
        ),
        CurveSpec(
            "VC (2vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.VIRTUAL_CHANNEL,
                num_vcs=2, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=36, paper_saturation=0.50,
        ),
        CurveSpec(
            "specVC (2vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=2, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=30, paper_saturation=0.55,
        ),
    ]
    return _run_figure("Figure 13 (8 buffers per input port)", specs,
                       measurement, loads, experiment)


def fig14(
    measurement: Optional[MeasurementConfig] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Figure 14: 16 buffers per input port, 2 VCs.

    Paper: zero-load 29 / 35 / 29; saturation ~50% / ~65% / ~70%
    (the speculative router's 40% gain over wormhole).
    """
    specs = [
        CurveSpec(
            "WH (16 bufs)",
            SimConfig(router_kind=RouterKind.WORMHOLE, buffers_per_vc=16, seed=seed),
            paper_zero_load=29, paper_saturation=0.50,
        ),
        CurveSpec(
            "VC (2vcsX8bufs)",
            SimConfig(
                router_kind=RouterKind.VIRTUAL_CHANNEL,
                num_vcs=2, buffers_per_vc=8, seed=seed,
            ),
            paper_zero_load=35, paper_saturation=0.65,
        ),
        CurveSpec(
            "specVC (2vcsX8bufs)",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=2, buffers_per_vc=8, seed=seed,
            ),
            paper_zero_load=29, paper_saturation=0.70,
        ),
    ]
    return _run_figure("Figure 14 (16 buffers per input port, 2 VCs)", specs,
                       measurement, loads, experiment)


def fig15(
    measurement: Optional[MeasurementConfig] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Figure 15: 16 buffers per input port, 4 VCs.

    Paper: with 4 VCs x 4 buffers both VC routers reach ~70% -- enough
    buffering covers the credit loop, so speculation's shorter pipeline
    no longer buys throughput.
    """
    specs = [
        CurveSpec(
            "WH (16 bufs)",
            SimConfig(router_kind=RouterKind.WORMHOLE, buffers_per_vc=16, seed=seed),
            paper_zero_load=29, paper_saturation=0.50,
        ),
        CurveSpec(
            "VC (4vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.VIRTUAL_CHANNEL,
                num_vcs=4, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=35, paper_saturation=0.70,
        ),
        CurveSpec(
            "specVC (4vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=4, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=29, paper_saturation=0.70,
        ),
    ]
    return _run_figure("Figure 15 (16 buffers per input port, 4 VCs)", specs,
                       measurement, loads, experiment)


def fig16() -> str:
    """Figure 16: the buffer-turnaround timeline, as a text table.

    Renders the credit-loop timelines of each router model; the unit
    tests pin the resulting turnaround counts (4/5/2/7 in the paper's
    accounting).
    """
    lines = ["Figure 16: buffer turnaround timelines"]
    for name, timing in [
        ("wormhole (pipelined)", WORMHOLE_TIMING),
        ("speculative VC (pipelined)", SPECULATIVE_VC_TIMING),
        ("non-speculative VC (pipelined)", NONSPECULATIVE_VC_TIMING),
        ("single-cycle model", SINGLE_CYCLE_TIMING),
        ("speculative VC, 4-cycle credits", SPECULATIVE_VC_SLOW_CREDIT_TIMING),
    ]:
        lines.append(f"  {name}: turnaround {timing.turnaround} cycles")
        for offset, event in turnaround_timeline(timing):
            lines.append(f"    t+{offset}: {event}")
    return "\n".join(lines)


def fig17(
    measurement: Optional[MeasurementConfig] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Figure 17: pipelined model vs single-cycle model (8 buffers).

    Paper: single-cycle routers show zero-load latency 16 (vs 29/36
    pipelined) and the single-cycle VC router saturates at 65% vs 50%
    (pipelined VC) / 55% (pipelined specVC) -- the unit-latency model
    overestimates throughput by ignoring buffer turnaround.
    """
    specs = [
        CurveSpec(
            "WH (8 bufs)",
            SimConfig(router_kind=RouterKind.WORMHOLE, buffers_per_vc=8, seed=seed),
            paper_zero_load=29, paper_saturation=0.40,
        ),
        CurveSpec(
            "VC (2vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.VIRTUAL_CHANNEL,
                num_vcs=2, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=36, paper_saturation=0.50,
        ),
        CurveSpec(
            "specVC (2vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=2, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=30, paper_saturation=0.55,
        ),
        CurveSpec(
            "WH single-cycle (8 bufs)",
            SimConfig(
                router_kind=RouterKind.SINGLE_CYCLE_WORMHOLE,
                buffers_per_vc=8, seed=seed,
            ),
            paper_zero_load=16,
        ),
        CurveSpec(
            "VC single-cycle (2vcsX4bufs)",
            SimConfig(
                router_kind=RouterKind.SINGLE_CYCLE_VC,
                num_vcs=2, buffers_per_vc=4, seed=seed,
            ),
            paper_zero_load=16, paper_saturation=0.65,
        ),
    ]
    return _run_figure("Figure 17 (single-cycle vs pipelined models)", specs,
                       measurement, loads, experiment)


def fig18(
    measurement: Optional[MeasurementConfig] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> SimFigureResult:
    """Figure 18: credit propagation delay 1 vs 4 cycles (specVC 2vcsX4bufs).

    Paper: raising credit propagation from 1 to 4 cycles cuts saturation
    throughput from 55% to 45% of capacity (an 18% reduction).
    """
    specs = [
        CurveSpec(
            "specVC, 1-cycle credits",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=2, buffers_per_vc=4, credit_propagation=1, seed=seed,
            ),
            paper_zero_load=30, paper_saturation=0.55,
        ),
        CurveSpec(
            "specVC, 4-cycle credits",
            SimConfig(
                router_kind=RouterKind.SPECULATIVE_VC,
                num_vcs=2, buffers_per_vc=4, credit_propagation=4, seed=seed,
            ),
            paper_saturation=0.45,
        ),
    ]
    return _run_figure("Figure 18 (credit propagation delay)", specs,
                       measurement, loads, experiment)
