"""The paper's Table 1 and Figures 11, 12 and 16, plus Figs 13 and 17.

Table 1 and Figures 11, 12 and 16 come from the delay model and the
credit-loop timing alone, so each is a function returning a structured
result with a text rendering.  The simulated figures are rows of
:mod:`repro.experiments.catalog`; :func:`fig13` and :func:`fig17` run
one such row alone at chosen loads and seed, the entry point the
end-to-end benchmark (``benchmarks/e2e``) times.  EXPERIMENTS.md records
the paper-vs-measured outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from ..runtime.experiment import DEFAULT_LOADS, Experiment
from ..sim.credit import (
    NONSPECULATIVE_VC_TIMING,
    SINGLE_CYCLE_TIMING,
    SPECULATIVE_VC_SLOW_CREDIT_TIMING,
    SPECULATIVE_VC_TIMING,
    WORMHOLE_TIMING,
    turnaround_timeline,
)
from .catalog import RowResult, get_row, run

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
# Figure 16: buffer turnaround.
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Simulation figures: rows of the experiment catalog.
# ---------------------------------------------------------------------------

def fig13(
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> RowResult:
    """The ``fig13`` catalog row at ``loads`` and ``seed``, run alone."""
    return _run_row("fig13", loads, seed, experiment)


def fig17(
    loads: Sequence[float] = DEFAULT_LOADS,
    seed: int = 1,
    experiment: Optional[Experiment] = None,
) -> RowResult:
    """The ``fig17`` catalog row at ``loads`` and ``seed``, run alone."""
    return _run_row("fig17", loads, seed, experiment)


def _run_row(
    name: str,
    loads: Sequence[float],
    seed: int,
    experiment: Optional[Experiment],
) -> RowResult:
    row = get_row(name)
    curves = tuple(
        spec if spec.config.seed == seed
        else replace(spec, config=replace(spec.config, seed=seed))
        for spec in row.curves
    )
    row = replace(row, curves=curves, loads=tuple(loads))
    return run([row], experiment)[name]
