"""The experiment catalog: every simulated figure and study is one row.

A :class:`Row` is data: its curves (label -> :class:`SimConfig`, with
the paper's zero-load latency and saturation where the paper gives
them), its offered loads and the claim it tests.  :func:`run` simulates
any set of rows through one :class:`~repro.runtime.Experiment`, each
distinct point once, and :meth:`RowResult.render` draws a row as text.

``python -m repro.experiments --simulate`` reports the figure rows and
``--ablations`` the reported study rows; tests, examples and the bench
wrappers pick rows by name with :func:`get_row` and narrow them with
:func:`dataclasses.replace`.  :data:`CATALOG` holds the paper's
Figures 13-15, 17 and 18 and one study per design choice the paper
fixes by argument rather than measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..runtime.backends import SerialBackend
from ..runtime.experiment import DEFAULT_LOADS, Experiment
from ..sim.config import RouterKind, SimConfig
from ..sim.metrics import RunResult, SweepResult
from .sweep import find_saturation

__all__ = ["CATALOG", "CurveSpec", "Row", "RowResult", "get_row", "run"]


@dataclass(frozen=True)
class CurveSpec:
    """One curve of a row, with the paper's numbers where it gives them."""

    label: str
    config: SimConfig
    paper_zero_load: Optional[float] = None     # cycles
    paper_saturation: Optional[float] = None    # fraction of capacity


@dataclass(frozen=True)
class Row:
    """One simulated figure or study."""

    name: str
    title: str
    curves: Tuple[CurveSpec, ...]
    loads: Tuple[float, ...]
    #: A figure stops each curve after its first saturated load and
    #: renders zero-load / saturation summaries; a study reports every
    #: load of every curve.
    figure: bool
    claim: str
    #: False keeps a long study out of ``--ablations``; its tests and
    #: bench wrapper still run it.
    reported: bool = True

    def configs(self, spec: CurveSpec) -> Iterator[SimConfig]:
        """``spec``'s points, one per load in ascending order."""
        for load in sorted(self.loads):
            yield replace(spec.config, injection_fraction=load)


@dataclass
class RowResult:
    """A row's simulated curves, in the row's curve order."""

    row: Row
    curves: List[Tuple[CurveSpec, SweepResult]]

    @property
    def runs(self) -> Dict[str, List[RunResult]]:
        """Curve label -> its points in load order."""
        return {spec.label: curve.points for spec, curve in self.curves}

    def render(self) -> str:
        if not self.row.figure:
            lines = [f"Ablation: {self.row.title}"]
            for spec, curve in self.curves:
                lines.append(f"  {spec.label}:")
                for result in curve.points:
                    lines.append("    " + result.describe())
            return "\n".join(lines)
        lines = [f"{self.row.title}:"]
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


def run(
    rows: Sequence[Row], experiment: Optional[Experiment] = None
) -> Dict[str, RowResult]:
    """Simulate ``rows`` through ``experiment``, each distinct point once.

    On a batched backend every distinct point of every row goes out as
    one :meth:`~repro.runtime.Experiment.map`, and figure curves are cut
    after their first saturated load afterwards.  On the serial backend
    each figure curve is walked load by load and stops at that point
    (the loads beyond are the most expensive and add nothing), and each
    study row is one ``map``.  Either way a point that an earlier row
    already produced is served from this call's own table, so the
    results are identical on every backend.

    The table is keyed by the config's field values: under one
    experiment (one measurement, one code version) configs with equal
    fields are one point, and the key costs about 0.5 us where a
    ``config_key`` costs 20 us and a repr 3 us -- either would be a
    visible share of a fully cached point's cost (under 100 us).
    """
    if experiment is None:
        experiment = Experiment.from_env()
    table: Dict[Tuple, RunResult] = {}

    def prefetch(batch: Sequence[Row]) -> None:
        """Run every point of ``batch`` the table lacks as one map."""
        missing: Dict[Tuple, SimConfig] = {}
        for row in batch:
            for spec in row.curves:
                for config in row.configs(spec):
                    key = tuple(vars(config).values())
                    if key not in table:
                        missing.setdefault(key, config)
        if missing:
            table.update(zip(missing, experiment.map(list(missing.values()))))

    def point(config: SimConfig) -> RunResult:
        key = tuple(vars(config).values())
        result = table.get(key)
        if result is None:
            result = table[key] = experiment.map([config])[0]
        return result

    serial = isinstance(experiment.backend, SerialBackend)
    if not serial:
        prefetch(rows)
    results = {}
    for row in rows:
        if serial and not row.figure:
            prefetch([row])
        curves = []
        for spec in row.curves:
            points: List[RunResult] = []
            for config in row.configs(spec):
                points.append(point(config))
                if row.figure and points[-1].saturated:
                    break
            curves.append((spec, SweepResult(label=spec.label, points=points)))
        results[row.name] = RowResult(row, curves)
    return results


def get_row(name: str) -> Row:
    """The catalog row called ``name``."""
    for row in CATALOG:
        if row.name == name:
            return row
    raise KeyError(f"no catalog row {name!r}")


# ---------------------------------------------------------------------------
# The rows.
# ---------------------------------------------------------------------------

WH = RouterKind.WORMHOLE
VC = RouterKind.VIRTUAL_CHANNEL
SPEC = RouterKind.SPECULATIVE_VC


def _config(kind: RouterKind, vcs: int, bufs: int, **knobs) -> SimConfig:
    return SimConfig(router_kind=kind, num_vcs=vcs, buffers_per_vc=bufs,
                     **knobs)


def _study(name: str, title: str, loads: Tuple[float, ...], claim: str,
           variants: Dict[str, SimConfig], reported: bool = True) -> Row:
    curves = tuple(CurveSpec(label, config) for label, config in variants.items())
    return Row(name, title, curves, loads, False, claim, reported)


#: The paper's speculative router, 2 VCs x 4 buffers, that the one-knob
#: studies vary.
_SPEC_2X4 = SimConfig(router_kind=SPEC, num_vcs=2, buffers_per_vc=4)

_FIG13_CURVES = (
    CurveSpec("WH (8 bufs)", _config(WH, 1, 8), 29, 0.40),
    CurveSpec("VC (2vcsX4bufs)", _config(VC, 2, 4), 36, 0.50),
    CurveSpec("specVC (2vcsX4bufs)", _config(SPEC, 2, 4), 30, 0.55),
)

_TRAFFIC_CLAIM = (
    "Footnote 13: the relative ranking of flow-control methods holds "
    "across traffic patterns (unlike routing strategies, which are "
    "pattern-sensitive)."
)


def _traffic(pattern: str) -> Row:
    return _study(
        f"traffic_{pattern}", f"flow control under {pattern} traffic",
        (0.35,), _TRAFFIC_CLAIM,
        {
            "wormhole (8 bufs)": _config(WH, 1, 8, traffic_pattern=pattern),
            "specVC (2vcsX4bufs)": _config(
                SPEC, 2, 4, traffic_pattern=pattern
            ),
        },
    )


CATALOG: Tuple[Row, ...] = (
    Row(
        "fig13", "Figure 13 (8 buffers per input port)", _FIG13_CURVES,
        DEFAULT_LOADS, True,
        "Zero-load 29 (WH) / 36 (VC 2vcsX4bufs) / 30 (specVC); saturation "
        "~40% / ~50% / ~55% of capacity.",
    ),
    Row(
        "fig14", "Figure 14 (16 buffers per input port, 2 VCs)",
        (
            CurveSpec("WH (16 bufs)", _config(WH, 1, 16), 29, 0.50),
            CurveSpec("VC (2vcsX8bufs)", _config(VC, 2, 8), 35, 0.65),
            CurveSpec("specVC (2vcsX8bufs)", _config(SPEC, 2, 8), 29, 0.70),
        ),
        DEFAULT_LOADS, True,
        "Zero-load 29 / 35 / 29; saturation ~50% / ~65% / ~70% (the "
        "speculative router's 40% gain over wormhole).",
    ),
    Row(
        "fig15", "Figure 15 (16 buffers per input port, 4 VCs)",
        (
            CurveSpec("WH (16 bufs)", _config(WH, 1, 16), 29, 0.50),
            CurveSpec("VC (4vcsX4bufs)", _config(VC, 4, 4), 35, 0.70),
            CurveSpec("specVC (4vcsX4bufs)", _config(SPEC, 4, 4), 29, 0.70),
        ),
        DEFAULT_LOADS, True,
        "With 4 VCs x 4 buffers both VC routers reach ~70%: enough "
        "buffering covers the credit loop, so speculation's shorter "
        "pipeline no longer buys throughput.",
    ),
    Row(
        "fig17", "Figure 17 (single-cycle vs pipelined models)",
        _FIG13_CURVES + (
            CurveSpec(
                "WH single-cycle (8 bufs)",
                _config(RouterKind.SINGLE_CYCLE_WORMHOLE, 1, 8), 16,
            ),
            CurveSpec(
                "VC single-cycle (2vcsX4bufs)",
                _config(RouterKind.SINGLE_CYCLE_VC, 2, 4), 16, 0.65,
            ),
        ),
        DEFAULT_LOADS, True,
        "Single-cycle routers show zero-load latency 16 (vs 29/36 "
        "pipelined) and the single-cycle VC router saturates at 65% vs 50% "
        "(pipelined VC) / 55% (pipelined specVC): the unit-latency model "
        "overestimates throughput by ignoring buffer turnaround.",
    ),
    Row(
        "fig18", "Figure 18 (credit propagation delay)",
        (
            CurveSpec(
                "specVC, 1-cycle credits",
                _config(SPEC, 2, 4, credit_propagation=1), 30, 0.55,
            ),
            CurveSpec(
                "specVC, 4-cycle credits",
                _config(SPEC, 2, 4, credit_propagation=4),
                paper_saturation=0.45,
            ),
        ),
        DEFAULT_LOADS, True,
        "Raising credit propagation from 1 to 4 cycles cuts saturation "
        "throughput from 55% to 45% of capacity (an 18% reduction).",
    ),
    _study(
        "allocator", "separable vs maximum-matching allocation", (0.45, 0.55),
        "Section 3.2: the separable two-stage allocator gives up only a "
        "small amount of allocation efficiency against an exact maximum "
        "matching.",
        {
            "separable (paper)": replace(_SPEC_2X4, allocator_kind="separable"),
            "maximum matching": replace(_SPEC_2X4, allocator_kind="maximum"),
        },
    ),
    _study(
        "arbiter", "matrix vs round-robin arbiters", (0.45, 0.55),
        "The matrix (least-recently-served) arbiter the paper builds on "
        "performs like a round-robin arbiter.",
        {
            "matrix (paper)": replace(_SPEC_2X4, arbiter_kind="matrix"),
            "round-robin": replace(_SPEC_2X4, arbiter_kind="round_robin"),
        },
    ),
    _study(
        "buffer_depth", "buffers per VC vs the 5-cycle credit loop", (0.55,),
        "The speculative router's credit loop is 5 cycles, so latency at a "
        "demanding load improves sharply up to ~5 buffers per VC and "
        "flattens beyond: the Figure 14/15 mechanism isolated.",
        {f"{b} buffers/VC": _config(SPEC, 2, b) for b in (2, 3, 4, 5, 6, 8)},
    ),
    _study(
        "topology", "mesh vs torus (speculative VC router)", (0.05, 0.25),
        "Other topologies (the paper's conclusion): dateline VC classes "
        "halve the VC choice per hop, but the torus's wrap links cut the "
        "average path from 5.33 to 4.06 hops at k=8, a ~5-cycle zero-load "
        "win for the 3-stage speculative router.  Loads are fractions of "
        "each topology's own capacity (0.5 vs 1.0 flits/node/cycle).",
        {
            "8x8 mesh (paper)": replace(_SPEC_2X4, topology="mesh"),
            "8x8 torus (dateline VCs)": replace(_SPEC_2X4, topology="torus"),
        },
    ),
    _study(
        "routing", "routing policies under transpose traffic", (0.40,),
        "Other routing policies (the paper's conclusion): under transpose "
        "traffic the oblivious XY order concentrates load, O1TURN "
        "(per-packet XY/YX, VC-class separated) halves it, and minimal "
        "adaptive routing with a Duato escape VC and footnote-5 "
        "re-iteration routes around it.",
        {
            label: replace(
                _SPEC_2X4, traffic_pattern="transpose", routing_function=fn,
                seed=2,
            )
            for label, fn in (
                ("xy (paper)", "xy"), ("o1turn", "o1turn"),
                ("adaptive (escape VC)", "adaptive"),
            )
        },
    ),
    _study(
        "speculation_priority", "conservative vs equal-priority speculation",
        (0.45, 0.55),
        "Section 3.1: speculation has no adverse impact on throughput "
        "because non-speculative requests win the switch; dropping that "
        "priority lets failed speculations displace certain flits.",
        {
            "conservative (paper)": replace(
                _SPEC_2X4, speculation_priority="conservative"
            ),
            "equal priority": replace(_SPEC_2X4, speculation_priority="equal"),
        },
    ),
    _study(
        "vc_partition", "partitioning 16 buffers across virtual channels",
        (0.60,),
        "Figures 14/15 compare 2x8 and 4x4; 8x2 exposes the full trade-off: "
        "more VCs decouple more packets, but below the credit loop (~4-5 "
        "flits) each VC can no longer stream at full rate.",
        {
            f"{v}vcs x {b}bufs": _config(SPEC, v, b)
            for v, b in ((2, 8), (4, 4), (8, 2))
        },
    ),
    _study(
        "flow_control_trio",
        "wormhole vs virtual cut-through vs speculative VC", (0.35, 0.45),
        "Related Work's third flow-control method: with buffers near the "
        "packet size, virtual cut-through's whole-packet admission costs "
        "it against plain wormhole, while the speculative VC router beats "
        "both.",
        {
            "wormhole": _config(WH, 1, 8, seed=3),
            "virtual cut-through": _config(
                RouterKind.VIRTUAL_CUT_THROUGH, 1, 8, seed=3
            ),
            "speculative VC": _config(SPEC, 2, 4, seed=3),
        },
    ),
    _study(
        "burstiness", "constant vs bursty injection", (0.30,),
        "The paper uses constant-rate sources; bursty arrivals at the same "
        "mean stress buffers and source queues and shift the latency curve "
        "up, but the flow-control ranking survives.",
        {
            f"{label}, {process}": _config(
                kind, vcs, bufs, injection_process=process, seed=6
            )
            for label, kind, vcs, bufs in (
                ("wormhole", WH, 1, 8), ("specVC", SPEC, 2, 4),
            )
            for process in ("constant", "bursty")
        },
    ),
    _traffic("uniform"),
    _traffic("transpose"),
    _traffic("bit_complement"),
    _study(
        "pipeline_depth",
        "extra allocation-pipeline stages (speculative VC router)",
        (0.05, 0.45),
        "Each allocation stage the delay model adds when allocators "
        "straddle cycle boundaries (Figure 11) costs one cycle per hop at "
        "zero load: the quantity the paper's pipeline-vs-clock argument "
        "trades against.",
        {
            f"+{extra} allocation stage(s)": _config(
                SPEC, 2, 4, va_extra_cycles=extra
            )
            for extra in (0, 1, 2)
        },
        reported=False,
    ),
    _study(
        "many_vcs", "many VCs vs the extra pipeline stage they cost",
        (0.05, 0.60),
        "Figure 11 gives a 16-VC non-speculative router 5 stages; against "
        "the 4-stage 2-VC router at matched 16-flit buffering the extra "
        "stage costs ~5 zero-load cycles while the VC-count throughput gain "
        "has already saturated (Figure 15's lesson).",
        {
            "2 VCs x 8 bufs (4-stage)": _config(VC, 2, 8),
            "16 VCs x 1 buf (5-stage)": _config(VC, 16, 1, va_extra_cycles=1),
            "16 VCs x 4 bufs (5-stage)": _config(VC, 16, 4, va_extra_cycles=1),
        },
        reported=False,
    ),
)
