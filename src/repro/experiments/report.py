"""Plain-text report assembly for the experiment drivers.

``python -m repro.experiments`` (see ``__main__.py``) prints
:func:`delay_model_report` -- Table 1 and the pipeline figures -- and,
optionally, since they simulate, the catalog rows
(:mod:`repro.experiments.catalog`).
``python -m repro.experiments report --telemetry`` additionally renders
one instrumented run's :class:`~repro.telemetry.TelemetrySummary` via
:func:`telemetry_report`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..sim.config import MeasurementConfig, RouterKind, SimConfig
from ..telemetry import TelemetryConfig
from . import figures


def delay_model_report() -> str:
    """Table 1 + Figures 11, 12 and 16 (no simulation required)."""
    sections = [
        "Table 1 (p=5, w=32, v=2, clk=20 tau4)",
        figures.render_table1_report(),
        "",
        figures.fig11().render(),
        "",
        figures.fig12().render(),
        "",
        figures.fig16(),
    ]
    return "\n".join(sections)


def telemetry_snapshot_config(
    load: float = 0.42, seed: int = 42
) -> SimConfig:
    """The canonical instrumented run: 8x8 speculative VC router.

    0.42 of capacity sits on the climbing part of Figure 13's
    speculative curve -- busy enough that speculation wins and loses in
    the same run, well short of saturation.
    """
    return SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        injection_fraction=load, seed=seed,
    )


def telemetry_report(
    config: Optional[SimConfig] = None,
    measurement: Optional[MeasurementConfig] = None,
    telemetry: Optional[TelemetryConfig] = None,
    export_dir: Optional[Union[str, Path]] = None,
) -> str:
    """Run one instrumented simulation and render its telemetry.

    Runs the :class:`~repro.sim.engine.Simulator` directly (not through
    an :class:`~repro.runtime.Experiment`) so the in-memory
    :class:`~repro.sim.trace.Tracer` is still reachable for Chrome-trace
    export -- the trace's raw event list is deliberately not part of the
    serializable :class:`~repro.telemetry.TelemetrySummary`.

    With ``export_dir`` set, writes ``telemetry.jsonl``,
    ``telemetry.csv``, ``windows.csv`` and ``trace.json`` (the Chrome
    ``trace_event`` file Perfetto opens) into it and lists the paths in
    the rendered report.
    """
    from ..sim.engine import Simulator
    from ..telemetry import TelemetrySession, exporters

    config = config or telemetry_snapshot_config()
    if telemetry is None:
        telemetry = config.telemetry or TelemetryConfig(
            capture_trace=export_dir is not None
        )
    session = TelemetrySession(telemetry)
    result = Simulator(config, measurement, telemetry=session).run()
    summary = result.telemetry
    assert summary is not None

    lines = [
        f"Telemetry: {config.router_kind.value} "
        f"{config.mesh_radix}x{config.mesh_radix}, "
        f"{config.num_vcs} VCs x {config.buffers_per_vc} buffers, "
        f"load {config.injection_fraction:.2f}, seed {config.seed}",
        f"  cycles observed       {summary.cycles_observed:,} "
        f"(sample period {summary.sample_period}, "
        f"window {summary.window_cycles})",
        f"  speculation win rate  {summary.speculation_win_rate:.1%} "
        f"({summary.speculation_won:,.0f} of "
        f"{summary.speculation_attempted:,.0f} attempts)",
        f"  channel utilization   {summary.channel_utilization:.1%}",
    ]
    directions = summary.directions()
    if directions:
        lines.append("    " + "  ".join(
            f"{port} {summary.port_utilization(port):.1%}"
            for port in directions
        ))
    lines.append(
        f"  mean VC occupancy     {summary.mean_vc_occupancy:.2f} "
        f"flits/buffer (peak network backlog "
        f"{summary.peak_vc_occupancy:,.0f} flits)"
    )
    lines.append(
        f"  credit stall rate     {summary.credit_stall_rate:.2%} "
        f"of router-cycles"
    )
    shares = summary.grant_share_by_input()
    if shares:
        lines.append("  switch grants by input:  " + "  ".join(
            f"{port} {share:.0%}" for port, share in shares.items()
        ))
    lines.append(
        f"  run result            {result.describe()}"
    )

    if export_dir is not None:
        export_dir = Path(export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
        written = [
            exporters.export_jsonl(summary, export_dir / "telemetry.jsonl"),
            exporters.export_csv(summary, export_dir / "telemetry.csv"),
            exporters.export_windows_csv(summary, export_dir / "windows.csv"),
            exporters.export_chrome_trace(
                export_dir / "trace.json",
                summary=summary, tracer=session.tracer,
            ),
        ]
        lines.append("exports:")
        lines.extend(f"  {path}" for path in written)
    return "\n".join(lines)
