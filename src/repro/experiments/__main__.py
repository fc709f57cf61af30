"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments                 # delay-model results only
    python -m repro.experiments --simulate      # + latency-throughput figures
    python -m repro.experiments --simulate --paper-scale   # full-size runs
    python -m repro.experiments --checked       # validation smoke run
    python -m repro.experiments report --telemetry         # observability
    python -m repro.experiments analyze --check            # invariant lint
    python -m repro.experiments estimate --load 0.3        # surrogate query
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from ..runtime.experiment import Experiment
from ..sim.config import MeasurementConfig, paper_scale
from ..sim.instrumentation import PrintProgress
from .report import delay_model_report, simulation_report


def _validation_smoke() -> int:
    """Checked-mode smoke: probes + differential oracles on tiny runs.

    This is what ``--checked`` runs when no simulation report was
    requested: a speculative-VC run with every invariant probe attached,
    the differential-oracle suite, and a handful of generated property
    cases.  Prints one validation summary line per stage; exits nonzero
    on any violation or mismatch.
    """
    from ..sim.config import RouterKind, SimConfig
    from ..sim.engine import simulate
    from ..sim.validation.oracle import ORACLE_MEASUREMENT, run_all_oracles
    from ..sim.validation.proptest import run_property_suite

    ok = True
    config = SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
        injection_fraction=0.2, seed=1,
    )
    result = simulate(config, ORACLE_MEASUREMENT, checked=True)
    summary = result.validation
    assert summary is not None
    checks = sum(summary["probes"].values())
    print(
        f"[checked] speculative_vc 4x4 probe run: "
        f"{'ok' if summary['ok'] else 'FAILED'} "
        f"({summary['cycles_checked']} cycles, {checks} probe checks, "
        f"{len(summary['violations'])} violations)"
    )
    ok &= summary["ok"]

    for report in run_all_oracles():
        print("[checked] " + report.describe())
        ok &= report.ok

    prop = run_property_suite(seed=1, count=4, fail_fast=False)
    print(
        f"[checked] property cases: {prop['passed']}/{prop['cases']} passed"
        + "".join(
            f"\n  {failure['case']}: {failure['error']}"
            for failure in prop["failures"]
        )
    )
    ok &= prop["ok"]
    print(f"[checked] validation {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def _scaled(parser, measurement: MeasurementConfig, sample_packets):
    """``measurement`` at ``--sample-packets N`` (unchanged when not given).

    ``replace()`` re-runs ``__post_init__``, so a bad value is a usage
    error here instead of a simulation that never samples.
    """
    if sample_packets is None:
        return measurement
    try:
        return replace(measurement, sample_packets=sample_packets)
    except ValueError as error:
        parser.error(f"--sample-packets: {error}")


def _report_command(argv) -> int:
    """The ``report`` subcommand: render one report on demand.

    Without flags this reprints the delay-model report (same as the
    bare invocation); ``--telemetry`` instead runs one instrumented
    simulation and renders its telemetry summary, optionally exporting
    JSONL/CSV/Chrome-trace files with ``--export-dir``.
    """
    from pathlib import Path

    from ..sim.config import RouterKind, SimConfig
    from ..telemetry import TelemetryConfig
    from .report import telemetry_report, telemetry_snapshot_config

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description="Render a single report without the full reproduction.",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="run one instrumented simulation and report its telemetry "
             "(speculation win rate, channel utilization, occupancy)",
    )
    parser.add_argument(
        "--router", default=None, metavar="KIND",
        choices=[kind.value for kind in RouterKind],
        help="router kind for the telemetry run (default speculative_vc)",
    )
    parser.add_argument(
        "--load", type=float, default=0.42,
        help="offered load as a fraction of capacity (default 0.42)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="simulation seed (default 42)",
    )
    parser.add_argument(
        "--sample-packets", type=int, default=None,
        help="override the measured packet sample size",
    )
    parser.add_argument(
        "--sample-period", type=int, default=None,
        help="telemetry sampling period in cycles (default 64)",
    )
    parser.add_argument(
        "--export-dir", type=Path, default=None, metavar="DIR",
        help="write telemetry.jsonl, telemetry.csv, windows.csv and "
             "trace.json (Chrome trace_event; open in Perfetto) here",
    )
    args = parser.parse_args(argv)

    if not args.telemetry:
        print(delay_model_report())
        return 0

    config = telemetry_snapshot_config(load=args.load, seed=args.seed)
    if args.router is not None:
        kind = RouterKind(args.router)
        config = SimConfig(
            router_kind=kind,
            num_vcs=config.num_vcs if kind.uses_vcs else 1,
            buffers_per_vc=config.buffers_per_vc,
            injection_fraction=args.load, seed=args.seed,
        )
    measurement = _scaled(parser, MeasurementConfig(), args.sample_packets)
    telemetry = None
    if args.sample_period is not None:
        telemetry = TelemetryConfig(
            sample_period=args.sample_period,
            capture_trace=args.export_dir is not None,
        )
    print(telemetry_report(
        config, measurement, telemetry=telemetry, export_dir=args.export_dir,
    ))
    return 0


def main(argv=None) -> int:
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _report_command(argv[1:])
    if argv and argv[0] == "analyze":
        # The static invariant linter (same driver as
        # ``python -m repro.analysis``): DET/CACHE/WRAP/SLOTS/PURE.
        from ..analysis.__main__ import main as analysis_main

        return analysis_main(argv[1:])
    if argv and argv[0] == "estimate":
        # Hybrid surrogate-first serving (docs/SURROGATE.md).
        from .estimate import estimate_command

        return estimate_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the tables and figures of Peh & Dally (HPCA 2001).",
    )
    parser.add_argument(
        "--simulate", action="store_true",
        help="also run the latency-throughput simulations (figures 13-18)",
    )
    parser.add_argument(
        "--ablations", action="store_true",
        help="also run the ablation and extension studies (slow)",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's full warm-up/sample sizes (hours of runtime)",
    )
    parser.add_argument(
        "--sample-packets", type=int, default=None,
        help="override the measured packet sample size per run",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes (default $REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: serial or process[:N] (chunked "
             "work-stealing pool); default $REPRO_BACKEND or inferred "
             "from --workers",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="POINTS",
        help="grid points per scheduler chunk (default: automatic, "
             "~4 chunks per worker)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="serve repeated points from the on-disk result cache "
             "($REPRO_CACHE_DIR or ~/.cache/repro-sim)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per finished simulation point",
    )
    parser.add_argument(
        "--checked", action="store_true",
        help="checked mode: attach the invariant-probe suite to every "
             "simulation; alone, run the validation smoke suite "
             "(probes + differential oracles) and exit 0/1",
    )
    args = parser.parse_args(argv)

    measurement = _scaled(
        parser,
        paper_scale() if args.paper_scale else MeasurementConfig(),
        args.sample_packets,
    )

    if args.checked and not (args.simulate or args.ablations):
        return _validation_smoke()

    overrides = {"workers": args.workers}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.chunk_size is not None:
        from ..runtime.scheduler import Plan

        overrides["plan"] = Plan(chunk_size=args.chunk_size)
    if args.cache:
        overrides["cache"] = True
    if args.progress:
        overrides["progress"] = PrintProgress()
    if args.checked:
        overrides["checked"] = True
    experiment = Experiment.from_env(measurement, **overrides)

    print(delay_model_report())
    if args.simulate:
        print()
        print(simulation_report(measurement, experiment=experiment))
    if args.ablations:
        from .ablations import render_all

        print()
        print(render_all(measurement, experiment=experiment))
    if args.simulate or args.ablations:
        stats = experiment.stats
        if stats.points_requested:
            scheduler = stats.scheduler
            print(
                f"\n[runtime] {stats.points_requested} points, "
                f"{stats.points_executed} executed, "
                f"{stats.cache_hits} from cache, "
                f"[{stats.describe_sources()}] "
                f"{stats.wall_seconds:.1f}s "
                f"[{experiment.backend.name}: "
                f"{scheduler.chunks_completed} chunks, "
                f"{scheduler.steals} steals, "
                f"{stats.mean_worker_utilization:.0%} worker utilization] "
                f"[{stats.describe_specialization()}]"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
