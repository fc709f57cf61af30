"""The ``estimate`` subcommand: hybrid surrogate-first query serving.

::

    python -m repro.experiments estimate --router wormhole --load 0.3
    python -m repro.experiments estimate --loads 0.1,0.2,0.3 --json
    python -m repro.experiments estimate --calibrate --cache
    python -m repro.experiments estimate --serve

Batch mode answers each requested load immediately -- from the
analytical surrogate (microseconds, no cycle kernel) or the result
cache -- and schedules cycle-accurate refinement in the background;
``--serve`` runs a long-lived read-query-answer loop over stdin
instead.  See ``docs/SURROGATE.md`` for the model and serving
semantics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from ..runtime.estimator import Estimator
from ..sim.config import MeasurementConfig, RouterKind, SimConfig
from ..surrogate import Calibration

__all__ = ["estimate_command"]

#: stdin keys the ``--serve`` loop accepts, mapped to config fields.
_SERVE_KEYS = {
    "router": ("router_kind", lambda v: RouterKind(v)),
    "load": ("injection_fraction", float),
    "radix": ("mesh_radix", int),
    "vcs": ("num_vcs", int),
    "buffers": ("buffers_per_vc", int),
    "topology": ("topology", str),
    "routing": ("routing_function", str),
    "allocator": ("allocator_kind", str),
    "seed": ("seed", int),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments estimate",
        description="Answer latency/throughput queries from the "
                    "analytical surrogate + result cache, with "
                    "background cycle-accurate refinement.",
    )
    parser.add_argument(
        "--router", default="speculative_vc", metavar="KIND",
        choices=[kind.value for kind in RouterKind],
        help="router kind (default speculative_vc)",
    )
    parser.add_argument(
        "--radix", type=int, default=8,
        help="mesh/torus radix k (default 8)",
    )
    parser.add_argument(
        "--vcs", type=int, default=None,
        help="virtual channels per port (default 2 for VC routers, 1 "
             "otherwise)",
    )
    parser.add_argument(
        "--buffers", type=int, default=None,
        help="flit buffers per VC (default: config default)",
    )
    parser.add_argument(
        "--topology", default="mesh", choices=("mesh", "torus"),
        help="network topology (default mesh)",
    )
    parser.add_argument(
        "--routing", default=None, metavar="FN",
        help="routing function: xy, yx, o1turn, adaptive",
    )
    parser.add_argument(
        "--allocator", default=None, metavar="KIND",
        help="allocator kind for VC routers",
    )
    parser.add_argument(
        "--load", type=float, default=0.42,
        help="offered load as a fraction of capacity (default 0.42)",
    )
    parser.add_argument(
        "--loads", default=None, metavar="L1,L2,...",
        help="comma-separated load list (overrides --load)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="simulation seed for refinement runs (default 42)",
    )
    parser.add_argument(
        "--sample-packets", type=int, default=None,
        help="override the measured packet sample size for refinement",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="refinement worker processes (default $REPRO_WORKERS)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="refinement backend: serial, process[:N]",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result-cache directory (default $REPRO_CACHE_DIR or "
             "~/.cache/repro-sim); the cache is always on for the "
             "estimator -- it is where refinements land",
    )
    parser.add_argument(
        "--calibration", type=Path, default=None, metavar="FILE",
        help="load fitted surrogate coefficients from this JSON file",
    )
    parser.add_argument(
        "--calibrate", action="store_true",
        help="fit the surrogate against the cached corpus first "
             "(simulates missing corpus points; cache makes re-runs "
             "instant), and use + report the fitted coefficients; "
             "with --calibration FILE, write the fit there",
    )
    parser.add_argument(
        "--no-refine", action="store_true",
        help="answer from surrogate/cache only; never simulate",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block on cycle-accurate simulation instead of answering "
             "from the surrogate (answers become source=simulated)",
    )
    parser.add_argument(
        "--drain", action="store_true",
        help="wait for background refinements to finish before exiting",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit answers as JSON lines instead of text",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="long-running mode: read 'key=value ...' queries from "
             f"stdin (keys: {' '.join(_SERVE_KEYS)}), answer each "
             "line; 'quit' or EOF exits",
    )
    return parser


def _base_config(args) -> SimConfig:
    kind = RouterKind(args.router)
    overrides = {}
    if args.vcs is not None:
        overrides["num_vcs"] = args.vcs
    else:
        overrides["num_vcs"] = 2 if kind.uses_vcs else 1
    if args.buffers is not None:
        overrides["buffers_per_vc"] = args.buffers
    if args.routing is not None:
        overrides["routing_function"] = args.routing
    if args.allocator is not None:
        overrides["allocator_kind"] = args.allocator
    return SimConfig(
        router_kind=kind,
        mesh_radix=args.radix,
        injection_fraction=args.load,
        topology=args.topology,
        seed=args.seed,
        **overrides,
    )


def _emit(answer, as_json: bool) -> None:
    if as_json:
        print(json.dumps(answer.to_dict(), sort_keys=True))
    else:
        print(answer.describe())


def _serve_loop(estimator: Estimator, base: SimConfig, args) -> int:
    """Read one query per stdin line, answer immediately."""
    print(
        "[serve] ready; query lines like 'router=wormhole load=0.3' "
        "(empty line repeats, 'quit' exits)",
        file=sys.stderr,
    )
    last = base
    for line in sys.stdin:
        line = line.strip()
        if line in ("quit", "exit"):
            break
        if line.startswith("#"):
            continue
        try:
            overrides = {}
            for token in line.split():
                key, _, value = token.partition("=")
                if key not in _SERVE_KEYS:
                    raise ValueError(
                        f"unknown key {key!r} (expected one of "
                        f"{', '.join(sorted(_SERVE_KEYS))})"
                    )
                field_name, parse = _SERVE_KEYS[key]
                overrides[field_name] = parse(value)
            if "router_kind" in overrides and "num_vcs" not in overrides:
                # Switching router families implies a sensible VC
                # count unless the query pins one (SimConfig validates
                # at construction, so decide before replace()).
                overrides["num_vcs"] = (
                    max(2, last.num_vcs)
                    if overrides["router_kind"].uses_vcs else 1
                )
            config = replace(last, **overrides)
            answer = estimator.query(
                config, wait=args.wait,
                refine=not args.no_refine,
            )
        except (ValueError, KeyError) as error:
            print(f"[serve] error: {error}", file=sys.stderr)
            continue
        last = config
        _emit(answer, args.json)
        sys.stdout.flush()
    print(estimator.summary(), file=sys.stderr)
    return 0


def estimate_command(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    measurement = MeasurementConfig()
    if args.sample_packets is not None:
        try:
            # replace() re-runs __post_init__; assigning the field
            # would let a sample of 0 packets through to the cache.
            measurement = replace(
                measurement, sample_packets=args.sample_packets
            )
        except ValueError as error:
            parser.error(f"--sample-packets: {error}")

    calibration = None
    if args.calibration is not None and args.calibration.exists():
        calibration = Calibration.from_dict(
            json.loads(args.calibration.read_text())
        )

    estimator = Estimator(
        measurement,
        cache=args.cache_dir if args.cache_dir is not None else True,
        backend=args.backend,
        workers=args.workers,
        calibration=calibration,
        refine=not args.no_refine,
    )
    try:
        if args.calibrate:
            fitted = estimator.calibrate()
            print(f"[estimate] {fitted.describe()}", file=sys.stderr)
            if args.calibration is not None:
                args.calibration.write_text(
                    json.dumps(fitted.to_dict(), indent=2, sort_keys=True)
                )
                print(
                    f"[estimate] calibration written to "
                    f"{args.calibration}",
                    file=sys.stderr,
                )

        base = _base_config(args)
        if args.serve:
            return _serve_loop(estimator, base, args)

        loads = (
            [float(x) for x in args.loads.split(",")]
            if args.loads else [args.load]
        )
        for load in loads:
            answer = estimator.query(
                replace(base, injection_fraction=load), wait=args.wait,
            )
            _emit(answer, args.json)
        if args.drain:
            estimator.drain()
        print(estimator.summary(), file=sys.stderr)
        return 0
    finally:
        estimator.close()


if __name__ == "__main__":
    raise SystemExit(estimate_command())
