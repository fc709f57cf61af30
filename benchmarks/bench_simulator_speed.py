"""Benchmark: raw simulator throughput (cycles/second).

Not a paper figure -- a performance-regression guard for the cycle
kernel itself.  pytest-benchmark runs these with proper rounds (unlike
the single-shot figure benches), so changes to the hot path (router
phases, allocators, channels) show up as timing regressions.

Run as a script to measure the fast vs reference steppers and maintain
``benchmarks/BENCH_simulator.json``::

    PYTHONPATH=src python benchmarks/bench_simulator_speed.py            # report
    PYTHONPATH=src python benchmarks/bench_simulator_speed.py --update   # rewrite JSON
    PYTHONPATH=src python benchmarks/bench_simulator_speed.py --check    # CI gate

``--check`` compares the *fast/reference speedup ratio* (not absolute
cycles/sec, which vary with hardware) against the committed baseline
and exits non-zero if any load's ratio regressed by more than 30%.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.sim.network import Network

CYCLES = 120

#: Injection loads the script benchmark sweeps: light, moderate, and
#: near the speculative router's saturation point.
BENCH_LOADS = (0.1, 0.3, 0.42)
BENCH_JSON = Path(__file__).resolve().parent / "BENCH_simulator.json"

#: Allowed regression of the fast/reference speedup ratio before
#: ``--check`` fails (0.3 == 30%).
REGRESSION_TOLERANCE = 0.3

#: Absolute fast/reference speedup the specialized stepper must keep
#: delivering at the near-saturation load, independent of what the
#: committed baseline says.  This is the struct-of-arrays +
#: step-specialization acceptance bar: relative tolerance alone would
#: let the ratio decay 30% per accepted baseline refresh.
SPEEDUP_FLOOR = 1.5
SPEEDUP_FLOOR_LOAD = 0.42

#: Specialization-envelope variants benched at the near-saturation
#: load: the bitmask maximum-matching allocator, o1turn routing and
#: the equal-priority speculation ablation.  Their closures share less
#: machinery with the default separable/xy fast path, so each carries
#: its own absolute floor (lower than the default path's: maximum
#: matching does strictly more work per cycle in both steppers).
#: Default + maximum + equal run the conservative speculative kernel
#: under both switch closures and the equal kernel; each has a gated
#: number.
ENVELOPE_LOAD = 0.42
ENVELOPE_SPEEDUP_FLOOR = 1.3
ENVELOPE_VARIANTS = (
    ("maximum", dict(allocator_kind="maximum")),
    ("o1turn", dict(routing_function="o1turn")),
    ("equal", dict(speculation_priority="equal")),
)


def warmed_network(kind, vcs, load=0.3, stepper="fast", **overrides):
    network = Network(SimConfig(
        router_kind=kind, num_vcs=vcs, mesh_radix=8, buffers_per_vc=4,
        injection_fraction=load, seed=1, stepper=stepper, **overrides,
    ))
    network.run(200)  # reach steady state before timing
    return network


def _stepper_pair(load, cycles=600, rounds=12, **overrides):
    """Best-of-``rounds`` (fast, reference) throughput, interleaved.

    Best-of rather than mean: scheduler noise on shared machines only
    ever makes a round *slower*, so the fastest round is the least
    contaminated estimate.  The steppers alternate within each round
    (swapping who goes first every round) -- a burst of background load
    then taxes both sides of the ratio instead of whichever stepper
    happened to be running, which is what keeps the speedup ratio (the
    gated quantity) stable on noisy machines.  Many short rounds beat
    few long ones for the same reason: the quiet windows best-of needs
    only have to fit one short round per stepper.
    """
    fast_net = warmed_network(
        RouterKind.SPECULATIVE_VC, 2, load, "fast", **overrides
    )
    ref_net = warmed_network(
        RouterKind.SPECULATIVE_VC, 2, load, "reference", **overrides
    )
    best_fast = 0.0
    best_ref = 0.0
    for round_index in range(rounds):
        pair = ((fast_net, True), (ref_net, False))
        if round_index % 2:
            pair = pair[::-1]
        for network, is_fast in pair:
            t0 = time.perf_counter()
            network.run(cycles)
            elapsed = time.perf_counter() - t0
            throughput = cycles / elapsed
            if is_fast:
                best_fast = max(best_fast, throughput)
            else:
                best_ref = max(best_ref, throughput)
    return best_fast, best_ref


def _point(load, fast, reference, variant=None):
    point = {
        "load": load,
        "fast_cycles_per_sec": round(fast, 1),
        "reference_cycles_per_sec": round(reference, 1),
        "speedup_fast_vs_reference": round(fast / reference, 3),
    }
    if variant is not None:
        point["variant"] = variant
    return point


def _point_key(point):
    """(variant, load) identity -- baseline points have no variant."""
    return (point.get("variant"), point["load"])


def _point_label(point):
    variant = point.get("variant")
    prefix = f"{variant} " if variant else ""
    return f"{prefix}load {point['load']}"


def measure():
    """Measure both steppers at each load, then the envelope variants."""
    points = []
    for load in BENCH_LOADS:
        fast, reference = _stepper_pair(load)
        points.append(_point(load, fast, reference))
    for variant, overrides in ENVELOPE_VARIANTS:
        fast, reference = _stepper_pair(ENVELOPE_LOAD, **overrides)
        points.append(_point(ENVELOPE_LOAD, fast, reference, variant))
    return points


def check(points, committed):
    """Return error messages for any load whose speedup regressed >30%.

    Gates on the fast/reference *ratio* so the check is insensitive to
    the absolute speed of the machine running it.  The near-saturation
    load additionally carries the absolute :data:`SPEEDUP_FLOOR` -- the
    specialized stepper's reason to exist is saturation-speed, so a
    committed baseline cannot ratchet that bar down.
    """
    errors = []
    committed_by_key = {_point_key(p): p for p in committed["points"]}
    for point in points:
        speedup = point["speedup_fast_vs_reference"]
        label = _point_label(point)
        if "variant" in point:
            absolute_floor, bar = ENVELOPE_SPEEDUP_FLOOR, "envelope"
        elif point["load"] == SPEEDUP_FLOOR_LOAD:
            absolute_floor, bar = SPEEDUP_FLOOR, "near-saturation"
        else:
            absolute_floor = None
        if absolute_floor is not None and speedup < absolute_floor:
            errors.append(
                f"{label}: fast/reference speedup "
                f"{speedup:.3f} below the absolute floor "
                f"{absolute_floor:.2f} for the {bar} load"
            )
        baseline = committed_by_key.get(_point_key(point))
        if baseline is None:
            errors.append(f"{label}: no committed baseline")
            continue
        floor = (baseline["speedup_fast_vs_reference"]
                 * (1.0 - REGRESSION_TOLERANCE))
        if speedup < floor:
            errors.append(
                f"{label}: fast/reference speedup "
                f"{speedup:.3f} below floor "
                f"{floor:.3f} (committed "
                f"{baseline['speedup_fast_vs_reference']:.3f} - 30%)"
            )
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Simulator throughput benchmark (fast vs reference stepper)"
    )
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {BENCH_JSON.name} with fresh measurements",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail if the fast/reference speedup regressed >30% "
             "vs the committed baseline",
    )
    args = parser.parse_args(argv)

    committed = None
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())

    points = measure()
    for point in points:
        print(
            f"{_point_label(point):<18}: fast "
            f"{point['fast_cycles_per_sec']:8.1f} c/s, reference "
            f"{point['reference_cycles_per_sec']:8.1f} c/s, speedup "
            f"{point['speedup_fast_vs_reference']:.2f}x"
        )

    if args.check:
        if committed is None:
            print(f"error: {BENCH_JSON} missing; run with --update first",
                  file=sys.stderr)
            return 2
        errors = check(points, committed)
        if errors:
            for error in errors:
                print(f"PERF REGRESSION: {error}", file=sys.stderr)
            return 1
        print("perf check ok: speedups within 30% of committed baseline")
        return 0

    if args.update:
        payload = {
            "benchmark": "8x8 speculative-VC mesh, 2 VCs, seed 1, "
                         "steady-state cycles/sec (best of 12 x 600 cycles, "
                         "fast/reference rounds interleaved); variant points "
                         "swap in the maximum-matching allocator, o1turn "
                         "routing or equal-priority speculation at the "
                         "near-saturation load",
            "points": points,
        }
        # The seed-baseline section is frozen evidence measured once
        # against the pre-event-wheel stepper; carry it forward.
        if committed and "seed_baseline" in committed:
            payload["seed_baseline"] = committed["seed_baseline"]
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())


@pytest.mark.parametrize(
    "kind,vcs,overrides",
    [
        (RouterKind.WORMHOLE, 1, {}),
        (RouterKind.VIRTUAL_CHANNEL, 2, {}),
        (RouterKind.SPECULATIVE_VC, 2, {}),
        (RouterKind.SPECULATIVE_VC, 2, dict(allocator_kind="maximum")),
        (RouterKind.SPECULATIVE_VC, 2, dict(routing_function="o1turn")),
    ],
    ids=["wormhole", "vc", "spec_vc", "spec_vc_maximum", "spec_vc_o1turn"],
)
def test_cycle_throughput(benchmark, kind, vcs, overrides):
    network = warmed_network(kind, vcs, **overrides)

    def run_block():
        network.run(CYCLES)

    benchmark.pedantic(run_block, rounds=5, iterations=1)
    benchmark.extra_info["cycles_per_round"] = CYCLES
    benchmark.extra_info["flits_ejected"] = network.total_flits_ejected()
    # sanity: traffic kept flowing during the timed region
    assert network.total_flits_ejected() > 0
