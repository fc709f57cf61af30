#!/usr/bin/env python3
"""Watch congestion form: occupancy heat maps under adversarial traffic.

Runs transpose traffic on the 8x8 mesh and prints ASCII heat maps of
buffer occupancy for three routing policies.  Under XY routing the load
piles onto the diagonal band; O1TURN splits it across both orders;
adaptive routing flattens it almost completely.  The busiest routers are
then dumped in detail (VC states, routes, held resources) -- the same
tools you would reach for when debugging a stuck simulation.

Run:  python examples/congestion_atlas.py [--load 0.45] [--cycles 1500]
"""

import argparse

from repro.sim import (
    Network,
    RouterKind,
    SimConfig,
    busiest_routers,
    describe_router,
    occupancy_map,
)


def atlas(routing: str, load: float, cycles: int) -> None:
    network = Network(SimConfig(
        router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2, buffers_per_vc=4,
        injection_fraction=load, traffic_pattern="transpose",
        routing_function=routing, seed=3,
    ))
    network.run(cycles)
    # A bare Network measures every packet it generates, so the sinks'
    # latencies cover every delivery.
    latencies = [t for sink in network.sinks for t in sink.latencies]
    latency = (
        sum(latencies) / len(latencies) if latencies else float("nan")
    )
    print("=" * 60)
    print(f"routing = {routing}  (avg latency so far: {latency:.1f} cycles)")
    print(occupancy_map(network))
    print()
    hottest = busiest_routers(network, count=2)
    for router in hottest:
        print(describe_router(router))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.45,
                        help="offered load (fraction of capacity)")
    parser.add_argument("--cycles", type=int, default=1500)
    args = parser.parse_args()

    print(f"Transpose traffic at {args.load:.0%} of capacity, "
          f"{args.cycles} cycles\n")
    for routing in ("xy", "o1turn", "adaptive"):
        atlas(routing, args.load, args.cycles)
    print(
        "Reading the maps: '@'/'#' cells are nearly full input buffers.\n"
        "XY concentrates them along the transpose diagonal; o1turn halves\n"
        "the band; adaptive routing spreads load until the maps go quiet."
    )


if __name__ == "__main__":
    main()
