#!/usr/bin/env python3
"""Beyond the paper: torus topology, O1TURN, and adaptive routing.

The paper's conclusion lists "other topologies" and "other routing
policies" as extensions.  This example runs both, built on the same
speculative VC router:

1. **8x8 torus** with dateline VC classes: wrap links shorten the
   average path from 5.33 to 4.06 hops, cutting zero-load latency by
   ~5 cycles, while dateline classes keep the rings deadlock-free.
2. **Routing policies under transpose traffic**: the paper's XY order
   vs O1TURN (per-packet XY/YX with VC-class separation) vs minimal
   adaptive routing with a Duato escape VC -- the speculative allocator
   handles the adaptive case exactly as the paper's footnote 5 option
   (b) describes: routing returns a single port and blocked heads
   re-iterate the routing stage.

Both are rows of the experiment catalog (``topology`` and ``routing``
in :mod:`repro.experiments.catalog`), run here through one Experiment.

Run:  python examples/beyond_the_paper.py [--quick]
"""

import argparse

from repro.experiments.catalog import get_row, run
from repro.runtime import Experiment
from repro.sim import MeasurementConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller samples (~30 s)")
    args = parser.parse_args()

    measurement = MeasurementConfig(
        warmup_cycles=300 if args.quick else 500,
        sample_packets=400 if args.quick else 1000,
        max_cycles=15_000,
        drain_cycles=4_000,
    )

    results = run(
        [get_row("topology"), get_row("routing")],
        Experiment.from_env(measurement),
    )
    print(results["topology"].render())
    print(
        "\n(Loads are fractions of each topology's own capacity:"
        "\n 0.5 flits/node/cycle on the mesh, 1.0 on the torus.)\n"
    )
    print(results["routing"].render())
    print(
        "\nUnder transpose traffic, o1turn roughly halves the worst"
        "\nchannel load by splitting packets across XY and YX orders,"
        "\nand minimal adaptive routing (escape VC + re-iteration)"
        "\navoids the hotspots almost entirely."
    )


if __name__ == "__main__":
    main()
