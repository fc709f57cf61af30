"""Benchmark: Figure 18 -- credit propagation delay 1 vs 4 cycles.

Paper shape: raising credit propagation from 1 to 4 cycles costs the
speculative VC router (2 VCs x 4 buffers) ~18% of saturation throughput
(55% -> 45%), while zero-load latency is barely affected.
"""

from conftest import attach_curves, run_row

from repro.experiments.sweep import find_saturation

LOADS = (0.05, 0.30, 0.45, 0.55, 0.62)


def test_fig18(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("fig18",), kwargs={"loads": LOADS},
        rounds=1, iterations=1,
    )

    curves = {spec.label: curve for spec, curve in result.curves}
    fast = curves["specVC, 1-cycle credits"]
    slow = curves["specVC, 4-cycle credits"]

    # credit latency does not directly affect zero-load latency...
    assert abs(fast.zero_load_latency() - slow.zero_load_latency()) < 6.0
    # ...but costs saturation throughput
    assert find_saturation(slow) < find_saturation(fast)

    attach_curves(benchmark, result)
    record_result("fig18", result.render())
