"""Benchmark: Figure 15 -- 16 buffers per port, 4 VCs.

Paper shape: with 4 VCs x 4 buffers both VC routers reach ~70% of
capacity -- sufficient buffering covers the credit loop, so speculation's
shorter pipeline no longer buys throughput (only its latency advantage
remains).
"""

from conftest import BENCH_LOADS_HIGH, attach_curves, run_row

from repro.experiments.sweep import find_saturation


def test_fig15(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("fig15",), kwargs={"loads": BENCH_LOADS_HIGH},
        rounds=1, iterations=1,
    )

    curves = {spec.label: curve for spec, curve in result.curves}
    vc = curves["VC (4vcsX4bufs)"]
    spec_vc = curves["specVC (4vcsX4bufs)"]

    # throughput parity between speculative and non-speculative
    assert abs(find_saturation(vc) - find_saturation(spec_vc)) <= 0.101
    # the latency advantage remains
    assert spec_vc.zero_load_latency() < vc.zero_load_latency()

    attach_curves(benchmark, result)
    record_result("fig15", result.render())
