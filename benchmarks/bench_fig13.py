"""Benchmark: Figure 13 -- latency-throughput with 8 buffers per port.

Paper shape: zero-load 29 (WH) / 36 (VC) / 30 (specVC); saturation
ordering WH < VC < specVC (the paper quotes ~40% / ~50% / ~55%).
"""

from conftest import BENCH_LOADS, attach_curves, run_row

from repro.experiments.sweep import find_saturation


def test_fig13(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("fig13",), kwargs={"loads": BENCH_LOADS},
        rounds=1, iterations=1,
    )

    curves = {spec.label: curve for spec, curve in result.curves}
    wormhole = curves["WH (8 bufs)"]
    vc = curves["VC (2vcsX4bufs)"]
    spec_vc = curves["specVC (2vcsX4bufs)"]

    # zero-load anchors (+-1.5 cycles of the paper's figures)
    assert abs(wormhole.zero_load_latency() - 29) < 1.5
    assert abs(vc.zero_load_latency() - 35.5) < 1.6
    assert abs(spec_vc.zero_load_latency() - 29.5) < 1.6
    # saturation ordering
    assert find_saturation(wormhole) <= find_saturation(vc)
    assert find_saturation(wormhole) < find_saturation(spec_vc)

    attach_curves(benchmark, result)
    record_result("fig13", result.render())
