"""Benchmark: Figure 14 -- 16 buffers per port, 2 VCs.

Paper shape: zero-load 29 / 35 / 29; saturation ~50% / ~65% / ~70%, the
speculative router's headline ~40% throughput gain over wormhole.
"""

from conftest import BENCH_LOADS_HIGH, attach_curves, run_row

from repro.experiments.sweep import find_saturation


def test_fig14(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("fig14",), kwargs={"loads": BENCH_LOADS_HIGH},
        rounds=1, iterations=1,
    )

    curves = {spec.label: curve for spec, curve in result.curves}
    wormhole = curves["WH (16 bufs)"]
    vc = curves["VC (2vcsX8bufs)"]
    spec_vc = curves["specVC (2vcsX8bufs)"]

    assert abs(wormhole.zero_load_latency() - 29) < 1.5
    assert abs(vc.zero_load_latency() - 35) < 1.6
    assert abs(spec_vc.zero_load_latency() - 29) < 1.6
    # the speculative router matches wormhole latency but sustains
    # substantially higher load
    wh_sat = find_saturation(wormhole)
    assert find_saturation(spec_vc) >= find_saturation(vc) >= wh_sat
    assert find_saturation(spec_vc) > wh_sat

    attach_curves(benchmark, result)
    record_result("fig14", result.render())
