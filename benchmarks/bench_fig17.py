"""Benchmark: Figure 17 -- single-cycle vs pipelined router models.

Paper shape: the unit-latency model reports ~16-cycle zero-load latency
(vs 29-36 pipelined) and saturates later (65% vs 50/55%) because it
ignores pipeline delay and buffer turnaround.
"""

from conftest import BENCH_LOADS, attach_curves, run_row

from repro.experiments.sweep import find_saturation


def test_fig17(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("fig17",), kwargs={"loads": BENCH_LOADS},
        rounds=1, iterations=1,
    )

    curves = {spec.label: curve for spec, curve in result.curves}
    single_wh = curves["WH single-cycle (8 bufs)"]
    single_vc = curves["VC single-cycle (2vcsX4bufs)"]
    pipelined_wh = curves["WH (8 bufs)"]
    pipelined_vc = curves["VC (2vcsX4bufs)"]

    # the unit-latency model's optimistic zero-load latency (~16 cycles)
    assert abs(single_wh.zero_load_latency() - 16.5) < 1.5
    assert abs(single_vc.zero_load_latency() - 16.5) < 1.5
    assert single_vc.zero_load_latency() < 0.55 * pipelined_vc.zero_load_latency()
    # ...and its optimistic throughput
    assert find_saturation(single_vc) >= find_saturation(pipelined_vc)
    assert find_saturation(single_wh) >= find_saturation(pipelined_wh)

    attach_curves(benchmark, result)
    record_result("fig17", result.render())
