"""Benchmarks: ablations of the paper's fixed design choices.

* separable vs maximum-matching allocation (Section 3.2's efficiency
  trade-off);
* matrix vs round-robin arbiters;
* buffers/VC across the credit-loop boundary (the Figure 14/15
  mechanism, isolated);
* flow-control ranking across traffic patterns (footnote 13's premise).
"""

from conftest import narrowed, run_row, run_rows

from repro.experiments.catalog import get_row


def test_allocator_ablation(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("allocator",), kwargs={"loads": (0.45, 0.55)},
        rounds=1, iterations=1,
    )
    separable = result.runs["separable (paper)"]
    maximum = result.runs["maximum matching"]
    for sep_run, max_run in zip(separable, maximum):
        benchmark.extra_info[f"separable @{sep_run.injection_fraction}"] = round(
            sep_run.average_latency, 1
        )
        benchmark.extra_info[f"maximum @{max_run.injection_fraction}"] = round(
            max_run.average_latency, 1
        )
        # "a small amount of allocation efficiency": the exact matcher
        # helps, but only modestly below saturation.
        assert max_run.average_latency <= sep_run.average_latency * 1.10
    record_result("ablation_allocator", result.render())


def test_arbiter_ablation(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("arbiter",), kwargs={"loads": (0.45,)},
        rounds=1, iterations=1,
    )
    matrix = result.runs["matrix (paper)"][0].average_latency
    round_robin = result.runs["round-robin"][0].average_latency
    benchmark.extra_info["matrix"] = round(matrix, 1)
    benchmark.extra_info["round-robin"] = round(round_robin, 1)
    assert abs(matrix - round_robin) < 0.3 * matrix
    record_result("ablation_arbiter", result.render())


def test_buffer_depth_sweep(benchmark, record_result):
    curves = tuple(
        spec for spec in get_row("buffer_depth").curves
        if spec.config.buffers_per_vc in (2, 3, 4, 5, 8)
    )
    result = benchmark.pedantic(
        run_row, args=("buffer_depth",),
        kwargs={"loads": (0.5,), "curves": curves},
        rounds=1, iterations=1,
    )
    latency = {
        label: runs[0].average_latency for label, runs in result.runs.items()
    }
    for label, value in latency.items():
        benchmark.extra_info[label] = round(value, 1)
    # scarce buffering is costly; past the loop, returns flatten.
    assert latency["2 buffers/VC"] > latency["5 buffers/VC"]
    assert latency["5 buffers/VC"] < latency["2 buffers/VC"] * 0.9
    record_result("ablation_buffers", result.render())


def test_traffic_patterns(benchmark, record_result):
    patterns = ("uniform", "transpose", "bit_complement")
    studies = benchmark.pedantic(
        run_rows,
        args=tuple(
            narrowed(f"traffic_{pattern}", loads=(0.3,))
            for pattern in patterns
        ),
        rounds=1, iterations=1,
    )
    sections = []
    for pattern in patterns:
        result = studies[f"traffic_{pattern}"]
        wormhole = result.runs["wormhole (8 bufs)"][0].average_latency
        spec = result.runs["specVC (2vcsX4bufs)"][0].average_latency
        benchmark.extra_info[f"{pattern} WH"] = round(wormhole, 1)
        benchmark.extra_info[f"{pattern} specVC"] = round(spec, 1)
        # footnote 13: the flow-control ranking is pattern-invariant.
        assert spec <= wormhole * 1.05, pattern
        sections.append(result.render())
    record_result("ablation_traffic", "\n\n".join(sections))


def test_speculation_priority(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("speculation_priority",), kwargs={"loads": (0.55,)},
        rounds=1, iterations=1,
    )
    conservative = result.runs["conservative (paper)"][0].average_latency
    equal = result.runs["equal priority"][0].average_latency
    benchmark.extra_info["conservative"] = round(conservative, 1)
    benchmark.extra_info["equal"] = round(equal, 1)
    # Section 3.1: prioritised speculation never hurts; dropping the
    # priority can only match or worsen things.
    assert conservative <= equal * 1.05
    record_result("ablation_spec_priority", result.render())


def test_vc_partition(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("vc_partition",), rounds=1, iterations=1,
    )
    latency = {
        label: runs[0].average_latency for label, runs in result.runs.items()
    }
    for label, value in latency.items():
        benchmark.extra_info[label] = round(value, 1)
    # 2-flit VC buffers sit far below the 5-cycle credit loop.
    assert latency["8vcs x 2bufs"] > min(
        latency["2vcs x 8bufs"], latency["4vcs x 4bufs"]
    )
    record_result("ablation_vc_partition", result.render())


def test_flow_control_trio(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("flow_control_trio",), kwargs={"loads": (0.45,)},
        rounds=1, iterations=1,
    )
    wormhole = result.runs["wormhole"][0].average_latency
    vct = result.runs["virtual cut-through"][0].average_latency
    spec = result.runs["speculative VC"][0].average_latency
    benchmark.extra_info["wormhole"] = round(wormhole, 1)
    benchmark.extra_info["vct"] = round(vct, 1)
    benchmark.extra_info["specVC"] = round(spec, 1)
    # with buffers near the packet size: spec VC < wormhole < VCT.
    assert spec < wormhole < vct
    record_result("ablation_flow_control_trio", result.render())


def test_burstiness(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("burstiness",), rounds=1, iterations=1,
    )
    for label, runs in result.runs.items():
        benchmark.extra_info[label] = round(runs[0].average_latency, 1)
    # bursts raise latency at equal mean load; the flow-control ranking
    # survives.
    assert (
        result.runs["wormhole, bursty"][0].average_latency
        > result.runs["wormhole, constant"][0].average_latency
    )
    assert (
        result.runs["specVC, bursty"][0].average_latency
        <= result.runs["wormhole, bursty"][0].average_latency * 1.05
    )
    record_result("ablation_burstiness", result.render())
