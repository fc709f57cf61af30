"""Benchmarks: the paper's proposed extensions, realised.

* torus vs mesh (other topologies);
* XY vs O1TURN vs minimal adaptive routing (other routing policies),
  with the footnote-5 speculative handling of adaptivity.
"""

from conftest import run_row


def test_topology_extension(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("topology",), rounds=1, iterations=1,
    )
    mesh = result.runs["8x8 mesh (paper)"][0].average_latency
    torus = result.runs["8x8 torus (dateline VCs)"][0].average_latency
    benchmark.extra_info["mesh zero-load"] = round(mesh, 1)
    benchmark.extra_info["torus zero-load"] = round(torus, 1)
    # wrap links cut the average path by ~1.3 hops (~5 cycles at 4/hop)
    assert 3.0 < mesh - torus < 7.0
    record_result("ext_topology", result.render())


def test_routing_policy_extension(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("routing",), rounds=1, iterations=1,
    )
    xy = result.runs["xy (paper)"][0].average_latency
    o1turn = result.runs["o1turn"][0].average_latency
    adaptive = result.runs["adaptive (escape VC)"][0].average_latency
    benchmark.extra_info["xy"] = round(xy, 1)
    benchmark.extra_info["o1turn"] = round(o1turn, 1)
    benchmark.extra_info["adaptive"] = round(adaptive, 1)
    # transpose punishes oblivious XY; load balancing helps, adaptivity
    # helps most.
    assert o1turn < xy
    assert adaptive < xy
    record_result("ext_routing", result.render())


def test_pipeline_depth_cost(benchmark, record_result):
    """Figure 11 closed into Section 5: what the straddling allocators'
    extra stages actually cost in network latency."""
    result = benchmark.pedantic(
        run_row, args=("pipeline_depth",), rounds=1, iterations=1,
    )
    zero_loads = {
        label: runs[0].average_latency for label, runs in result.runs.items()
    }
    for label, value in zero_loads.items():
        benchmark.extra_info[label] = round(value, 1)
    base = zero_loads["+0 allocation stage(s)"]
    one = zero_loads["+1 allocation stage(s)"]
    assert 5.0 < one - base < 8.0  # ~6.3 hops x 1 cycle
    record_result("ext_pipeline_depth", result.render())


def test_many_vcs_extension(benchmark, record_result):
    result = benchmark.pedantic(
        run_row, args=("many_vcs",), rounds=1, iterations=1,
    )
    for label, runs in result.runs.items():
        benchmark.extra_info[label] = round(runs[0].average_latency, 1)
    two = result.runs["2 VCs x 8 bufs (4-stage)"]
    sixteen = result.runs["16 VCs x 4 bufs (5-stage)"]
    assert sixteen[0].average_latency > two[0].average_latency
    record_result("ext_many_vcs", result.render())
