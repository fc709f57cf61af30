"""Self-tests of the perf ledger's harness (seconds, not minutes).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They call the workload classes with tiny arguments instead of adding a
scale flag to the command line: the shipped command always measures the
same work.
"""

import json
import re
from dataclasses import replace

import pytest

import compare
import ledger
import report
import run
import tabulate
import workloads
from repro.runtime.backends import SerialBackend
from repro.surrogate import corpus_configs, corpus_points

SPEC = ledger.load_spec()
TINY_8X8 = dict(warmup_cycles=50, sample_packets=30, max_cycles=1_500,
                drain_cycles=300)
TINY_4X4 = dict(warmup_cycles=50, sample_packets=40, max_cycles=2_000,
                drain_cycles=500)
# Seed 2: the goldens under golden/ describe seed 1 at bench scale.
SEED = 2


def tiny(cls, **attributes):
    return type(f"Tiny{cls.__name__}", (cls,), attributes)


TINY_WORKLOADS = [
    tiny(workloads.FigsCold, scale=TINY_8X8),
    tiny(workloads.FigsParallel, scale=TINY_8X8),
    tiny(workloads.FigsWarm, scale=TINY_8X8, min_passes=3),
    tiny(workloads.KernelSaturated, cycles_per_round=60, min_passes=2),
    tiny(workloads.KernelLight, cycles_per_round=120, min_passes=2),
    tiny(workloads.EstimateServing, scale=TINY_4X4, queries_per_round=300,
         min_passes=2),
    tiny(workloads.LintSelf, target=ledger.ROOT / "src" / "repro" / "delaymodel",
         warm_passes=1, min_passes=2),
]


def raw_record(workload_class, scratch, trace=True):
    """What run.py's parent would write for one workload."""
    workload = workload_class(SEED, scratch / workload_class.name)
    workload.setup()
    record = workloads.measure(workload, seconds=0, trace=trace)
    record["setup_samples_s"] = [0.5]
    record["stamp"] = ledger.machine_stamp(SEED)
    record["stamp"].update(workers=1, loadavg_end=0.0)
    if trace:
        record["per_layer"].update({
            "experiments.import_s": 0.2,
            "host.loadavg_start": 0.0, "host.loadavg_end": 0.0,
        })
    return record


@pytest.fixture(scope="module")
def summary(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("ledger")
    records = [raw_record(cls, scratch) for cls in TINY_WORKLOADS]
    return tabulate.summarize(records, SPEC)


# ---------------------------------------------------------------------------
# Schema.
# ---------------------------------------------------------------------------

def test_contract_limits():
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = ledger.metric_table(SPEC, "end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_every_workload_reports_every_end_to_end_metric(summary):
    assert set(summary["workloads"]) == set(workloads.WORKLOADS)
    for entry in summary["workloads"].values():
        assert set(entry["end_to_end"]) == set(
            ledger.metric_table(SPEC, "end_to_end")
        )
        for measured in entry["end_to_end"].values():
            assert measured["value"] > 0 and measured["unit"]


def test_every_per_layer_metric_has_a_workload_that_measures_it(summary):
    # tabulate refuses a metric BENCHMARK.json does not name; this is the
    # other direction: no name in BENCHMARK.json that nothing produces.
    produced = set()
    for entry in summary["workloads"].values():
        produced.update(entry["per_layer"])
    assert produced == set(ledger.metric_table(SPEC, "per_layer"))


def test_driver_line_has_exactly_the_contract_keys(summary):
    entry = summary["workloads"]["kernel_light"]
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.driver_line(entry, SPEC, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
        assert all(
            isinstance(m["value"], (int, float)) for m in line["metrics"].values()
        )
    assert line["correct"] is True and line["attempted"] >= 1


def test_report_names_every_metric_with_its_unit(summary):
    text = report.render(summary, SPEC)
    for entry in summary["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for name in entry[kind]:
                assert f"`{name}`" in text


def test_the_checks_the_issue_lists_run(summary):
    ran = {
        name: {check["name"] for check in entry["checks"]}
        for name, entry in summary["workloads"].items()
    }
    assert all("passes_agree" in checks for checks in ran.values())
    assert "warm_equals_cold" in ran["figs_warm"]
    assert "parallel_equals_serial" in ran["figs_parallel"]
    assert "conservation_spec_vc" in ran["kernel_saturated"]
    assert "fit_within_envelope" in ran["estimate_serving"]
    assert {"no_findings", "warm_reanalyses_nothing"} <= ran["lint_self"]
    # Same batch, same seed: the three figure workloads agree exactly.
    digests = {summary["workloads"][w]["result_digest"]
               for w in ("figs_cold", "figs_parallel", "figs_warm")}
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# Seeds.
# ---------------------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.kernel_configs(0.42, 3) == workloads.kernel_configs(0.42, 3)
    assert workloads.kernel_configs(0.42, 3) != workloads.kernel_configs(0.42, 4)
    classes = corpus_configs(seed=3)
    corpus = corpus_points(classes)
    assert workloads.query_mix(corpus, classes, 3, 200) == \
        workloads.query_mix(corpus, classes, 3, 200)
    assert workloads.query_mix(corpus, classes, 3, 200) != \
        workloads.query_mix(corpus, classes, 4, 200)
    # Held back means never simulated for the fit, even seed aside.
    held_back = workloads.held_back_points(classes, 4)
    assert len(held_back) == len(corpus) - len(classes)
    assert not [p for p in held_back if replace(p, seed=3) in corpus]


# ---------------------------------------------------------------------------
# Failures are counted, not fatal.
# ---------------------------------------------------------------------------

class FailsOnce(SerialBackend):
    """Raises on one call of ``execute`` and works on every other."""

    def __init__(self, fail_on_call):
        self.calls = 0
        self.fail_on_call = fail_on_call

    def execute(self, queue, on_result):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise RuntimeError("injected failure")
        super().execute(queue, on_result)


def test_a_raising_point_is_counted_and_the_run_finishes(tmp_path, monkeypatch):
    # No accuracy checks: a 30-packet sample is not near the paper's numbers,
    # and this test is about the pass that raised.
    injected = tiny(workloads.FigsCold, scale=TINY_8X8, min_passes=2,
                    backend=FailsOnce(fail_on_call=3),
                    checks=lambda self, passes: [])
    record = raw_record(injected, tmp_path, trace=False)
    assert len(record["passes"]) == 1 and len(record["errors"]) == 1
    assert "injected failure" in record["errors"][0]
    entry = tabulate.summarize_record(record, SPEC)
    assert entry["failed"] == 32 and 0 < entry["fail_share"] < 1
    assert entry["correct"] is False
    assert json.loads(run.driver_line(entry, SPEC, False))["failed"] == 32

    # ...and the command exits non-zero on it, after printing the result.
    monkeypatch.setattr(run, "run_workload", lambda name, args: record)
    assert run.main(["--workload", "figs_cold", "--out", str(tmp_path / "out")]) == 1
    assert (tmp_path / "out" / "summary.csv").exists()


# ---------------------------------------------------------------------------
# Spans and digests.
# ---------------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    tracer = ledger.Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.add("callback", 1.0, 1.5)
    own = ledger.self_times(tracer.spans)
    outer, inner, callback = tracer.spans
    assert inner["parent"] == callback["parent"] == outer["id"]
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]) - 0.5
    )
    assert ledger.Tracer(False).span("x").__enter__() is None


def test_digest_ignores_wall_clock_fields():
    from repro.sim.instrumentation import RunCounters

    one = RunCounters(sa_grants=5, wall_seconds={"total": 1.0})
    other = RunCounters(sa_grants=5, wall_seconds={"total": 2.0},
                        routers_specialized=64)
    assert ledger.digest(one) == ledger.digest(other)
    assert ledger.digest(one) != ledger.digest(RunCounters(sa_grants=6))


# ---------------------------------------------------------------------------
# Comparator.
# ---------------------------------------------------------------------------

def stat(value, low=None, high=None, spread=0.0, n=5):
    return {"value": value, "unit": "s", "min": low or value,
            "max": high or value, "n": n, "spread": spread}


def test_judge_applies_bound_and_direction():
    assert compare.judge(stat(10), stat(11.6), "lower", 0.15) == "regressed"
    assert compare.judge(stat(10), stat(11.4), "lower", 0.15) == "unchanged"
    assert compare.judge(stat(10), stat(8), "lower", 0.15) == "improved"
    assert compare.judge(stat(100), stat(85), "higher", 0.10) == "regressed"
    assert compare.judge(stat(100), stat(120), "higher", 0.10) == "improved"


def test_judge_reports_wide_spread_as_unresolved_not_unchanged():
    noisy = stat(10, low=8, high=12, spread=0.3)
    assert compare.judge(noisy, stat(10.2), "lower", 0.15) == "unresolved"
    # ...unless every run of B reads better than every run of A.
    assert compare.judge(noisy, stat(7, low=6.5, high=7.5), "lower", 0.15) \
        == "improved"


def test_compare_flags_a_digest_mismatch(summary):
    rows = list(compare.compare(summary, summary, SPEC))
    assert {r["verdict"] for r in rows if r["unit"] == "exact"} == {"identical"}
    assert not [r for r in rows if r["verdict"] in ("regressed", "mismatch")]
    changed = json.loads(json.dumps(summary))
    changed["workloads"]["figs_cold"]["result_digest"] = "0" * 64
    mismatches = [r for r in compare.compare(summary, changed, SPEC)
                  if r["verdict"] == "mismatch"]
    assert [(r["workload"], r["metric"]) for r in mismatches] == \
        [("figs_cold", "result_digest")]
    assert "B/A" in compare.render(rows)


def test_pair_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [value * 0.8 for value in base]
    assert compare.pair_rule(base, faster, "lower")["gain"]
    assert not compare.pair_rule(base[:9], faster[:9], "lower")["gain"]
    barely = [value - 0.05 for value in base]     # wins, but inside the IQR
    assert not compare.pair_rule(base, barely, "lower")["gain"]
    mixed = faster[:8] + [11.0, 11.0]             # only 8 of 10 wins
    assert not compare.pair_rule(base, mixed, "lower")["gain"]
