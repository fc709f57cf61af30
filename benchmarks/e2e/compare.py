"""The single comparator: A/A, and parent (A) against change (B).

    python3 benchmarks/e2e/compare.py A.json B.json [--pairs DIR]

``A.json`` and ``B.json`` are two ``summary.json`` files of the same
seed.  One row per workload x end-to-end metric, judged by the direction
and bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound;
* ``unresolved``, not unchanged, when either side's own run-to-run spread
  (quartile distance over median of its passes) exceeds the bound -
  unless every run of B reads better than every run of A;
* ``result_digest`` and the ``accuracy.*`` metrics repeat exactly for a
  seed and are compared exactly.

``--pairs DIR`` adds the rule for claiming a gain: DIR holds at least ten
pairs ``<k>.A.json`` / ``<k>.B.json`` measured alternately; B must win at
least nine tenths of them (ties count for neither) and the medians must
differ by more than the distance between A's quartiles.  Every ratio is
printed beside its base.  Exits 1 on a regression or a mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import ledger

MIN_PAIRS = 10
WIN_SHARE = 0.9


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if better == "lower" else -change


def judge(base: Dict[str, Any], new: Dict[str, Any], better: str,
          bound: float) -> str:
    """The verdict on one end-to-end metric of one workload."""
    if better == "lower":
        all_better = new["max"] < base["min"]
    else:
        all_better = new["min"] > base["max"]
    if max(base["spread"], new["spread"]) > bound and not all_better:
        return "unresolved"
    worse = worsening(base["value"], new["value"], better)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Rows for every workload both summaries hold."""
    if a["harness_version"] != b["harness_version"]:
        raise SystemExit("summaries come from different harness versions")
    metrics = ledger.metric_table(spec, "end_to_end")
    for workload, base in a["workloads"].items():
        new = b["workloads"].get(workload)
        if new is None:
            continue
        if base["seed"] != new["seed"]:
            raise SystemExit(f"{workload}: seeds differ, nothing is comparable")
        for name, metric in metrics.items():
            yield {
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": base["end_to_end"][name]["value"],
                "new": new["end_to_end"][name]["value"],
                "bound": metric["bound"],
                "verdict": judge(
                    base["end_to_end"][name], new["end_to_end"][name],
                    metric["better"], metric["bound"],
                ),
            }
        exact = {"result_digest": (base["result_digest"], new["result_digest"])}
        for name in base["per_layer"]:
            if name.startswith("accuracy.") and name in new["per_layer"]:
                exact[name] = (
                    base["per_layer"][name]["value"],
                    new["per_layer"][name]["value"],
                )
        for name, (old, now) in exact.items():
            yield {
                "workload": workload, "metric": name, "unit": "exact",
                "base": old, "new": now, "bound": 0,
                "verdict": "identical" if old == now else "mismatch",
            }
        for name, measured in base["per_layer"].items():
            other = new["per_layer"].get(name)
            if other is None or name.startswith("accuracy."):
                continue
            yield {
                "workload": workload, "metric": name, "unit": measured["unit"],
                "base": measured["value"], "new": other["value"],
                "bound": None, "verdict": "layer",
            }


def pair_rule(base: Sequence[float], new: Sequence[float],
              better: str) -> Dict[str, Any]:
    """Whether alternating pairs support claiming a gain on one metric."""
    if better == "lower":
        wins = sum(1 for old, now in zip(base, new) if now < old)
    else:
        wins = sum(1 for old, now in zip(base, new) if now > old)
    quartiles = statistics.quantiles(base, n=4)
    gap = abs(statistics.median(new) - statistics.median(base))
    return {
        "pairs": len(base),
        "wins": wins,
        "base_median": statistics.median(base),
        "new_median": statistics.median(new),
        "base_iqr": quartiles[2] - quartiles[0],
        "gain": (
            len(base) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(base)
            and gap > quartiles[2] - quartiles[0]
        ),
    }


def load_pairs(directory: Path):
    """``(A, B)`` summaries of every ``<k>.A.json`` with its ``<k>.B.json``."""
    pairs = []
    for a_path in sorted(directory.glob("*.A.json")):
        b_path = a_path.with_name(a_path.name[:-len("A.json")] + "B.json")
        pairs.append((
            json.loads(a_path.read_text()), json.loads(b_path.read_text())
        ))
    return pairs


def compare_pairs(pairs, spec: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    metrics = ledger.metric_table(spec, "end_to_end")
    for workload in pairs[0][0]["workloads"]:
        both = [
            (a["workloads"][workload], b["workloads"][workload])
            for a, b in pairs
            if workload in a["workloads"] and workload in b["workloads"]
        ]
        if len(both) < 2:
            continue
        for name, metric in metrics.items():
            outcome = pair_rule(
                [a["end_to_end"][name]["value"] for a, _ in both],
                [b["end_to_end"][name]["value"] for _, b in both],
                metric["better"],
            )
            worse = worsening(
                outcome["base_median"], outcome["new_median"], metric["better"]
            )
            outcome.update(
                workload=workload, metric=name, unit=metric["unit"],
                verdict="gain" if outcome["gain"] else (
                    "regressed" if worse > metric["bound"] else "no claim"
                ),
            )
            yield outcome


def show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, str):
        return value[:12]
    return str(value)


def render(rows: List[Dict[str, Any]]) -> str:
    lines = ["| workload | metric | A (base) | B | B/A | bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        base, new = row["base"], row["new"]
        numeric = all(isinstance(v, (int, float)) for v in (base, new))
        ratio = f"{new / base:.4f}" if numeric and base else "-"
        lines.append(
            f"| {row['workload']} | `{row['metric']}` | {show(base)} "
            f"{row['unit']} | {show(new)} | {ratio} | "
            f"{'-' if row['bound'] is None else row['bound']} | "
            f"{row['verdict']} |"
        )
    return "\n".join(lines)


def render_pairs(rows: List[Dict[str, Any]]) -> str:
    lines = ["| workload | metric | pairs | B wins | A median | B median "
             "| B/A | A quartile distance | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['workload']} | `{row['metric']}` | {row['pairs']} "
            f"| {row['wins']} | {show(row['base_median'])} {row['unit']} "
            f"| {show(row['new_median'])} "
            f"| {row['new_median'] / row['base_median']:.4f} "
            f"| {show(row['base_iqr'])} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="summary.json of the base (parent)")
    parser.add_argument("b", type=Path, help="summary.json of the change")
    parser.add_argument("--pairs", type=Path,
                        help="directory of <k>.A.json / <k>.B.json pairs")
    args = parser.parse_args(argv)
    spec = ledger.load_spec()
    rows = list(compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec
    ))
    print(render(rows))
    failed = [r for r in rows if r["verdict"] in ("regressed", "mismatch")]
    if args.pairs is not None:
        pair_rows = list(compare_pairs(load_pairs(args.pairs), spec))
        print()
        print(render_pairs(pair_rows))
        failed += [r for r in pair_rows if r["verdict"] == "regressed"]
    for row in failed:
        print(f"FAILED: {row['workload']} {row['metric']}: {row['verdict']}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
