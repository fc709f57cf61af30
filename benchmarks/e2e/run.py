"""The perf ledger's one command.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

Runs the named workloads (default: all seven), each in a fresh child
interpreter, one after another, so set-up time, peak memory, imports and
the simulator's per-process plan cache are per workload.  Writes one raw
record per workload under ``DIR/raw/``, tabulates them into
``DIR/summary.json`` + ``summary.csv``, prints the report with every
metric by name and unit, and ends with one JSON line per workload in the
form ``BENCHMARK.json``'s driver reads.  Exits non-zero when an output
check fails; exits non-zero without any result line when a child cannot
run at all (for instance where ``src/`` is missing).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # a child's set-up clock starts before its imports

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import ledger
import report
import tabulate

#: A child that runs longer than this is killed with its process group
#: (the driver allows 180 s for a whole run).
CHILD_TIMEOUT_S = 170
#: Set-up is sampled in fresh interpreters until there are this many
#: samples or this much time has gone into set-up, whichever is first:
#: a sub-second set-up is noisy and cheap to repeat, a long one neither.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 4.0


def parse(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: SimConfig.seed of every "
                             "generated config, and the query mix")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of one workload's untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="add a traced pass and the per-layer numbers")
    parser.add_argument("--out", default=str(ledger.HERE / "out"),
                        help="where raw/, summary.* and report.md go")
    parser.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one workload in this interpreter.
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    import_started = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - import_started

    out = Path(args.out)
    scratch = out / "tmp" / f"{args.child}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.child](args.seed, scratch)
        workload.setup()
        record: Dict[str, Any] = {"setup_s": time.perf_counter() - _T0}
        if not args.setup_only:
            record.update(workloads.measure(
                workload, args.seconds, bool(args.trace),
                out / "raw" / f"{args.child}.trace.jsonl",
            ))
            if record["traced"]:
                record["per_layer"]["experiments.import_s"] = import_s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn, collect, tabulate, report.
# ---------------------------------------------------------------------------

def spawn_child(name: str, args: argparse.Namespace,
                setup_only: bool = False) -> Dict[str, Any]:
    """Run one child to its end and return the record it printed."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", args.out,
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ledger.ROOT / "src")] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
        )
    )
    # Its own session, so that a timeout also reaches the pool workers.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{name}: no result after {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"{name}: child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    stamp = ledger.machine_stamp(args.seed)
    record = spawn_child(name, args)
    samples = [record.pop("setup_s")]
    while (len(samples) < SETUP_SAMPLES
           and sum(samples) + samples[-1] <= SETUP_BUDGET_S):
        samples.append(spawn_child(name, args, setup_only=True)["setup_s"])
    stamp["workers"] = record["pool_workers"] or 1
    stamp["loadavg_end"] = os.getloadavg()[0]
    record["setup_samples_s"] = samples
    record["stamp"] = stamp
    if record["traced"]:
        record["per_layer"]["host.loadavg_start"] = stamp["loadavg_start"]
        record["per_layer"]["host.loadavg_end"] = stamp["loadavg_end"]
    return record


def driver_line(entry: Dict[str, Any], spec: Dict[str, Any],
                traced: bool) -> str:
    """One workload's result in the form ``BENCHMARK.json``'s driver reads.

    Untraced: every end-to-end metric.  Traced: every per-layer metric, a
    layer the workload does not exercise reading 0.
    """
    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        measured = entry[kind].get(metric["name"])
        value = measured["value"] if measured else None
        metrics[metric["name"]] = {
            "value": value if value is not None else 0,
            "unit": metric["unit"],
        }
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = ledger.load_spec()
    args = parse(argv, spec)
    if args.child:
        return child_main(args)

    out = Path(args.out)
    raw = out / "raw"
    shutil.rmtree(raw, ignore_errors=True)      # this invocation's records only
    raw.mkdir(parents=True)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        record = run_workload(name, args)
        (raw / f"{name}.jsonl").write_text(json.dumps(record) + "\n")
        if not record["passes"]:
            print("".join(record["errors"]), file=sys.stderr)
            raise SystemExit(f"{name}: no pass completed")

    summary = tabulate.tabulate(out, spec)
    print(report.report(out, spec))
    for name in names:
        print(driver_line(summary["workloads"][name], spec, bool(args.trace)))
    correct = all(entry["correct"] for entry in summary["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
