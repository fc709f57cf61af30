"""The seven workloads of the perf ledger.

Every workload is a closed loop with one client: the next call is issued
when the previous one returns.  A workload object is created per child
interpreter; ``setup()`` builds its inputs from the seed, ``run_pass()``
performs one fixed unit of work (the harness repeats it until the run's
time budget is spent), ``layers()`` produces the per-layer numbers after
the traced pass, and ``checks()`` says whether the outputs are correct.

The program under test receives only the generated inputs; every layer
is measured from outside, through public functions and the public
counters that results already carry.
"""

from __future__ import annotations

import cProfile
import math
import pickle
import pstats
import random
import resource
import shutil
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ledger import HERE, ROOT, Tracer, digest, percentile

from repro.analysis import AnalysisCache, analyze
from repro.experiments.figures import (
    fig11, fig12, fig13, fig16, fig17, render_table1_report,
)
from repro.experiments.sweep import find_saturation
from repro.runtime.cache import ResultCache, config_key
from repro.runtime.estimator import Estimator
from repro.runtime.experiment import Experiment
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.instrumentation import NullProgress, collect_counters
from repro.sim.network import Network
from repro.surrogate import (
    calibrate, corpus_configs, corpus_loads, corpus_points, cross_validate,
    estimate, observations_from_results,
)
from repro.telemetry.session import TelemetrySession

# The scale and load grid of benchmarks/conftest.py, copied so that the
# ledger keeps measuring the same work if that file changes.
BENCH_SCALE = dict(
    warmup_cycles=400, sample_packets=700, max_cycles=20_000, drain_cycles=5_000,
)
LOADS_8BUF = (0.05, 0.30, 0.45, 0.55)

#: The simulated figures of one pass: the paper's 8-buffer pair.  Fig 17
#: re-uses Fig 13's three curves, so a pass requests 32 points, executes
#: 20 and answers 12 from the cache inside the batch.  (Figs 14, 15 and 18
#: stay with benchmarks/bench_fig1[458].py: with them a cold pass takes
#: 28 s, and the benchmark's time cap allows about 10 s per run.)
SIM_FIGURES = (("fig13", fig13), ("fig17", fig17))

#: Measurement scale of the surrogate's calibration corpus (the
#: cross-validation battery's: seconds of simulation on a 4x4 mesh).
CORPUS_SCALE = dict(
    warmup_cycles=300, sample_packets=200, max_cycles=12_000, drain_cycles=4_000,
)
SURROGATE_ERROR_CEILING = 0.15      # docs/SURROGATE.md's envelope

#: How far a simulated zero-load latency / saturation load may sit from
#: the paper's before a figure pass counts as wrong.  At bench scale the
#: ten seeds tried give at most 0.09 / 0.10; the saturation error is set
#: by the spacing of the load grid, not by the simulator.
ZERO_LOAD_TOLERANCE = 0.15
SATURATION_TOLERANCE = 0.20

KERNEL_WARMUP_CYCLES = 400
PROFILE_CYCLES = 600


@dataclass
class Pass:
    """One fixed unit of a workload's work, as timed from outside."""

    wall_s: float
    work: float                 # cycles / points / queries / files completed
    ops: int                    # operations attempted
    digest: Optional[str]       # None: this pass has no comparable output
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Base: the seed, a scratch directory, and the measuring protocol.

    ``run_pass`` leaves the objects of the pass it just ran in
    ``self.last`` (results, stats); a :class:`Pass` keeps numbers only,
    so a thousand passes do not grow the child's memory.
    """

    name = ""
    #: What ``Pass.work`` counts; ``work_per_s`` is this per host second.
    work_unit = ""
    #: Passes to run even when the time budget is already spent.
    min_passes = 3
    #: Pool workers whose memory adds to the child's own.
    pool_workers = 0
    #: Operations one pass attempts (what a pass that raises counts as).
    ops_per_pass = 1
    #: Hottest functions of the profiled run (kernel workloads only).
    top_functions: Sequence[Dict[str, Any]] = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.last: Dict[str, Any] = {}
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> Pass:
        raise NotImplementedError

    def layers(self, tracer: Tracer, untraced: Sequence[Pass],
               traced: Pass) -> Dict[str, Optional[float]]:
        """Per-layer numbers; called right after the traced pass."""
        raise NotImplementedError

    def checks(self, passes: Sequence[Pass]) -> List[Check]:
        """Correctness of the last pass's outputs; called last."""
        return []


#: Stop repeating a workload whose passes keep raising.
MAX_FAILED_PASSES = 2


def measure(workload: Workload, seconds: float, trace: bool,
            trace_path: Optional[Path] = None) -> Dict[str, Any]:
    """Run a set-up workload for about ``seconds`` and return its raw record.

    Untraced passes repeat until the next one would overrun the budget;
    they alone feed the end-to-end metrics.  With ``trace`` one more pass
    runs under spans and the workload's layer measurements follow it, so
    nothing that observes ever runs inside a timed untraced pass.  A pass
    that raises is counted as failed operations; the run still finishes.
    """
    passes: List[Pass] = []
    errors: List[str] = []
    untraced = Tracer(False)
    started = time.perf_counter()
    while len(errors) < MAX_FAILED_PASSES:
        try:
            passes.append(workload.run_pass(untraced))
        except Exception:       # boundary: record the failure, keep measuring
            errors.append(traceback.format_exc())
        done = len(passes) + len(errors)
        elapsed = time.perf_counter() - started
        if done >= workload.min_passes and elapsed + elapsed / done > seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pool_workers:
        # RUSAGE_CHILDREN reports the largest reaped descendant, not their
        # sum, so a pool counts as that many copies of its largest worker.
        usage += workload.pool_workers * resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
    attempted = sum(p.ops for p in passes)

    tracer = Tracer(trace and bool(passes))
    per_layer: Dict[str, Optional[float]] = {}
    if tracer.enabled:
        tracer.pass_id = len(passes)
        try:
            with tracer.span(workload.name), tracer.span("pass"):
                traced = workload.run_pass(tracer)
            attempted += traced.ops
            per_layer = workload.layers(tracer, passes, traced)
            per_layer["trace.overhead_ratio"] = traced.wall_s / median(
                [p.wall_s for p in passes]
            )
        except Exception:       # boundary: as above
            errors.append(traceback.format_exc())
        if trace_path is not None:
            tracer.write(trace_path)

    checks: List[Check] = []
    if passes:
        digests = {p.digest for p in passes if p.digest is not None}
        checks.append(Check(
            "passes_agree", len(digests) == 1,
            f"{len(digests)} distinct result_digest over {len(passes)} passes",
        ))
        checks.extend(workload.checks(passes))
    failed = len(errors) * workload.ops_per_pass
    if any(not check.ok for check in checks):
        failed += passes[-1].ops    # the outputs the failed check covers
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "work_unit": workload.work_unit,
        "pool_workers": workload.pool_workers,
        "passes": [
            {"wall_s": p.wall_s, "work": p.work, "ops": p.ops} for p in passes
        ],
        "result_digest": passes[0].digest if passes else None,
        "peak_rss_mb": usage / 1024,
        "attempted": attempted + len(errors) * workload.ops_per_pass,
        "failed": failed,
        "errors": errors,
        "checks": [asdict(check) for check in checks],
        "traced": tracer.enabled,
        "per_layer": per_layer,
        "top_functions": list(workload.top_functions),
    }


def timed_us(fn: Callable[[], Any], repeat: int) -> float:
    """Mean microseconds of ``fn()`` over ``repeat`` back-to-back calls."""
    started = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - started) / repeat * 1e6


# ---------------------------------------------------------------------------
# figs_cold / figs_parallel / figs_warm: figure regeneration through Experiment.
# ---------------------------------------------------------------------------

class MapSpans(NullProgress):
    """Progress hook of the traced pass: one span per ``Experiment.map``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._started = 0.0

    def on_batch_start(self, total: int) -> None:
        self._started = time.perf_counter()

    def on_batch_done(self, total: int) -> None:
        self.tracer.add("experiment.map", self._started, time.perf_counter())


@dataclass
class FigureBatch:
    texts: Dict[str, str]
    figures: Dict[str, Any]         # name -> SimFigureResult

    def curves(self):
        for figure in self.figures.values():
            yield from figure.curves

    def results(self):
        for _, curve in self.curves():
            yield from curve.points

    def digest(self) -> str:
        return digest({"results": list(self.results()), "texts": self.texts})

    def zero_load_err_max(self) -> float:
        return max(
            abs(curve.zero_load_latency() - spec.paper_zero_load)
            / spec.paper_zero_load
            for spec, curve in self.curves()
            if spec.paper_zero_load is not None
        )

    def saturation_err_max(self) -> float:
        return max(
            abs(find_saturation(curve) - spec.paper_saturation)
            for spec, curve in self.curves()
            if spec.paper_saturation is not None
        )


def regenerate(experiment: Experiment, seed: int, tracer: Tracer) -> FigureBatch:
    """Table 1 and Figs 11, 12, 13, 16, 17 through one Experiment, rendered."""
    texts: Dict[str, str] = {}
    with tracer.span("analytic"):
        texts["table1"] = render_table1_report()
        texts["fig11"] = fig11().render()
        texts["fig12"] = fig12().render()
        texts["fig16"] = fig16()
    figures = {}
    for name, figure in SIM_FIGURES:
        with tracer.span(name):
            figures[name] = figure(
                loads=LOADS_8BUF, seed=seed, experiment=experiment
            )
            with tracer.span("render"):
                texts[name] = figures[name].render()
    return FigureBatch(texts, figures)


class FigsCold(Workload):
    name = "figs_cold"
    work_unit = "simulated cycles"
    min_passes = 1
    backend = "serial"
    ops_per_pass = 32
    scale = BENCH_SCALE

    def setup(self) -> None:
        self.measurement = MeasurementConfig(**self.scale)

    def run_pass(self, tracer: Tracer, backend: Optional[str] = None,
                 cache_dir: Optional[Path] = None) -> Pass:
        experiment = Experiment(
            self.measurement, backend=backend or self.backend,
            cache=cache_dir or self.fresh_dir("cache"),
            progress=MapSpans(tracer) if tracer.enabled else None,
        )
        started = time.perf_counter()
        batch = regenerate(experiment, self.seed, tracer)
        wall = time.perf_counter() - started
        executed = list({
            id(result): result for result in batch.results()
            if result.source == "simulated"
        }.values())
        self.last = {
            "batch": batch, "stats": experiment.stats, "executed": executed,
            "cache": experiment.cache,
        }
        return Pass(
            wall_s=wall, work=self.work_done(batch, executed),
            ops=experiment.stats.points_requested, digest=batch.digest(),
        )

    def work_done(self, batch: FigureBatch, executed: Sequence[Any]) -> float:
        return sum(result.cycles_simulated for result in executed)

    def checks(self, passes: Sequence[Pass]) -> List[Check]:
        batch: FigureBatch = self.last["batch"]
        zero_load = batch.zero_load_err_max()
        saturation = batch.saturation_err_max()
        checks = [
            Check("zero_load_near_paper", zero_load <= ZERO_LOAD_TOLERANCE,
                  f"max |sim - paper| / paper = {zero_load:.4f}"),
            Check("saturation_near_paper", saturation <= SATURATION_TOLERANCE,
                  f"max |sim - paper| = {saturation:.4f} of capacity"),
        ]
        if self.seed == 1:
            # A change meant only to speed the simulator up must leave
            # every simulated statistic as it was.
            for name, _ in SIM_FIGURES:
                golden = (HERE / "golden" / f"{name}.txt").read_text()
                checks.append(Check(
                    f"golden_{name}", batch.texts[name] + "\n" == golden,
                    "rendered text equals the committed golden",
                ))
        return checks

    # -- per-layer numbers ---------------------------------------------------

    def layers(self, tracer, untraced, traced):
        batch: FigureBatch = self.last["batch"]
        out = self.sim_layers(traced)
        out.update(self.runtime_layers(
            tracer, traced, out.get("sim.point_s_sum", 0.0)
        ))
        out.update(self.direct_timings())
        out["delaymodel.analytic_ms"] = tracer.total("analytic") * 1e3
        for name, _ in SIM_FIGURES:
            out[f"experiments.figure_s.{name}"] = tracer.total(name)
        out["experiments.render_ms"] = tracer.total("render") * 1e3
        out["accuracy.zero_load_err_max"] = batch.zero_load_err_max()
        out["accuracy.saturation_err_max"] = batch.saturation_err_max()
        return out

    def sim_layers(self, traced: Pass) -> Dict[str, Optional[float]]:
        """Sums over the executed points' RunCounters."""
        counters = [result.counters for result in self.last["executed"]]
        if not counters:
            return {}

        def total(name: str) -> int:
            return sum(getattr(c, name) for c in counters)

        walls = {
            phase: sum(c.wall_seconds[phase] for c in counters)
            for phase in ("warmup", "sample", "drain", "total")
        }
        cycles = sum(c.total_cycles for c in counters)
        spec_grants = total("spec_grants")
        return {
            "sim.warmup_s": walls["warmup"],
            "sim.sample_s": walls["sample"],
            "sim.drain_s": walls["drain"],
            "sim.point_s_sum": walls["total"],
            # Share of the host time the pass had: its wall on the serial
            # backend, its wall times the pool size on the process backend.
            "sim.share_of_wall": walls["total"] / (
                traced.wall_s * max(1, self.pool_workers)
            ),
            "sim.cycles": cycles,
            "sim.flit_hops": total("flits_forwarded"),
            "sim.packets_routed": total("packets_routed"),
            "sim.sa_grants": total("sa_grants"),
            "sim.spec_grants": spec_grants,
            "sim.spec_wasted": total("spec_wasted"),
            "sim.spec_useful_ratio": (
                1 - total("spec_wasted") / spec_grants if spec_grants else None
            ),
            "sim.credits_stalled": total("credits_stalled"),
            "sim.routers_specialized": total("routers_specialized"),
            "sim.routers_generic": total("routers_generic"),
            "sim.host_us_per_cycle": walls["total"] / cycles * 1e6,
            "sim.host_us_per_flit_hop": (
                walls["total"] / total("flits_forwarded") * 1e6
            ),
        }

    def runtime_layers(self, tracer: Tracer, traced: Pass, point_s: float):
        stats = self.last["stats"]
        out = {
            "runtime.map_s": stats.wall_seconds,
            "runtime.points_requested": stats.points_requested,
            "runtime.points_executed": stats.points_executed,
            "runtime.cache_hits": stats.cache_hits,
            "runtime.deduplicated": stats.deduplicated,
            "runtime.cache_hit_ratio": stats.cache_hit_rate,
            "runtime.unattributed_s": traced.wall_s - (
                tracer.total("analytic") + stats.wall_seconds
                + tracer.total("render")
            ),
        }
        if not self.pool_workers:
            # Everything map() does besides stepping the kernel: wiring,
            # validation, keying, cache and manifest writes.  Undefined
            # on a pool, where the points' times overlap.
            out["runtime.overhead_s"] = stats.wall_seconds - point_s
            out["runtime.overhead_share"] = (
                (stats.wall_seconds - point_s) / traced.wall_s
            )
        return out

    def direct_timings(self) -> Dict[str, Optional[float]]:
        """Calls into the runtime's keying and cache, on the traced pass's
        own configs and results."""
        batch: FigureBatch = self.last["batch"]
        configs = [
            replace(spec.config, injection_fraction=point.injection_fraction)
            for spec, curve in batch.curves() for point in curve.points
        ]
        results = list(batch.results())
        keys = [config_key(config, self.measurement) for config in configs]
        cache: ResultCache = self.last["cache"]
        spare = ResultCache(self.fresh_dir("spare"))
        count = len(configs)

        def put_all():
            return [spare.put(key, result) for key, result in zip(keys, results)]

        def manifest():
            shutil.rmtree(spare.directory / "manifests", ignore_errors=True)
            progress = spare.manifest(keys).start()
            for key in keys:
                progress.record(key)
            progress.complete()

        sizes = [path.stat().st_size for path in put_all()]
        return {
            "runtime.validate_us": timed_us(
                lambda: [config.validate() for config in configs], 20) / count,
            "runtime.key_us": timed_us(
                lambda: [config_key(c, self.measurement) for c in configs], 5
            ) / count,
            "runtime.cache_get_ms": timed_us(
                lambda: [cache.get(key) for key in keys], 5) / count / 1e3,
            "runtime.cache_put_ms": timed_us(put_all, 3) / count / 1e3,
            "runtime.cache_entry_bytes": sum(sizes) / len(sizes),
            "runtime.manifest_ms": timed_us(manifest, 3) / 1e3,
        }


class FigsParallel(FigsCold):
    name = "figs_parallel"
    backend = "process:2"
    pool_workers = 2
    # Both cores are in use, so anything else the host runs lands on a
    # pass; two passes at least, for a median that one burst cannot set.
    min_passes = 2

    def setup(self) -> None:
        super().setup()
        self.serial_digest: Optional[str] = None

    def layers(self, tracer, untraced, traced):
        out = super().layers(tracer, untraced, traced)
        scheduler = self.last["stats"].scheduler
        busy = list(scheduler.worker_busy_seconds.values())
        utilization = list(scheduler.worker_utilization().values())
        out.update({
            "runtime.sched.chunks": scheduler.chunks_completed,
            "runtime.sched.steals": scheduler.steals,
            "runtime.sched.splits": scheduler.splits,
            "runtime.sched.mean_chunk_s": scheduler.mean_chunk_seconds,
            "runtime.sched.max_chunk_s": scheduler.chunk_seconds_max,
            "runtime.sched.dispatch_s": scheduler.dispatch_seconds,
            "runtime.sched.worker_utilization": (
                sum(utilization) / len(utilization)
            ),
            "runtime.sched.worker_imbalance": (
                (max(busy) - min(busy)) / scheduler.dispatch_seconds
            ),
            "runtime.sched.stream_lag_ms_mean": scheduler.mean_stream_lag * 1e3,
            "runtime.sched.stream_lag_ms_max": scheduler.stream_lag_max * 1e3,
        })
        out.update(self.pickle_timings())
        out["runtime.pool_floor_s"] = self.pool_floor()
        # Base of the speed-up: one serial pass of the same batch in this
        # same child, so both sides saw the same host.
        serial = self.run_pass(Tracer(False), backend="serial")
        self.serial_digest = serial.digest
        parallel = median([p.wall_s for p in untraced])
        out["runtime.parallel_speedup"] = serial.wall_s / parallel
        out["runtime.parallel_efficiency"] = (
            serial.wall_s / parallel / self.pool_workers
        )
        return out

    def pickle_timings(self):
        spec, curve = next(iter(self.last["batch"].curves()))
        payload = (spec.config, self.measurement, False, False)
        result = curve.points[0]
        return {
            "runtime.pickle_payload_us": timed_us(
                lambda: pickle.loads(pickle.dumps(payload)), 200),
            "runtime.pickle_result_us": timed_us(
                lambda: pickle.loads(pickle.dumps(result)), 200),
            "runtime.pickle_result_bytes": len(pickle.dumps(result)),
        }

    def pool_floor(self) -> float:
        """What a pool costs when there is almost nothing to run: a 2-point
        4x4 map on the pool minus the same map run serially."""
        tiny = MeasurementConfig(
            warmup_cycles=50, sample_packets=40, max_cycles=2_000,
            drain_cycles=500,
        )
        points = [
            SimConfig(mesh_radix=4, injection_fraction=load, seed=self.seed)
            for load in (0.05, 0.10)
        ]
        walls = {}
        for backend in ("serial", self.backend):
            experiment = Experiment(tiny, backend=backend, cache=None)
            started = time.perf_counter()
            experiment.map(points)
            walls[backend] = time.perf_counter() - started
        return walls[self.backend] - walls["serial"]

    def checks(self, passes):
        checks = super().checks(passes)
        if self.serial_digest is not None:      # traced runs only
            checks.append(Check(
                "parallel_equals_serial",
                passes[0].digest == self.serial_digest,
                "process:2 and serial passes give one result_digest",
            ))
        return checks


class FigsWarm(FigsCold):
    name = "figs_warm"
    work_unit = "points served"
    min_passes = 10

    def setup(self) -> None:
        super().setup()
        self.populated = self.fresh_dir("populated")
        self.cold_digest = super().run_pass(
            Tracer(False), cache_dir=self.populated
        ).digest

    def run_pass(self, tracer: Tracer) -> Pass:
        return super().run_pass(tracer, cache_dir=self.populated)

    def work_done(self, batch, executed):
        return sum(1 for _ in batch.results())

    def checks(self, passes):
        checks = super().checks(passes)
        executed = self.last["stats"].points_executed
        checks.append(Check(
            "warm_equals_cold", passes[-1].digest == self.cold_digest,
            "a pass served from the cache gives the cold pass's result_digest",
        ))
        checks.append(Check(
            "warm_executes_nothing", executed == 0,
            f"{executed} points executed on a populated cache",
        ))
        return checks

    def layers(self, tracer, untraced, traced):
        out = super().layers(tracer, untraced, traced)
        out["runtime.warm_pass_p95_ms"] = (
            percentile([p.wall_s for p in untraced], 0.95) * 1e3
        )
        return out


# ---------------------------------------------------------------------------
# kernel_saturated / kernel_light: Network.run directly.
# ---------------------------------------------------------------------------

def kernel_configs(load: float, seed: int) -> List[Tuple[str, SimConfig]]:
    """Fig 13's three routers at one offered load."""
    return [
        ("wormhole", SimConfig(
            router_kind=RouterKind.WORMHOLE, buffers_per_vc=8,
            injection_fraction=load, seed=seed)),
        ("vc", SimConfig(
            router_kind=RouterKind.VIRTUAL_CHANNEL, num_vcs=2,
            buffers_per_vc=4, injection_fraction=load, seed=seed)),
        ("spec_vc", SimConfig(
            router_kind=RouterKind.SPECULATIVE_VC, num_vcs=2,
            buffers_per_vc=4, injection_fraction=load, seed=seed)),
    ]


def network_state(network: Network) -> Dict[str, Any]:
    """The simulated statistics a network exposes, for the digest."""
    return {
        "cycle": network.cycle,
        "generated": network.packets_generated,
        "in_flight": network.flits_in_flight(),
        "counters": collect_counters(network, 0, 0, 0),
    }


PROFILE_GROUPS = {
    "routers": ("sim/routers/",),
    "allocators": ("sim/allocators.py", "sim/arbiters.py", "sim/matching.py"),
    "transport": ("sim/channel.py", "sim/credit.py", "sim/buffers.py",
                  "sim/flit.py"),
    "network": ("sim/network.py",),
    "traffic": ("sim/traffic.py", "sim/routing.py", "sim/topology.py"),
}
#: Best-effort function splits: (metric infix, path fragment, names).
PROFILE_FUNCTIONS = (
    ("alloc_fn", "sim/routers/", ("alloc",)),
    ("st_fn", "sim/routers/", ("st",)),
    ("wheel_fn", "sim/network.py", ("schedule", "drain")),
)


def profile_split(network: Network, cycles: int):
    """Self time of ``network.run(cycles)`` by source module, under cProfile.

    The shares say where to look, not how much a change will save: the
    profiler slows the run about 3.5x and inflates call-heavy code.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    network.run(cycles)
    profiler.disable()
    rows = [
        (path.replace("\\", "/"), name, calls, self_s)
        for (path, _, name), (calls, _, self_s, _, _)
        in pstats.Stats(profiler).stats.items()
    ]
    whole = sum(row[3] for row in rows)
    out: Dict[str, Optional[float]] = {
        f"sim.prof.{group}_share": 0.0
        for group in (*PROFILE_GROUPS, "builtins", "other")
    }
    for path, _, _, self_s in rows:
        if path == "~":
            group = "builtins"
        else:
            group = next(
                (g for g, fragments in PROFILE_GROUPS.items()
                 if any(fragment in path for fragment in fragments)),
                "other",
            )
        out[f"sim.prof.{group}_share"] += self_s / whole
    for infix, fragment, names in PROFILE_FUNCTIONS:
        found = [r for r in rows if fragment in r[0] and r[1] in names]
        # None, never an error, once a refactor renames the function.
        out[f"sim.prof.{infix}_share"] = (
            sum(r[3] for r in found) / whole if found else None
        )
    steps = [r for r in rows if "sim/routers/" in r[0] and r[1] == "step"]
    out["sim.awake_router_share"] = (
        sum(r[2] for r in steps) / (cycles * len(network.routers))
        if steps else None
    )
    top = sorted(rows, key=lambda r: r[3], reverse=True)[:20]
    top_functions = [
        {"where": path.split("repro/")[-1], "function": name,
         "calls": calls, "self_s": self_s}
        for path, name, calls, self_s in top
    ]
    return out, top_functions


class KernelSaturated(Workload):
    name = "kernel_saturated"
    work_unit = "simulated cycles"
    ops_per_pass = 3
    load = 0.42
    cycles_per_round = 1_500

    def setup(self) -> None:
        self.wire_cold_ms = 0.0
        self.networks: List[Tuple[str, Network]] = []
        for kind, config in kernel_configs(self.load, self.seed):
            started = time.perf_counter()
            network = Network(config)
            self.wire_cold_ms += (time.perf_counter() - started) * 1e3
            network.run(KERNEL_WARMUP_CYCLES)
            self.networks.append((kind, network))
        self.first_round_digest: Optional[str] = None
        self.top_functions: List[Dict[str, Any]] = []

    def run_pass(self, tracer: Tracer) -> Pass:
        hops_before = self.flit_hops() if tracer.enabled else 0
        elapsed: Dict[str, float] = {}
        with tracer.span("round"):
            for kind, network in self.networks:     # kinds interleaved
                with tracer.span(kind):
                    started = time.perf_counter()
                    network.run(self.cycles_per_round)
                    elapsed[kind] = time.perf_counter() - started
        if tracer.enabled:
            self.last = {"flit_hops": self.flit_hops() - hops_before}
        # Later rounds continue from the earlier ones' state, so only the
        # first has an output that two runs of the workload share.
        round_digest = None
        if self.first_round_digest is None:
            round_digest = self.first_round_digest = digest(
                [network_state(network) for _, network in self.networks]
            )
        return Pass(
            wall_s=sum(elapsed.values()),
            work=self.cycles_per_round * len(self.networks),
            ops=len(self.networks), digest=round_digest, detail=elapsed,
        )

    def flit_hops(self) -> int:
        return sum(
            collect_counters(network, 0, 0, 0).flits_forwarded
            for _, network in self.networks
        )

    def checks(self, passes):
        checks = []
        for kind, network in self.networks:
            try:
                network.check_conservation()
                checks.append(Check(f"conservation_{kind}", True))
            except AssertionError as error:
                checks.append(Check(f"conservation_{kind}", False, str(error)))
        return checks

    def warmed(self, **overrides) -> Network:
        """A fresh spec-VC network at the workload's load, past warm-up."""
        spec_vc = kernel_configs(self.load, self.seed)[2][1]
        network = Network(replace(spec_vc, **overrides))
        network.run(KERNEL_WARMUP_CYCLES)
        return network

    def layers(self, tracer, untraced, traced):
        out: Dict[str, Optional[float]] = {}
        for kind, _ in self.networks:
            out[f"sim.cycles_per_s.{kind}"] = median(
                [self.cycles_per_round / p.detail[kind] for p in untraced]
            )
        out["sim.host_us_per_flit_hop"] = (
            traced.wall_s / self.last["flit_hops"] * 1e6
        )
        out["sim.wire_cold_ms"] = self.wire_cold_ms
        started = time.perf_counter()
        for _, config in kernel_configs(self.load, self.seed):
            Network(config)
        out["sim.wire_warm_ms"] = (time.perf_counter() - started) * 1e3

        def rate(step: Callable[[], None]) -> float:
            started = time.perf_counter()
            for _ in range(PROFILE_CYCLES):
                step()
            return PROFILE_CYCLES / (time.perf_counter() - started)

        fast = self.warmed()
        plain = rate(fast.step)
        out["sim.reference_ratio"] = plain / rate(
            self.warmed(stepper="reference").step
        )
        observed = self.warmed()
        session = TelemetrySession()
        session.attach(observed)

        def observed_step():
            observed.step()
            session.after_cycle(observed)

        out["telemetry.overhead_ratio"] = plain / rate(observed_step)
        shares, self.top_functions = profile_split(fast, PROFILE_CYCLES)
        out.update(shares)
        return out


class KernelLight(KernelSaturated):
    name = "kernel_light"
    load = 0.05
    cycles_per_round = 6_000


# ---------------------------------------------------------------------------
# estimate_serving: Estimator.query over a seeded query mix.
# ---------------------------------------------------------------------------

def query_mix(corpus: Sequence[SimConfig], classes: Sequence[SimConfig],
              seed: int, count: int) -> Tuple[List[SimConfig], int]:
    """20% exact corpus points (answered from the cache), 80% corpus
    classes at loads the corpus never simulated (answered by the model).

    Returns the queries and how many of them are exact corpus points.
    """
    rng = random.Random(seed)
    queries = []
    exact = 0
    for _ in range(count):
        if rng.random() < 0.2:
            queries.append(rng.choice(corpus))
            exact += 1
        else:
            queries.append(replace(
                rng.choice(classes),
                injection_fraction=rng.uniform(0.02, 0.90),
            ))
    return queries, exact


def held_back_points(classes: Sequence[SimConfig], seed: int) -> List[SimConfig]:
    """Midpoints of each class's corpus grid, at another seed: points the
    calibration never saw."""
    points = []
    for config in classes:
        grid = corpus_loads(config)
        for low, high in zip(grid, grid[1:]):
            points.append(replace(
                config, injection_fraction=round((low + high) / 2, 4),
                seed=seed,
            ))
    return points


class EstimateServing(Workload):
    name = "estimate_serving"
    work_unit = "queries"
    queries_per_round = 20_000
    scale = CORPUS_SCALE

    def setup(self) -> None:
        self.ops_per_pass = self.queries_per_round
        self.measurement = MeasurementConfig(**self.scale)
        cache_dir = self.fresh_dir("corpus")
        self.classes = corpus_configs(seed=self.seed)
        corpus = corpus_points(self.classes)
        gatherer = Experiment(
            self.measurement, backend="serial", cache=cache_dir
        )
        started = time.perf_counter()
        pairs = list(zip(corpus, gatherer.map(corpus)))
        self.gather_s = time.perf_counter() - started
        self.observations = observations_from_results(pairs)
        started = time.perf_counter()
        self.calibration = calibrate(self.observations)
        self.calibrate_ms = (time.perf_counter() - started) * 1e3
        self.queries, self.exact = query_mix(
            corpus, self.classes, self.seed, self.queries_per_round
        )
        self.estimator = Estimator(
            self.measurement, cache=cache_dir, backend="serial",
            calibration=self.calibration, refine=False,
        )
        self.validation: Optional[Dict[str, Any]] = None

    def run_pass(self, tracer: Tracer) -> Pass:
        query = self.estimator.query
        answers = []
        latencies: List[float] = []
        with tracer.span("round"):
            started = time.perf_counter()
            if tracer.enabled:
                # Per-query clocks only in the traced round; the untraced
                # rounds that give queries/s run the bare loop.
                clock = time.perf_counter
                for config in self.queries:
                    before = clock()
                    answers.append(query(config))
                    latencies.append(clock() - before)
            else:
                for config in self.queries:
                    answers.append(query(config))
            wall = time.perf_counter() - started
        self.last = {
            "latencies": latencies,
            "sources": [answer.source for answer in answers],
        }
        return Pass(
            wall_s=wall, work=len(answers), ops=len(self.queries),
            digest=digest([
                (a.source, a.latency_cycles, a.throughput_fraction, a.saturated)
                for a in answers
            ]),
        )

    def validate(self) -> Dict[str, Any]:
        """Score the calibration: against the corpus it was fitted on (the
        envelope docs/SURROGATE.md states) and against the held-back points.

        The held-back points are simulated once, after the timed rounds:
        scoring is not something a query waits for.  A held-back point the
        model calls saturated although its simulation drained has no finite
        error; it is counted as a knee miss instead.
        """
        if self.validation is None:
            points = held_back_points(self.classes, self.seed + 1)
            results = Experiment(
                self.measurement, backend="serial", cache=None
            ).map(points)
            errors = []
            knee_misses = 0
            for seen in observations_from_results(zip(points, results)):
                predicted = estimate(
                    seen.config, seen.load,
                    self.calibration.for_config(seen.config),
                ).latency_cycles
                if math.isfinite(predicted):
                    errors.append(
                        abs(predicted - seen.latency_cycles)
                        / seen.latency_cycles
                    )
                else:
                    knee_misses += 1
            self.validation = {
                "fit_err_max": cross_validate(
                    self.calibration, self.observations
                )["max_rel_error"],
                "held_back_errors": errors,
                "knee_misses": knee_misses,
            }
        return self.validation

    def checks(self, passes):
        validation = self.validate()
        fit = validation["fit_err_max"]
        held_back = median(validation["held_back_errors"])
        sources = self.last["sources"]
        cached = sources.count("cached")
        surrogate = sources.count("surrogate")
        return [
            Check("fit_within_envelope", fit <= SURROGATE_ERROR_CEILING,
                  f"max relative error on the fitted corpus = {fit:.4f}"),
            Check("held_back_median_within_envelope",
                  held_back <= SURROGATE_ERROR_CEILING,
                  f"median relative error on held-back points = {held_back:.4f}"),
            Check("exact_points_served_from_cache", cached == self.exact,
                  f"{cached} cached answers for {self.exact} exact queries"),
            Check("rest_served_by_surrogate",
                  surrogate == len(sources) - self.exact,
                  f"{surrogate} surrogate answers"),
        ]

    def layers(self, tracer, untraced, traced):
        latencies = self.last["latencies"]
        sources = self.last["sources"]
        by_source: Dict[str, List[float]] = {"surrogate": [], "cached": []}
        for source, latency in zip(sources, latencies):
            by_source[source].append(latency)
        modelled = [
            (config, self.calibration.for_config(config))
            for config, source in zip(self.queries, sources)
            if source == "surrogate"
        ][:2_000]
        started = time.perf_counter()
        for config, coefficients in modelled:
            estimate(config, coefficients=coefficients)
        estimate_us = (time.perf_counter() - started) / len(modelled) * 1e6
        surrogate_us = median(by_source["surrogate"]) * 1e6
        validation = self.validate()
        return {
            "surrogate.gather_s": self.gather_s,
            "surrogate.calibrate_ms": self.calibrate_ms,
            "surrogate.estimate_us": estimate_us,
            "surrogate.classes": len(self.calibration.records),
            "surrogate.points": len(self.observations),
            "surrogate.fit_err_max": validation["fit_err_max"],
            "surrogate.err_mean": (
                sum(validation["held_back_errors"])
                / len(validation["held_back_errors"])
            ),
            "accuracy.surrogate_err_max": max(validation["held_back_errors"]),
            "accuracy.surrogate_knee_misses": validation["knee_misses"],
            "estimator.query_surrogate_us": surrogate_us,
            "estimator.query_cached_us": median(by_source["cached"]) * 1e6,
            "estimator.answers_surrogate": len(by_source["surrogate"]),
            "estimator.answers_cached": len(by_source["cached"]),
            "estimator.overhead_us": surrogate_us - estimate_us,
            "estimator.query_p50_us": percentile(latencies, 0.50) * 1e6,
            # 200 of the round's 20 000 samples lie beyond the 99th.
            "estimator.query_p99_us": percentile(latencies, 0.99) * 1e6,
        }


# ---------------------------------------------------------------------------
# lint_self: the analyzer over the repository's own package.
# ---------------------------------------------------------------------------

class LintSelf(Workload):
    """The seed has nothing to vary here: the input is the source tree."""

    name = "lint_self"
    work_unit = "files analysed"
    target = ROOT / "src" / "repro"
    warm_passes = 5

    def setup(self) -> None:
        self.cache = AnalysisCache(self.fresh_dir("analysis-cache"))
        populated = analyze([self.target], root=ROOT, cache=self.cache)
        self.ops_per_pass = len(populated.files)

    def run_pass(self, tracer: Tracer) -> Pass:
        with tracer.span("analyze.cold"):
            started = time.perf_counter()
            result = analyze([self.target], root=ROOT)
            wall = time.perf_counter() - started
        self.last = {"result": result}
        return Pass(
            wall_s=wall, work=len(result.files), ops=len(result.files),
            digest=digest({
                "files": [source.relpath for source in result.files],
                "findings": [f.to_dict() for f in result.all_findings],
            }),
        )

    def warm(self):
        started = time.perf_counter()
        result = analyze([self.target], root=ROOT, cache=self.cache)
        return time.perf_counter() - started, result

    def checks(self, passes):
        findings = self.last["result"].new_findings
        _, warm = self.warm()
        return [
            Check("no_findings", not findings,
                  f"{len(findings)} findings in src/repro"),
            Check("warm_reanalyses_nothing",
                  warm.stats.modules_analyzed == 0,
                  f"{warm.stats.modules_analyzed} modules re-analysed"),
        ]

    def layers(self, tracer, untraced, traced):
        result = self.last["result"]
        warm_runs = [self.warm() for _ in range(self.warm_passes)]
        out = {
            "analysis.cold_s": traced.wall_s,
            "analysis.warm_s": median([wall for wall, _ in warm_runs]),
            "analysis.files": len(result.files),
            "analysis.findings": len(result.all_findings),
            "analysis.cache_hits": warm_runs[-1][1].stats.modules_cached,
        }
        for family, seconds in result.stats.checker_seconds.items():
            out[f"analysis.checker_s.{family}"] = seconds
        return out


WORKLOADS = {
    workload.name: workload
    for workload in (
        FigsCold, FigsParallel, FigsWarm, KernelSaturated, KernelLight,
        EstimateServing, LintSelf,
    )
}
