"""Sharded sweep runtime: the one way to run experiments.

::

    from repro.runtime import Experiment

    exp = Experiment(workers=4, cache=True)
    grid = exp.grid(configs, loads=(0.05, 0.25, 0.45), seeds=(1, 2, 3))

:class:`Experiment` owns the measurement scale, the execution backend
(serial, or a process pool running one task per point), the content-addressed
on-disk :class:`ResultCache`, and progress reporting.  Its core is
:meth:`Experiment.map`; ``point`` / ``sweep`` / ``sweeps`` / ``grid`` /
``aggregate`` are thin wrappers over it, completed points stream into
the cache as they land, and an interrupted sweep resumes from its
manifest (see ``docs/RUNTIME.md``).

:class:`Estimator` layers the hybrid serving path on top: surrogate or
cache answers instantly, cycle-accurate refinement in the background
(see ``docs/SURROGATE.md``).
"""

from ..sim.instrumentation import (
    NullProgress,
    PrintProgress,
    ProgressHook,
    RunCounters,
)
from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from .cache import (
    ResultCache,
    SweepManifest,
    code_fingerprint,
    config_key,
    default_cache_dir,
    sweep_key,
)
from .estimator import EstimateAnswer, Estimator
from .experiment import (
    DEFAULT_LOADS,
    Experiment,
    ExperimentStats,
    GridPoint,
    GridResult,
)
from .scheduler import Job, SchedulerStats

__all__ = [
    "DEFAULT_LOADS",
    "EstimateAnswer",
    "Estimator",
    "ExecutionBackend",
    "Experiment",
    "ExperimentStats",
    "GridPoint",
    "GridResult",
    "Job",
    "NullProgress",
    "PrintProgress",
    "ProcessBackend",
    "ProgressHook",
    "ResultCache",
    "RunCounters",
    "SchedulerStats",
    "SerialBackend",
    "SweepManifest",
    "code_fingerprint",
    "config_key",
    "default_cache_dir",
    "resolve_backend",
    "sweep_key",
]
