"""AST-based invariant linter for the reproduction's conventions.

The headline claims of this repository -- bit-identical fast-vs-reference
steppers, telemetry-on-vs-off oracles, a content-addressed result cache
-- rest on conventions the test suite only *samples* dynamically:

* randomness flows exclusively through seeded :class:`random.Random`
  instances (never the module-level RNG, never the wall clock);
* hot-path iteration order is stable (no iteration over ``set`` values
  where order can leak into simulated results);
* every ``SimConfig`` / ``MeasurementConfig`` / ``TelemetryConfig``
  field participates in the result cache's content key;
* the string-named attributes that validation probes wrap keep
  matching real methods on the sim classes;
* ``__slots__`` declarations cover every assigned attribute, and
  slotted or pool-pickled classes are never patched per instance;
* :mod:`repro.delaymodel` stays pure (no global writes, no module-state
  mutation, no I/O).

Since PR 9 the conventions are also *whole-program*: the hybrid
estimator shares state with a daemon drain thread (lock discipline,
checked by the CONC family) and the specialized step closures are only
fast while they stay allocation-free per cycle (hot-path discipline,
checked by the HOT family over everything reachable from
``Network.step``).

This package turns those conventions into machine-checked invariants: a
dependency-free static-analysis framework (:mod:`repro.analysis.core`),
a cross-file project index with a conservative call graph
(:mod:`repro.analysis.index`), seven project-specific checker families
(:mod:`repro.analysis.checkers`), an incremental driver with a
content-addressed finding cache (:mod:`repro.analysis.driver` /
:mod:`repro.analysis.cache`), and a CLI::

    python -m repro.analysis --check src tests benchmarks

Findings are waived inline, one at a time and with a reason:
``# repro: allow[RULE-ID] reason``.  See ``docs/ANALYSIS.md`` for the
rule catalogue.
"""

from __future__ import annotations

from .cache import AnalysisCache
from .checkers import default_checkers
from .core import Checker, Finding, Rule, SourceFile
from .driver import AnalysisResult, AnalysisStats, analyze
from .index import ClassInfo, ProjectIndex

__all__ = [
    "AnalysisCache",
    "AnalysisResult",
    "AnalysisStats",
    "Checker",
    "ClassInfo",
    "Finding",
    "ProjectIndex",
    "Rule",
    "SourceFile",
    "analyze",
    "default_checkers",
]
