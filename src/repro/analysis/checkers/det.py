"""DET: determinism rules for the simulator, delay model and surrogate.

Bit-identical reruns -- the property every differential oracle
(fast-vs-reference, telemetry-on-vs-off, cached-vs-uncached) asserts --
require that nothing outside the configuration feeds simulated
results.  A draw from the process-global RNG needs no rule: the two
runs of each differential oracle draw different values from it, so
tier-1 fails.  Neither does hash-order iteration in the kernel: an
order that changes a grant changes the state-digest golden, and one
that changes none is harmless.

* ``DET002`` -- a wall-clock / entropy source (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ...) inside
  ``repro.sim`` / ``repro.delaymodel`` / ``repro.surrogate``.  A test
  machine fast enough to stay inside a wall-clock budget never shows
  the difference, so the bit-identity battery cannot see it.
  Wall-clock *instrumentation* that provably never reaches simulated
  state is fine -- annotate it
  ``# repro: allow[DET002] wall-clock stats only``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Finding, Rule, SourceFile, call_name

#: ``module.attr`` call targets that read wall clocks or OS entropy.
CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
})


class DeterminismChecker(Checker):
    name = "det"
    rules = (
        Rule("DET002",
             "wall-clock or OS-entropy source in deterministic code"),
    )

    def check_file(self, source: SourceFile, index) -> Iterable[Finding]:
        if not source.in_domain("sim", "delaymodel", "surrogate", "analysis"):
            return
        for node in source.nodes:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    if dotted in CLOCK_CALLS:
                        yield self.finding(
                            "DET002", source, node,
                            f"'from {node.module} import {alias.name}' "
                            f"imports a wall-clock/entropy source into "
                            f"deterministic code",
                        )
            elif isinstance(node, ast.Call):
                dotted = call_name(node)
                if dotted in CLOCK_CALLS:
                    yield self.finding(
                        "DET002", source, node,
                        f"call to {dotted}() is wall-clock/entropy-"
                        f"dependent; deterministic code must not read it",
                    )
