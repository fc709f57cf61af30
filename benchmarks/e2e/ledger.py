"""Shared pieces of the perf ledger: the metric registry, spans, digests.

``BENCHMARK.json`` at the repository root is the single registry of
metric names, units, directions and bounds; everything here and in the
sibling modules reads it instead of repeating a name.  Nothing in this
module imports :mod:`repro`, so the orchestrating parent process (which
only spawns children and tabulates their records) stays import-light.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Bumped when a record's layout or a metric's definition changes, so a
#: comparison across harness versions is refused instead of misread.
HARNESS_VERSION = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    """The benchmark contract: workloads, metrics, units, bounds."""
    return json.loads(SPEC_PATH.read_text())


def metric_table(spec: Dict[str, Any], kind: str) -> Dict[str, Dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` metrics of ``spec``, by name."""
    return {metric["name"]: metric for metric in spec[kind]}


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent id, pass id.

    A disabled tracer hands out a shared no-op context, so the untraced
    passes that feed the end-to-end metrics pay one attribute test per
    span site and record nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self.pass_id = 0
        self._stack: List[int] = []

    def _new(self, name: str, start: float, end: Optional[float]) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "name": name, "start": start, "end": end,
        }
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[Dict[str, Any]]:
        span = self._new(name, time.perf_counter(), None)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span observed from a callback (no nesting)."""
        if self.enabled:
            self._new(name, start, end)

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    own = {
        span["id"]: span["end"] - span["start"]
        for span in spans if span["end"] is not None
    }
    for span in spans:
        parent = span["parent"]
        if parent in own and span["end"] is not None:
            own[parent] -= span["end"] - span["start"]
    return own


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


# ---------------------------------------------------------------------------
# Digests.
# ---------------------------------------------------------------------------

def comparable(value: Any) -> Any:
    """``value`` reduced to what its dataclasses compare on.

    Wall-clock and provenance fields of the simulator's results are
    declared ``compare=False``; dropping exactly those makes the digest
    cover every simulated statistic and nothing host-dependent.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: comparable(getattr(value, f.name))
            for f in dataclasses.fields(value) if f.compare
        }
    if isinstance(value, dict):
        return {str(k): comparable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [comparable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)      # inf/nan are not JSON
    return value


def digest(value: Any) -> str:
    canonical = json.dumps(
        comparable(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Machine stamp.
# ---------------------------------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not on every platform
        return os.cpu_count() or 1


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None             # an exported checkout: no provenance to read
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def machine_stamp(seed: int) -> Dict[str, Any]:
    """Provenance carried by every raw record and by the summary.

    ``workers`` and ``loadavg_end`` are filled in when the workload ends.
    """
    status = _git("status", "--porcelain")
    return {
        "harness_version": HARNESS_VERSION,
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
        "workers": None,
        "loadavg_start": os.getloadavg()[0],
        "loadavg_end": None,
    }


def host_flags(stamp: Dict[str, Any]) -> List[str]:
    """Conditions that make a record's timings suspect (flagged, not refused)."""
    flags = []
    if stamp["nproc"] < 2:
        flags.append("undersized_host")
    if stamp["loadavg_start"] > stamp["nproc"]:
        flags.append("noisy_host")
    return flags
