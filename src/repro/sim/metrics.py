"""Latency and throughput measurement.

Latency follows the paper exactly: "from the time when the first flit of
the packet is created, to the time when its last flit is ejected at the
destination node, including source queuing time and assuming immediate
ejection" (Section 5).  Throughput is the accepted flit rate per node
per cycle, reported as a fraction of network capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..telemetry.summary import TelemetrySummary
from .instrumentation import RunCounters


@dataclass
class LatencyStats:
    """Summary statistics over the latencies of a packet sample."""

    count: int
    mean: float
    minimum: int
    maximum: int
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_latencies(cls, values: Iterable[int]) -> "LatencyStats":
        """Summarise creation-to-ejection latencies (cycles, any order)."""
        latencies = sorted(values)
        if not latencies:
            raise ValueError("no delivered packets to summarise")
        return cls(
            count=len(latencies),
            mean=sum(latencies) / len(latencies),
            minimum=latencies[0],
            maximum=latencies[-1],
            p50=_percentile(latencies, 0.50),
            p95=_percentile(latencies, 0.95),
            p99=_percentile(latencies, 0.99),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count, "mean": self.mean,
            "minimum": self.minimum, "maximum": self.maximum,
            "p50": self.p50, "p95": self.p95, "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LatencyStats":
        return cls(**data)


def _percentile(sorted_values: List[int], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


@dataclass
class RunResult:
    """Outcome of one simulation run at a fixed injection rate."""

    injection_fraction: float          # offered load (fraction of capacity)
    latency: Optional[LatencyStats]    # None if the sample never drained
    accepted_fraction: float           # delivered load (fraction of capacity)
    saturated: bool                    # sample failed to drain in time
    cycles_simulated: int
    sample_packets: int
    spec_grants: int = 0
    spec_wasted: int = 0
    #: Full engine instrumentation (None for results predating it).
    counters: Optional[RunCounters] = None
    #: Checked-mode validation summary (None for unchecked runs).
    #: Excluded from equality: a checked and an unchecked run of the
    #: same point produce the same measurements.
    validation: Optional[Dict[str, Any]] = field(default=None, compare=False)
    #: Telemetry summary (None for unobserved runs).  Excluded from
    #: equality for the same reason: observation never changes what a
    #: run measured (the ``telemetry_on_vs_off`` oracle enforces it).
    telemetry: Optional[TelemetrySummary] = field(default=None, compare=False)
    #: Where this result came from: "simulated" (the engine just ran
    #: it) or "cached" (replayed from the content-addressed store).
    #: Provenance, not measurement -- excluded from equality so the
    #: cached_vs_uncached differential oracle still holds, and
    #: defaulted so cache entries written before the field existed
    #: deserialize cleanly (their source reads as None/unknown).
    source: Optional[str] = field(default=None, compare=False)

    @property
    def average_latency(self) -> float:
        """Mean latency; infinite for saturated (undrained) runs."""
        if self.latency is None:
            return math.inf
        return self.latency.mean

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (exact round trip via from_dict)."""
        return {
            "injection_fraction": self.injection_fraction,
            "latency": self.latency.to_dict() if self.latency else None,
            "accepted_fraction": self.accepted_fraction,
            "saturated": self.saturated,
            "cycles_simulated": self.cycles_simulated,
            "sample_packets": self.sample_packets,
            "spec_grants": self.spec_grants,
            "spec_wasted": self.spec_wasted,
            "counters": self.counters.to_dict() if self.counters else None,
            "validation": self.validation,
            "telemetry": self.telemetry.to_dict() if self.telemetry else None,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        data = dict(data)
        if data.get("latency") is not None:
            data["latency"] = LatencyStats.from_dict(data["latency"])
        if data.get("counters") is not None:
            data["counters"] = RunCounters.from_dict(data["counters"])
        if data.get("telemetry") is not None:
            data["telemetry"] = TelemetrySummary.from_dict(data["telemetry"])
        return cls(**data)

    def describe(self) -> str:
        latency = (
            f"{self.average_latency:7.1f}" if self.latency is not None
            else "    inf"
        )
        return (
            f"load {self.injection_fraction:4.0%}  latency {latency} cycles  "
            f"accepted {self.accepted_fraction:5.1%}"
            f"{'  [saturated]' if self.saturated else ''}"
        )


@dataclass
class AggregateResult:
    """Several same-configuration runs (different seeds), aggregated.

    Seed-to-seed variation quantifies the measurement noise the paper's
    single 100k-packet runs average away; with reduced sample sizes the
    95% confidence interval says how much to trust a comparison.
    """

    injection_fraction: float
    runs: List[RunResult]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("aggregate needs at least one run")
        if any(
            r.injection_fraction != self.injection_fraction for r in self.runs
        ):
            raise ValueError("aggregated runs must share the injection rate")

    @property
    def any_saturated(self) -> bool:
        return any(r.saturated for r in self.runs)

    @property
    def mean_latency(self) -> float:
        if self.any_saturated:
            return math.inf
        return sum(r.average_latency for r in self.runs) / len(self.runs)

    @property
    def latency_std(self) -> float:
        if self.any_saturated or len(self.runs) < 2:
            return 0.0
        mean = self.mean_latency
        variance = sum(
            (r.average_latency - mean) ** 2 for r in self.runs
        ) / (len(self.runs) - 1)
        return math.sqrt(variance)

    @property
    def latency_ci95(self) -> float:
        """Half-width of the normal-approximation 95% CI of the mean."""
        if len(self.runs) < 2:
            return 0.0
        return 1.96 * self.latency_std / math.sqrt(len(self.runs))

    @property
    def mean_accepted(self) -> float:
        return sum(r.accepted_fraction for r in self.runs) / len(self.runs)

    def describe(self) -> str:
        if self.any_saturated:
            return (
                f"load {self.injection_fraction:4.0%}  latency     inf  "
                f"[saturated in {sum(r.saturated for r in self.runs)}"
                f"/{len(self.runs)} seeds]"
            )
        return (
            f"load {self.injection_fraction:4.0%}  latency "
            f"{self.mean_latency:7.1f} +- {self.latency_ci95:4.1f} cycles  "
            f"accepted {self.mean_accepted:5.1%}  ({len(self.runs)} seeds)"
        )


@dataclass
class SweepResult:
    """A latency-throughput curve: one RunResult per injection rate."""

    label: str
    points: List[RunResult] = field(default_factory=list)

    def zero_load_latency(self) -> float:
        """Latency of the lowest-load point (the curve's left end)."""
        if not self.points:
            raise ValueError("empty sweep")
        lowest = min(self.points, key=lambda p: p.injection_fraction)
        return lowest.average_latency

    def saturation_fraction(self, latency_limit: float) -> float:
        """Highest offered load with average latency <= ``latency_limit``.

        This is how the paper's saturation percentages are read off the
        latency-throughput curves: the load where the curve turns
        vertical.  Returns 0.0 if even the lightest load exceeds the
        limit.
        """
        ordered = sorted(self.points, key=lambda p: p.injection_fraction)
        saturation = 0.0
        for point in ordered:
            if point.saturated or point.average_latency > latency_limit:
                break
            saturation = point.injection_fraction
        return saturation

    def describe(self) -> str:
        lines = [f"{self.label}:"]
        for point in sorted(self.points, key=lambda p: p.injection_fraction):
            lines.append("  " + point.describe())
        return "\n".join(lines)
