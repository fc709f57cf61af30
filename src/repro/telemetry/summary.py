"""The serializable digest of one telemetry session.

A :class:`TelemetrySummary` is what survives the run: it rides on
:class:`~repro.sim.metrics.RunResult` (a ``compare=False`` field, like
the validation summary -- observing a run never changes what it
measured), round-trips exactly through JSON for the on-disk result
cache, pickles across process-pool hops, and merges across the points
of a sweep.

Its numbers live in :attr:`TelemetrySummary.metrics`, the plain mapping
it serializes to: rendered name -> payload, where a name renders as
``crossbar_traversals{port=east}`` (labels sorted) and a payload is one
of

* counter -- ``{"kind", "value"}``;
* gauge -- ``{"kind", "value", "samples", "total", "minimum",
  "maximum"}``, a sampled value with its running extrema;
* histogram -- ``{"kind", "bounds", "counts", "total",
  "observations"}``, where ``counts[i]`` tallies observations in
  ``(bounds[i-1], bounds[i]]`` and the final slot everything above the
  last bound.

Naming scheme (see ``docs/OBSERVABILITY.md`` for the full catalogue):
unlabeled counters are network-wide totals; ``{node=N}`` labels carry
per-router detail; ``{port=<direction>}`` labels carry per-direction
crossbar/link detail.  Denominators that depend on the run length
(``link_cycles``, ``router_cycles``) are materialized as counters at
finalize time so every derived rate stays a ratio of two mergeable
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Canonical metric names a session records.
SPEC_ATTEMPTED = "speculation_attempted"
SPEC_WON = "speculation_won"
SPEC_LOST = "speculation_lost"
SA_GRANTS = "switch_grants"
CREDIT_STALLS = "credit_stall_cycles"
FLITS_INJECTED = "flits_injected"
FLITS_EJECTED = "flits_ejected"
FLITS_FORWARDED = "flits_forwarded"
PACKETS_ROUTED = "packets_routed"
CROSSBAR_TRAVERSALS = "crossbar_traversals"
GRANTS_BY_INPUT = "grants_by_input_port"
LINK_CYCLES = "link_cycles"
ROUTER_CYCLES = "router_cycles"
VC_OCCUPANCY = "vc_buffer_occupancy"
BUFFERED_FLITS = "network_buffered_flits"
ACTIVE_ROUTERS = "active_routers"
IDLE_ROUTER_SAMPLES = "idle_router_samples"
OCCUPANCY_SAMPLES = "occupancy_samples"


def _metric_key(name: str, **labels) -> str:
    """The rendered name: ``name`` or ``name{a=1,b=x}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _copy(record: Dict[str, Any]) -> Dict[str, Any]:
    """A metric payload or window, with its lists and dicts copied."""
    return {
        key: type(value)(value) if isinstance(value, (list, dict)) else value
        for key, value in record.items()
    }


def _merge_metric(mine: Dict[str, Any], theirs: Dict[str, Any]) -> None:
    """Fold ``theirs`` into ``mine`` (same rendered name, same kind)."""
    if mine["kind"] == "counter":
        mine["value"] += theirs["value"]
    elif mine["kind"] == "gauge":
        mine["samples"] += theirs["samples"]
        mine["total"] += theirs["total"]
        mine["value"] = theirs["value"]  # last writer wins
        for extremum, pick in (("minimum", min), ("maximum", max)):
            if theirs[extremum] is not None:
                mine[extremum] = (
                    theirs[extremum] if mine[extremum] is None
                    else pick(mine[extremum], theirs[extremum])
                )
    else:
        if mine["bounds"] != theirs["bounds"]:
            raise ValueError(
                "cannot merge histograms with different buckets: "
                f"{mine['bounds']} vs {theirs['bounds']}"
            )
        mine["counts"] = [
            a + b for a, b in zip(mine["counts"], theirs["counts"])
        ]
        mine["total"] += theirs["total"]
        mine["observations"] += theirs["observations"]


@dataclass
class TelemetrySummary:
    """Everything one telemetry session observed, in mergeable form."""

    sample_period: int
    window_cycles: int
    cycles_observed: int
    #: How many runs were folded into this summary (sweep merges).
    runs: int = 1
    #: Rendered metric name -> payload (see the module docstring).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``{"start", "end", "values"}`` dicts: the deltas accumulated over
    #: each ``[start, end)`` cycle span, oldest first.  Window history
    #: is per-run; merged summaries drop it (cycle spans of different
    #: runs are not comparable).
    windows: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Derived rates.
    # ------------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """A counter's or gauge's value (0.0 when it was never recorded)."""
        payload = self.metrics.get(_metric_key(name, **labels))
        return 0.0 if payload is None else payload["value"]

    @property
    def speculation_attempted(self) -> float:
        return self.value(SPEC_ATTEMPTED)

    @property
    def speculation_won(self) -> float:
        return self.value(SPEC_WON)

    @property
    def speculation_win_rate(self) -> float:
        """Fraction of speculative switch grants that moved a flit.

        0.0 when the router never speculated (wormhole/non-speculative
        configurations) rather than a division error.
        """
        attempted = self.speculation_attempted
        if not attempted:
            return 0.0
        return self.speculation_won / attempted

    @property
    def channel_utilization(self) -> float:
        """Fraction of inter-router link-cycles carrying a flit."""
        link_cycles = sum(
            self.value(LINK_CYCLES, port=port)
            for port in self.directions()
        )
        if not link_cycles:
            return 0.0
        traversals = sum(
            self.value(CROSSBAR_TRAVERSALS, port=port)
            for port in self.directions()
        )
        return traversals / link_cycles

    def port_utilization(self, port: str) -> float:
        """Link utilization of one direction (``east`` .. ``local``)."""
        link_cycles = self.value(LINK_CYCLES, port=port)
        if not link_cycles:
            return 0.0
        return self.value(CROSSBAR_TRAVERSALS, port=port) / link_cycles

    def directions(self) -> List[str]:
        """Non-local directions with recorded link capacity."""
        return [
            port for port in ("east", "west", "north", "south")
            if _metric_key(LINK_CYCLES, port=port) in self.metrics
        ]

    @property
    def mean_vc_occupancy(self) -> float:
        """Mean sampled flits per virtual-channel buffer."""
        histogram = self.metrics.get(VC_OCCUPANCY)
        if histogram is None:
            return 0.0
        return _mean(histogram["total"], histogram["observations"])

    @property
    def peak_vc_occupancy(self) -> float:
        gauge = self.metrics.get(BUFFERED_FLITS)
        if gauge is None or gauge["maximum"] is None:
            return 0.0
        return gauge["maximum"]

    @property
    def credit_stall_rate(self) -> float:
        """Credit-stall events per router-cycle."""
        router_cycles = self.value(ROUTER_CYCLES)
        if not router_cycles:
            return 0.0
        return self.value(CREDIT_STALLS) / router_cycles

    def grant_share_by_input(self) -> Dict[str, float]:
        """Fraction of switch grants won by each input direction."""
        shares = {
            port: self.value(GRANTS_BY_INPUT, port=port)
            for port in ("local", "east", "west", "north", "south")
        }
        total = sum(shares.values())
        if not total:
            return {}
        return {port: count / total for port, count in shares.items()}

    # ------------------------------------------------------------------
    # Merging and serialization.
    # ------------------------------------------------------------------

    def merge(self, other: "TelemetrySummary") -> "TelemetrySummary":
        """Fold another run's summary into this one (in place)."""
        if other.sample_period != self.sample_period:
            raise ValueError(
                "cannot merge summaries with different sample periods: "
                f"{self.sample_period} vs {other.sample_period}"
            )
        self.cycles_observed += other.cycles_observed
        self.runs += other.runs
        for name, theirs in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = _copy(theirs)
            else:
                _merge_metric(mine, theirs)
        # Window timelines of distinct runs are not comparable.
        self.windows = []
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sample_period": self.sample_period,
            "window_cycles": self.window_cycles,
            "cycles_observed": self.cycles_observed,
            "runs": self.runs,
            "metrics": {
                name: _copy(payload) for name, payload in self.metrics.items()
            },
            "windows": [_copy(w) for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetrySummary":
        return cls(
            sample_period=data["sample_period"],
            window_cycles=data["window_cycles"],
            cycles_observed=data["cycles_observed"],
            runs=data.get("runs", 1),
            metrics={
                name: _copy(payload)
                for name, payload in data["metrics"].items()
            },
            windows=[_copy(w) for w in data.get("windows", [])],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TelemetrySummary):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def describe(self) -> str:
        parts = [
            f"{self.cycles_observed:,} cycles observed",
            f"{len(self.windows)} windows",
        ]
        if self.speculation_attempted:
            parts.append(f"spec win {self.speculation_win_rate:.1%}")
        parts.append(f"links {self.channel_utilization:.1%} utilized")
        return ", ".join(parts)


def merge_summaries(
    summaries: Iterable[Optional[TelemetrySummary]],
) -> Optional[TelemetrySummary]:
    """Merge the non-None summaries of a sweep into one (None if none)."""
    merged: Optional[TelemetrySummary] = None
    for summary in summaries:
        if summary is None:
            continue
        if merged is None:
            merged = TelemetrySummary.from_dict(summary.to_dict())
        else:
            merged.merge(summary)
    return merged
