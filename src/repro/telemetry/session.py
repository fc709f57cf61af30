"""The telemetry session the engine drives when telemetry is enabled.

:class:`TelemetrySession` mirrors the validation suite's lifecycle --
``attach`` / ``after_cycle`` / ``finalize`` / ``detach`` -- so the
engine treats both layers identically: one ``is not None`` attribute
test per step when enabled, nothing at all when not.

A session only *reads*: nothing is wrapped or hooked, so an observed
network keeps running whatever step (compiled or generic) it would run
unobserved.  It makes three scans of the routers:

* at ``attach``, the baselines: ``RouterStats`` totals, the per-router
  speculation/stall row and the per-direction crossbar rows.
  ``finalize`` reports deltas against them, so a session attached
  mid-run counts only what it watched.
* every ``sample_period`` cycles, on settled end-of-cycle state, the
  occupancy scan: each input VC's buffered flits into the histogram
  buckets, plus the network's buffered flits and active routers as
  gauges.  Sampling never wakes a sleeping router: a router with
  ``active`` False provably holds no flits (see ``BaseRouter.is_idle``),
  so its VCs count as zero observations without being touched.
* at each window boundary, the deltas of the ``RouterStats`` totals
  since the previous boundary -- one scan per window instead of work
  per event.

``finalize`` turns what the scans gathered into the plain
:attr:`~repro.telemetry.summary.TelemetrySummary.metrics` mapping.  With
``capture_trace`` the session also attaches a
:class:`~repro.sim.trace.Tracer` for Chrome-trace export.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple, Union

from ..sim.topology import LOCAL, NUM_PORTS, PORT_NAMES
from . import summary as names
from .config import TelemetryConfig
from .summary import TelemetrySummary, _metric_key

#: Occupancy histogram bounds (flits); the +inf bucket is implicit.
_BUCKETS = (0, 1, 2, 4, 8, 16, 32)


def _stats_totals(network) -> Dict[str, int]:
    """One scan of every router's counters, as the canonical names."""
    spec_grants = spec_wasted = sa_grants = stalls = forwarded = routed = 0
    for router in network.routers:
        stats = router.stats
        spec_grants += stats.spec_grants
        spec_wasted += stats.spec_wasted
        sa_grants += stats.sa_grants
        stalls += stats.credits_stalled
        forwarded += stats.flits_forwarded
        routed += stats.packets_routed
    return {
        names.SPEC_ATTEMPTED: spec_grants,
        names.SPEC_WON: spec_grants - spec_wasted,
        names.SPEC_LOST: spec_wasted,
        names.SA_GRANTS: sa_grants,
        names.CREDIT_STALLS: stalls,
        names.FLITS_FORWARDED: forwarded,
        names.PACKETS_ROUTED: routed,
        names.FLITS_INJECTED: network.total_flits_injected(),
        names.FLITS_EJECTED: network.total_flits_ejected(),
    }


def _node_totals(network) -> List[Tuple[int, int, int]]:
    """Per router: (spec grants, spec wasted, credit stalls)."""
    return [
        (r.stats.spec_grants, r.stats.spec_wasted, r.stats.credits_stalled)
        for r in network.routers
    ]


def _crossbar_totals(network) -> Tuple[List[int], List[int]]:
    """Network-wide traversals by output and by input direction.

    Output rows are counted at switch traversal.  A flit that entered
    input port ``p`` has traversed the crossbar unless it is still
    buffered there, so the input row is ``received_by_input`` minus
    the buffered flits.
    """
    by_output = [0] * NUM_PORTS
    by_input = [0] * NUM_PORTS
    for router in network.routers:
        stats = router.stats
        for port in range(NUM_PORTS):
            by_output[port] += stats.forwarded_by_output[port]
            by_input[port] += stats.received_by_input[port]
        for ivc in router._all_ivcs:
            by_input[ivc.port] -= len(ivc.buffer)
    return by_output, by_input


def _counter(value: int) -> Dict[str, Any]:
    return {"kind": "counter", "value": value}


class TelemetrySession:
    """One run's worth of metric collection."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.tracer = None
        self.summary: Optional[TelemetrySummary] = None
        #: ``{"start", "end", "values"}`` dicts, compacted pairwise at
        #: ``config.max_windows``.
        self._windows: List[Dict[str, Any]] = []
        self._attached = False
        self._start_cycle = 0
        self._window_start = 0
        # Attach baselines; ``_last`` moves at every window boundary.
        self._start: Dict[str, int] = {}
        self._last: Dict[str, int] = {}
        self._start_by_node: List[Tuple[int, int, int]] = []
        self._out_start = [0] * NUM_PORTS
        self._in_start = [0] * NUM_PORTS
        # What the occupancy samples gathered.
        self._ivcs_per_router = NUM_PORTS
        self._counts = [0] * (len(_BUCKETS) + 1)
        self._occupancy_total = 0
        self._samples = 0
        self._idle_samples = 0
        #: Gauge name -> [last value, total, minimum, maximum].
        self._gauges: Dict[str, List[int]] = {}
        self._window_buffered = 0
        self._window_samples = 0

    # ------------------------------------------------------------------

    def attach(self, network) -> None:
        if self._attached:
            raise RuntimeError("session is already attached to a network")
        self._start_cycle = network.cycle
        self._window_start = network.cycle
        self._start = self._last = _stats_totals(network)
        self._start_by_node = _node_totals(network)
        self._out_start, self._in_start = _crossbar_totals(network)
        self._ivcs_per_router = NUM_PORTS * network.config.num_vcs
        if self.config.capture_trace:
            from ..sim.trace import Tracer

            self.tracer = Tracer.attach(network, self.config.trace_max_events)
        self._attached = True

    def detach(self, network) -> None:
        if self.tracer is not None:
            self.tracer.detach(network)
        self._attached = False

    # ------------------------------------------------------------------

    def after_cycle(self, network) -> None:
        """Observe the settled end-of-step state (every network step)."""
        cycle = network.cycle
        if (cycle - self._start_cycle) % self.config.sample_period == 0:
            self._sample(network)
        if cycle - self._window_start >= self.config.window_cycles:
            self._flush_window(network, cycle)

    def _sample(self, network) -> None:
        counts = self._counts
        active = idle = buffered = 0
        for router in network.routers:
            if not router.active:
                idle += 1
                continue
            active += 1
            for ivc in router._all_ivcs:
                occupancy = len(ivc.buffer)
                counts[bisect_left(_BUCKETS, occupancy)] += 1
                buffered += occupancy
        if idle:
            # An inactive router has every input VC empty: this sample
            # is exactly `ivcs_per_router` zero observations per router.
            counts[0] += idle * self._ivcs_per_router
            self._idle_samples += idle
        self._occupancy_total += buffered
        self._samples += 1
        for name, value in (
            (names.BUFFERED_FLITS, buffered), (names.ACTIVE_ROUTERS, active)
        ):
            gauge = self._gauges.get(name)
            if gauge is None:
                self._gauges[name] = [value, value, value, value]
            else:
                gauge[0] = value
                gauge[1] += value
                gauge[2] = min(gauge[2], value)
                gauge[3] = max(gauge[3], value)
        self._window_buffered += buffered
        self._window_samples += 1

    def _flush_window(self, network, cycle: int) -> None:
        totals = _stats_totals(network)
        values: Dict[str, int] = {
            name: total - self._last[name] for name, total in totals.items()
        }
        values["buffered_flits_sampled"] = self._window_buffered
        values["occupancy_samples"] = self._window_samples
        self._last = totals
        self._window_buffered = self._window_samples = 0
        self._windows.append(
            {"start": self._window_start, "end": cycle, "values": values}
        )
        self._window_start = cycle
        if len(self._windows) >= self.config.max_windows:
            self._compact()

    def _compact(self) -> None:
        """Merge adjacent window pairs, halving the count: early history
        coarsens while the recent past stays at full resolution."""
        merged: List[Dict[str, Any]] = []
        for i in range(0, len(self._windows) - 1, 2):
            first, second = self._windows[i], self._windows[i + 1]
            values = dict(first["values"])
            for name, value in second["values"].items():
                values[name] = values.get(name, 0.0) + value
            merged.append({
                "start": min(first["start"], second["start"]),
                "end": max(first["end"], second["end"]),
                "values": values,
            })
        if len(self._windows) % 2:
            merged.append(self._windows[-1])
        self._windows = merged

    # ------------------------------------------------------------------

    def finalize(self, network) -> TelemetrySummary:
        """Flush the tail window, build the metrics mapping, detach."""
        cycle = network.cycle
        if cycle > self._window_start:
            self._flush_window(network, cycle)
        cycles = cycle - self._start_cycle
        metrics: Dict[str, Dict[str, Any]] = {}
        if self._samples:
            metrics[names.VC_OCCUPANCY] = {
                "kind": "histogram", "bounds": list(_BUCKETS),
                "counts": list(self._counts),
                "total": float(self._occupancy_total),
                "observations": sum(self._counts),
            }
            if self._idle_samples:
                metrics[names.IDLE_ROUTER_SAMPLES] = _counter(
                    self._idle_samples
                )
            metrics[names.OCCUPANCY_SAMPLES] = _counter(self._samples)
            for name, (value, total, low, high) in self._gauges.items():
                metrics[name] = {
                    "kind": "gauge", "value": value,
                    "samples": self._samples, "total": float(total),
                    "minimum": low, "maximum": high,
                }
        for name, total in _stats_totals(network).items():
            metrics[name] = _counter(total - self._start[name])
        metrics[names.ROUTER_CYCLES] = _counter(len(network.routers) * cycles)
        for router, start, now in zip(
            network.routers, self._start_by_node, _node_totals(network)
        ):
            grants, wasted, stalls = (b - a for a, b in zip(start, now))
            node = router.node
            if grants:
                for name, value in (
                    (names.SPEC_ATTEMPTED, grants),
                    (names.SPEC_WON, grants - wasted),
                    (names.SPEC_LOST, wasted),
                ):
                    metrics[_metric_key(name, node=node)] = _counter(value)
            if stalls:
                metrics[_metric_key(names.CREDIT_STALLS, node=node)] = (
                    _counter(stalls)
                )
        # Link capacity per direction: how many physical channels exist
        # (mesh edges have fewer), times the observed cycles.
        links_per_port = [0] * NUM_PORTS
        for _node, port, _neighbor in network.mesh.links():
            links_per_port[port] += 1
        links_per_port[LOCAL] = len(network.routers)  # ejection channels
        by_output, by_input = _crossbar_totals(network)
        for port, direction in enumerate(PORT_NAMES):
            for name, value in (
                (names.CROSSBAR_TRAVERSALS,
                 by_output[port] - self._out_start[port]),
                (names.GRANTS_BY_INPUT,
                 by_input[port] - self._in_start[port]),
                (names.LINK_CYCLES, links_per_port[port] * cycles),
            ):
                metrics[_metric_key(name, port=direction)] = _counter(value)
        self.detach(network)
        self.summary = TelemetrySummary(
            sample_period=self.config.sample_period,
            window_cycles=self.config.window_cycles,
            cycles_observed=cycles,
            metrics=metrics,
            windows=self._windows,
        )
        return self.summary


def resolve_telemetry(
    telemetry: Union["TelemetrySession", TelemetryConfig, bool, None],
    config,
) -> Optional["TelemetrySession"]:
    """Interpret the engine's ``telemetry`` argument.

    ``False`` disables telemetry outright; ``None`` defers to
    ``config.telemetry`` (the knob that travels with
    :class:`~repro.sim.config.SimConfig` through caches and worker
    processes); ``True`` enables default sampling; a
    :class:`TelemetryConfig` configures a fresh session; a
    :class:`TelemetrySession` is used as given.
    """
    if telemetry is False:
        return None
    if telemetry is None:
        embedded = getattr(config, "telemetry", None)
        if embedded is None:
            return None
        return TelemetrySession(embedded)
    if telemetry is True:
        return TelemetrySession(TelemetryConfig())
    if isinstance(telemetry, TelemetryConfig):
        return TelemetrySession(telemetry)
    if isinstance(telemetry, TelemetrySession):
        return telemetry
    raise TypeError(
        "telemetry must be a bool, TelemetryConfig or TelemetrySession, "
        f"got {telemetry!r}"
    )
