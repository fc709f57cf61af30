"""Collectors: the probe points one telemetry session observes.

Each :class:`Collector` attaches to a :class:`~repro.sim.network.Network`
and feeds the session's :class:`~repro.telemetry.registry.MetricRegistry`
and timeseries windows.  Every collector only *reads*: nothing is
wrapped or hooked, so an observed network keeps running whatever step
(compiled or generic) it would run unobserved.  Two observation
styles, mirroring the validation probes:

* *sampled* -- :meth:`Collector.sample` runs every ``sample_period``
  cycles on settled end-of-cycle state (buffer occupancy, activity).
  Sampling never wakes a sleeping router: a router with ``active``
  False provably holds no flits (see ``BaseRouter.is_idle``), so its
  occupancy is integrated analytically as zero without touching its
  input VCs or re-arming it.
* *harvested* -- everything routers already count (speculation, credit
  stalls, switch grants, per-direction crossbar traversals) is taken
  as deltas of ``RouterStats`` between ``attach`` and a window
  boundary or ``finalize``, which costs one 64-router scan per window
  instead of per event.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.topology import LOCAL, NUM_PORTS, PORT_NAMES
from . import summary as names
from .config import TelemetryConfig
from .registry import MetricRegistry


class Collector:
    """Base collector: attach, sample, window flush, finalize."""

    name = "collector"

    def attach(self, network, registry: MetricRegistry) -> None:
        """Snapshot baselines."""

    def sample(self, network, registry: MetricRegistry, cycle: int) -> None:
        """Observe settled state (called every ``sample_period`` cycles)."""

    def window(self, network, values: Dict[str, float]) -> None:
        """Contribute this window's deltas to ``values`` at flush time."""

    def finalize(self, network, registry: MetricRegistry,
                 cycles: int) -> None:
        """Record whole-run totals (called once, after the last cycle)."""


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


class ThroughputCollector(Collector):
    """Network-level flit/packet/grant/speculation/stall deltas.

    Covers the per-window rate view of everything the routers already
    count, plus the per-router speculation and credit-stall breakdown
    the paper's rate arguments need (``{node=N}`` labels at finalize).
    """

    name = "throughput"

    def __init__(self) -> None:
        #: Totals at ``attach`` (what ``finalize`` subtracts) and at the
        #: last window boundary (what ``window`` subtracts).
        self._start: Dict[str, int] = {}
        self._start_by_node: List[Tuple[int, int, int]] = []
        self._last: Dict[str, int] = {}

    def attach(self, network, registry: MetricRegistry) -> None:
        self._start = self._last = _stats_totals(network)
        self._start_by_node = _node_totals(network)

    def window(self, network, values: Dict[str, float]) -> None:
        totals = _stats_totals(network)
        for name, total in totals.items():
            values[name] = total - self._last[name]
        self._last = totals

    def finalize(self, network, registry: MetricRegistry,
                 cycles: int) -> None:
        for name, total in _stats_totals(network).items():
            registry.counter(name).inc(total - self._start[name])
        registry.counter(names.ROUTER_CYCLES).inc(
            len(network.routers) * cycles
        )
        for router, start, now in zip(
            network.routers, self._start_by_node, _node_totals(network)
        ):
            grants, wasted, stalls = (b - a for a, b in zip(start, now))
            node = router.node
            if grants:
                registry.counter(
                    names.SPEC_ATTEMPTED, node=node
                ).inc(grants)
                registry.counter(
                    names.SPEC_WON, node=node
                ).inc(grants - wasted)
                registry.counter(
                    names.SPEC_LOST, node=node
                ).inc(wasted)
            if stalls:
                registry.counter(
                    names.CREDIT_STALLS, node=node
                ).inc(stalls)


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


class CrossbarActivityCollector(Collector):
    """Exact per-direction crossbar traversals and grant fairness.

    Deltas of the ``RouterStats`` direction rows between ``attach`` and
    ``finalize``: traversals by *output* direction (channel
    utilization) and by *input* direction (arbiter grant distribution
    -- each traversal is one executed switch grant).
    """

    name = "crossbar"

    def __init__(self) -> None:
        self._out_start = [0] * NUM_PORTS
        self._in_start = [0] * NUM_PORTS

    def attach(self, network, registry: MetricRegistry) -> None:
        self._out_start, self._in_start = _crossbar_totals(network)

    def window(self, network, values: Dict[str, float]) -> None:
        # Per-direction detail stays whole-run; windows get the network
        # total through ThroughputCollector's flits_forwarded delta.
        pass

    def finalize(self, network, registry: MetricRegistry,
                 cycles: int) -> None:
        # Link capacity per direction: how many physical channels exist
        # (mesh edges have fewer), times the observed cycles.
        links_per_port = [0] * NUM_PORTS
        for _node, port, _neighbor in network.mesh.links():
            links_per_port[port] += 1
        links_per_port[LOCAL] = len(network.routers)  # ejection channels
        by_output, by_input = _crossbar_totals(network)
        for port in range(NUM_PORTS):
            direction = PORT_NAMES[port]
            registry.counter(
                names.CROSSBAR_TRAVERSALS, port=direction
            ).inc(by_output[port] - self._out_start[port])
            registry.counter(
                names.GRANTS_BY_INPUT, port=direction
            ).inc(by_input[port] - self._in_start[port])
            registry.counter(names.LINK_CYCLES, port=direction).inc(
                links_per_port[port] * cycles
            )


class OccupancyCollector(Collector):
    """Sampled per-VC buffer occupancy and router activity.

    Active routers are scanned VC by VC; sleeping routers contribute
    their (provably zero) occupancy analytically, without being touched.
    """

    name = "occupancy"

    def __init__(self) -> None:
        self._ivcs_per_router = NUM_PORTS
        self._window_buffered = 0
        self._window_samples = 0

    def attach(self, network, registry: MetricRegistry) -> None:
        self._ivcs_per_router = NUM_PORTS * network.config.num_vcs

    def sample(self, network, registry: MetricRegistry, cycle: int) -> None:
        histogram = registry.histogram(names.VC_OCCUPANCY)
        active = 0
        idle = 0
        buffered = 0
        for router in network.routers:
            if not router.active:
                # Idle span integrated analytically: an inactive router
                # has every input VC empty, so this sample is exactly
                # `ivcs_per_router` zero observations.
                idle += 1
                continue
            active += 1
            for ivc in router._all_ivcs:
                occupancy = len(ivc.buffer)
                histogram.observe(occupancy)
                buffered += occupancy
        if idle:
            histogram.observe(0, count=idle * self._ivcs_per_router)
            registry.counter(names.IDLE_ROUTER_SAMPLES).inc(idle)
        registry.counter(names.OCCUPANCY_SAMPLES).inc(1)
        registry.gauge(names.BUFFERED_FLITS).set(buffered)
        registry.gauge(names.ACTIVE_ROUTERS).set(active)
        self._window_buffered += buffered
        self._window_samples += 1

    def window(self, network, values: Dict[str, float]) -> None:
        values["buffered_flits_sampled"] = self._window_buffered
        values["occupancy_samples"] = self._window_samples
        self._window_buffered = 0
        self._window_samples = 0


def default_collectors(config: TelemetryConfig) -> List[Collector]:
    """The standard collector set for one run."""
    return [
        ThroughputCollector(),
        CrossbarActivityCollector(),
        OccupancyCollector(),
    ]
