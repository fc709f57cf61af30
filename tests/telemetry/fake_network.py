"""A stand-in for :class:`~repro.sim.network.Network` with hand-set state.

It carries exactly what a :class:`~repro.telemetry.TelemetrySession`
reads -- router stats, input-VC buffers, ``active`` flags, the mesh's
link list -- so session-level tests can place chosen occupancies and
counter moves in chosen cycles without simulating anything.
"""

from types import SimpleNamespace

from repro.sim.topology import NUM_PORTS
from repro.telemetry import TelemetrySession


class FakeRouter:
    def __init__(self, node, occupancies):
        self.node = node
        self.stats = SimpleNamespace(
            spec_grants=0, spec_wasted=0, sa_grants=0, credits_stalled=0,
            flits_forwarded=0, packets_routed=0,
            forwarded_by_output=[0] * NUM_PORTS,
            received_by_input=[0] * NUM_PORTS,
        )
        self.set_occupancy(occupancies)

    def set_occupancy(self, occupancies):
        """One buffered-flit count per input VC; None puts the router to
        sleep (a sleeping router's VCs are empty and never read)."""
        self.active = occupancies is not None
        self._all_ivcs = [
            SimpleNamespace(port=i % NUM_PORTS, buffer=[None] * count)
            for i, count in enumerate(occupancies or ())
        ]


class FakeNetwork:
    """One router per row of VC occupancies (see ``set_occupancy``)."""

    def __init__(self, *rows, num_vcs=1):
        self.cycle = 0
        self.config = SimpleNamespace(num_vcs=num_vcs)
        self.mesh = SimpleNamespace(links=lambda: ())
        self.routers = [FakeRouter(node, row) for node, row in enumerate(rows)]

    def total_flits_injected(self):
        return 0

    def total_flits_ejected(self):
        return 0

    def step(self, session):
        self.cycle += 1
        session.after_cycle(self)


def observe(network, telemetry, cycles, before_step=None):
    """Attach a session, run ``cycles`` steps, return the summary.

    ``before_step(cycle)`` (optional) edits the network before each
    step; ``cycle`` counts from 0.
    """
    session = TelemetrySession(telemetry)
    session.attach(network)
    for cycle in range(cycles):
        if before_step is not None:
            before_step(cycle)
        network.step(session)
    return session.finalize(network)
