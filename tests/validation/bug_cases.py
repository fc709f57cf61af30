"""The injected-bug catalogue: one definition of every bug case.

Each :class:`BugCase` pairs a small config with an ``inject`` function
that monkeypatches one real defect into the simulator -- a credit leak,
a doubled grant, a flipped state bit, a corrupted route table.  The
bug-injection tests arm one case and assert the probe that must catch
it; the trip table (``test_trip_table.py``) arms every case under every
default probe and pins which probes trip and how many cycles after the
defect first changed the run.

``inject(monkeypatch, armed)`` installs the patch; the patch calls
``armed.fire()`` the first time the defect changes the run, which
stamps :attr:`Armed.cycle` with the network's clock (the cycle of the
step that is running).  Patches go in before the network is wired, so
``compile_step`` sees them: a patched step method runs the generic
path, a patched kernel builder is compiled in.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

import pytest

from repro.sim.allocators import Grant, SpeculativeSwitchAllocator
from repro.sim.config import MeasurementConfig, RouterKind, SimConfig
from repro.sim.credit import CreditCounter
from repro.sim.engine import Simulator
from repro.sim.matching import MaximumMatchingAllocator
from repro.sim.network import Source
from repro.sim.routers import specialized
from repro.sim.routers.base import BaseRouter, VCState
from repro.sim.routers.wormhole import WormholeRouter
from repro.sim.topology import LOCAL, NUM_PORTS

MEAS = MeasurementConfig(
    warmup_cycles=300, sample_packets=100, max_cycles=12_000,
    drain_cycles=6_000,
)

#: Cycle after which a one-shot corruption arms -- past warm-up, so
#: traffic is flowing and the corrupted state is live.
CORRUPT_AFTER = 400

#: Center node of the 4x4 mesh (x=1, y=1): every port has a real
#: neighbor, so corrupted state is on links the probes watch.
CENTER = 5


def tiny_config(kind, **overrides):
    defaults = dict(
        router_kind=kind, mesh_radix=4,
        num_vcs=2 if kind.uses_vcs else 1,
        buffers_per_vc=5, injection_fraction=0.3, seed=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class Armed:
    """One armed case: the network it runs on and when it first fired."""

    def __init__(self) -> None:
        self.network = None
        self.cycle: Optional[int] = None

    @property
    def fired(self) -> bool:
        return self.cycle is not None

    def fire(self) -> None:
        if self.cycle is None:
            self.cycle = self.network.cycle


@dataclass(frozen=True)
class BugCase:
    name: str
    config: SimConfig
    inject: Callable[[pytest.MonkeyPatch, Armed], None]

    def arm(self, monkeypatch, checked=True, measurement=MEAS):
        """Install the bug, then wire a simulator: ``(sim, armed)``."""
        armed = Armed()
        self.inject(monkeypatch, armed)
        sim = Simulator(self.config, measurement, checked=checked)
        armed.network = sim.network
        return sim, armed


# ----------------------------------------------------------------------
# Credit flow.
# ----------------------------------------------------------------------


def drop_first_credit(monkeypatch, armed):
    """A credit arrives but is never restored."""
    real = BaseRouter.receive_credit

    def leaky(self, port, vc):
        if not armed.fired:
            armed.fire()
            return
        real(self, port, vc)

    monkeypatch.setattr(BaseRouter, "receive_credit", leaky)


def duplicate_first_credit(monkeypatch, armed):
    """A credit is restored twice."""
    real = BaseRouter.receive_credit

    def doubling(self, port, vc):
        real(self, port, vc)
        if not armed.fired and self.output_vcs[port][vc].credits.in_use:
            armed.fire()
            real(self, port, vc)

    monkeypatch.setattr(BaseRouter, "receive_credit", doubling)


def drop_first_source_credit(monkeypatch, armed):
    """A credit returns to a source but is never restored."""
    real = Source.restore_credit

    def leaky(self, vc):
        if not armed.fired:
            armed.fire()
            return
        real(self, vc)

    monkeypatch.setattr(Source, "restore_credit", leaky)


# ----------------------------------------------------------------------
# Switch allocation.
# ----------------------------------------------------------------------


def unfiltered_speculation(monkeypatch, armed):
    """The combiner stops filtering speculative grants: they no longer
    yield to non-speculative ones.  Fires the first time a surviving
    speculative grant shares an input or output with a non-speculative
    one.  The patched ``allocate`` keeps every router on the generic
    path, which calls it."""

    def unfiltered(self, nonspec_requests, spec_requests):
        nonspec_grants = self._nonspec.allocate(nonspec_requests)
        spec_grants = self._spec.allocate(spec_requests)
        inputs = {g.group for g in nonspec_grants}
        outputs = {g.resource for g in nonspec_grants}
        if any(g.group in inputs or g.resource in outputs
               for g in spec_grants):
            armed.fire()
        return nonspec_grants, spec_grants

    monkeypatch.setattr(SpeculativeSwitchAllocator, "allocate", unfiltered)


def fabricated_grant(monkeypatch, armed):
    """A speculative grant answering no request, colliding with nothing."""
    real = SpeculativeSwitchAllocator.allocate

    def fabricating(self, nonspec_requests, spec_requests):
        nonspec_grants, spec_grants = real(
            self, nonspec_requests, spec_requests
        )
        if not nonspec_grants and not spec_grants:
            return nonspec_grants, spec_grants
        armed.fire()
        return nonspec_grants, list(spec_grants) + [Grant(4, 0, 4)]

    monkeypatch.setattr(SpeculativeSwitchAllocator, "allocate", fabricating)


def doubled_spec_grant(kernel):
    """A compiled speculative kernel that also grants a taken output to
    a second input -- pending traversal, credit and stats exactly as a
    real grant -- on the fast stepper's compiled step."""

    def inject(monkeypatch, armed):
        real = getattr(specialized, kernel)

        def build(router, cand=None):
            alloc = real(router, cand)

            def doubled(cycle):
                active = router._active_mask  # the non-speculative bidders
                alloc(cycle)
                if armed.fired or not router.pending_st:
                    return
                port, vc = router.pending_st[0]
                taken = router.input_vcs[port][vc].route
                for ivc in router._all_ivcs:
                    if (ivc.port != port and ivc.route == taken
                            and active >> ivc.flat & 1 and ivc.buffer
                            and router.output_vcs[taken][ivc.out_vc].credits
                            and (ivc.port, ivc.vc) not in router.pending_st):
                        router._grant_switch(ivc.port, ivc.vc, cycle)
                        armed.fire()
                        return

            return doubled

        monkeypatch.setattr(specialized, kernel, build)

    return inject


def doubled_switch_grant(kernel):
    """The same doubled grant from the plain VC router's switch
    allocation or the wormhole allocator."""

    def inject(monkeypatch, armed):
        real = getattr(specialized, kernel)

        def build(router, grant, **flags):
            alloc = real(router, grant, **flags)

            def doubled(cycle):
                active = router._active_mask  # the bidders
                alloc(cycle)
                if armed.fired or not router.pending_st:
                    return
                port, vc = router.pending_st[-1]
                taken = router.input_vcs[port][vc].route
                for ivc in router._all_ivcs:
                    # A wormhole head gets its output VC with the grant.
                    out_vc = 0 if ivc.out_vc is None else ivc.out_vc
                    if (ivc.port != port and ivc.route == taken
                            and active >> ivc.flat & 1 and ivc.buffer
                            and router.output_vcs[taken][out_vc].credits
                            and (ivc.port, ivc.vc) not in router.pending_st):
                        ivc.out_vc = out_vc
                        grant(ivc.port, ivc.vc, cycle)
                        armed.fire()
                        return

            return doubled

        monkeypatch.setattr(specialized, kernel, build)

    return inject


def unrecorded_spec_grants(monkeypatch, armed):
    """The compiled speculative combiner stops recording its grants in
    ``spec_grant_mask``: a surviving speculative grant then looks like a
    non-speculative grant to a VC that was not ACTIVE."""
    real = specialized._make_spec_combine

    def build(router):
        combine = real(router)

        def unrecorded(grants, taken_in, cycle):
            combine(grants, taken_in, cycle)
            if router.spec_grant_mask:
                router.spec_grant_mask = 0
                armed.fire()

        return unrecorded

    monkeypatch.setattr(specialized, "_make_spec_combine", build)


def stalled_allocator(monkeypatch, armed):
    """Switch allocation never runs: flits sit in their buffers."""

    def stalled(self, cycle):
        if self._active_mask:
            armed.fire()

    monkeypatch.setattr(WormholeRouter, "_allocation_phase", stalled)


def flipped_adjacency_bit(monkeypatch, armed):
    """One group's adjacency bitmask points at a resource nobody
    requested, so the maximum matcher emits a grant answering no
    request.  The compiled kernels call the patched ``_match`` too."""
    real = MaximumMatchingAllocator._match

    def corrupting(self, adjacency, chooser):
        # Target the speculative switch sub-allocators (p resources);
        # leave the (p*v)-resource VC allocator alone.
        if self.num_resources == NUM_PORTS and adjacency:
            requested = 0
            for mask in adjacency.values():
                requested |= mask
            group = sorted(adjacency)[0]
            for resource in range(self.num_resources):
                if not requested >> resource & 1:
                    adjacency[group] = 1 << resource
                    chooser[group * self.num_resources + resource] = 0
                    armed.fire()
                    break
        return real(self, adjacency, chooser)

    monkeypatch.setattr(MaximumMatchingAllocator, "_match", corrupting)


# ----------------------------------------------------------------------
# One-shot corruption of a router's state after its phases ran.
# ----------------------------------------------------------------------


def corrupt_once(corrupt):
    """Wrap ``BaseRouter.cycle`` to apply ``corrupt`` exactly once.

    ``corrupt(router)`` runs after the router's phases, past
    :data:`CORRUPT_AFTER`, and returns True once it found a victim and
    mutated it; the probe sweep at the end of that same network cycle
    then sees the corruption.  The wrapper keeps every router on the
    generic path.
    """

    def inject(monkeypatch, armed):
        real = BaseRouter.cycle

        def wrapped(self, cycle):
            real(self, cycle)
            if (not armed.fired and cycle >= CORRUPT_AFTER
                    and corrupt(self)):
                armed.fire()

        monkeypatch.setattr(BaseRouter, "cycle", wrapped)

    return inject


def steal_packed_credit(router):
    """One credit stolen from the flat ``_ovc_credits`` array."""
    if router.node != CENTER:
        return False
    # Flat index num_vcs == (EAST, vc 0); a real CreditCounter, unlike
    # the LOCAL port's InfiniteCredits at 0..v-1.
    counter = router._ovc_credits[router.num_vcs]
    assert isinstance(counter, CreditCounter)
    if counter._credits <= 0:
        return False
    counter._credits -= 1
    return True


def flip_mask_bit(mask, bit):
    def flip(router):
        if router.node != CENTER:
            return False
        setattr(router, mask, getattr(router, mask) ^ (1 << bit))
        return True

    return flip


def rewrite_route(router):
    """An active input VC's route rewritten: the output VC it holds is
    orphaned."""
    for ivc in router._all_ivcs:
        if ivc.state is VCState.ACTIVE and ivc.out_vc is not None:
            ivc.route = (ivc.route + 1) % NUM_PORTS
            return True
    return False


def drop_buffered_flit(router):
    """A flit popped out of a flat buffer queue without being forwarded."""
    for queue in router._ivc_queues:
        if queue:
            queue.popleft()
            return True
    return False


def drop_ejecting_tail(router):
    """A tail flit lost from the ejection channel.  No credit covers an
    ejection channel, and no later flit of its packet follows it."""
    in_flight = router.output_channels[LOCAL]._in_flight
    for entry in in_flight:
        if entry[1].is_tail:
            in_flight.remove(entry)
            return True
    return False


def swap_ejecting_flits(router):
    """Two flits of one packet swapped on the ejection channel, so the
    sink receives them out of index order."""
    in_flight = router.output_channels[LOCAL]._in_flight
    for i in range(len(in_flight) - 1):
        (first_at, first), (second_at, second) = in_flight[i], in_flight[i + 1]
        if first.packet is second.packet:
            in_flight[i] = (first_at, second)
            in_flight[i + 1] = (second_at, first)
            return True
    return False


def all_local(entry):
    """A route-table entry of the same shape as ``entry`` that says
    "eject"."""
    if isinstance(entry, int):
        return LOCAL  # xy / yx: the output port
    if isinstance(entry[0], int):
        return (LOCAL, LOCAL)  # o1turn: (xy port, yx port)
    return ((LOCAL,), LOCAL)  # adaptive: (productive ports, DOR port)


def eject_everything_at_center(router):
    """The center router's route table says "eject" for every
    destination: the first head it routes ejects at the wrong sink."""
    if router.node != CENTER:
        return False
    router._route_table = tuple(map(all_local, router._route_table))
    return True


# ----------------------------------------------------------------------
# The catalogue.
# ----------------------------------------------------------------------

SPEC = RouterKind.SPECULATIVE_VC

#: One compiled speculative kernel per allocator kind and priority:
#: (case suffix, kernel builder, config overrides).
SPEC_KERNELS = [
    ("separable", "_make_spec_alloc", {}),
    ("maximum", "_make_spec_alloc", {"allocator_kind": "maximum"}),
    ("equal", "_make_spec_alloc_equal", {"speculation_priority": "equal"}),
]

#: The plain switch kernels: (router kind, kernel builder).
SWITCH_KERNELS = [
    (RouterKind.VIRTUAL_CHANNEL, "_make_vc_sa"),
    (RouterKind.WORMHOLE, "_make_wormhole_alloc"),
    (RouterKind.SINGLE_CYCLE_VC, "_make_vc_sa"),
    (RouterKind.SINGLE_CYCLE_WORMHOLE, "_make_wormhole_alloc"),
]

#: Every single-bit flip of every state mask, per router family.
MASK_FLIPS = [
    (kind, mask, bit)
    for kind in (SPEC, RouterKind.VIRTUAL_CHANNEL, RouterKind.WORMHOLE)
    for mask in ("_routing_mask", "_va_mask", "_active_mask")
    for bit in range(NUM_PORTS * (2 if kind.uses_vcs else 1))
]

#: The static routing functions on speculative VC, plus xy on the
#: other pipelines, then the packet-dependent functions.
ROUTE_TABLES = [
    (SPEC, "xy"), (SPEC, "yx"), (RouterKind.WORMHOLE, "xy"),
    (RouterKind.VIRTUAL_CHANNEL, "xy"), (SPEC, "o1turn"), (SPEC, "adaptive"),
]


def mask_flip_name(kind, mask, bit):
    return f"mask-flip-{kind.value}-{mask.strip('_')}-{bit}"


CASES: List[BugCase] = [
    BugCase("credit-dropped", tiny_config(RouterKind.WORMHOLE),
            drop_first_credit),
    BugCase("credit-duplicated", tiny_config(RouterKind.WORMHOLE),
            duplicate_first_credit),
    BugCase("packed-credit-stolen", tiny_config(SPEC),
            corrupt_once(steal_packed_credit)),
    BugCase("source-credit-dropped", tiny_config(SPEC),
            drop_first_source_credit),
    BugCase("spec-unfiltered", tiny_config(SPEC, injection_fraction=0.5),
            unfiltered_speculation),
    BugCase("spec-fabricated", tiny_config(SPEC), fabricated_grant),
    *[
        BugCase(f"spec-doubled-{suffix}",
                tiny_config(SPEC, injection_fraction=0.5, **overrides),
                doubled_spec_grant(kernel))
        for suffix, kernel, overrides in SPEC_KERNELS
    ],
    *[
        BugCase(f"switch-doubled-{kind.value}",
                tiny_config(kind, injection_fraction=0.5),
                doubled_switch_grant(kernel))
        for kind, kernel in SWITCH_KERNELS
    ],
    BugCase("spec-grant-mask-unrecorded", tiny_config(SPEC),
            unrecorded_spec_grants),
    BugCase("matching-adjacency-flipped",
            tiny_config(SPEC, allocator_kind="maximum",
                        injection_fraction=0.4),
            flipped_adjacency_bit),
    BugCase("allocator-stalled", tiny_config(RouterKind.WORMHOLE),
            stalled_allocator),
    *[
        BugCase(mask_flip_name(kind, mask, bit), tiny_config(kind),
                corrupt_once(flip_mask_bit(mask, bit)))
        for kind, mask, bit in MASK_FLIPS
    ],
    BugCase("route-entry-rewritten", tiny_config(SPEC),
            corrupt_once(rewrite_route)),
    BugCase("route-entry-rewritten-wormhole", tiny_config(RouterKind.WORMHOLE),
            corrupt_once(rewrite_route)),
    BugCase("buffered-flit-dropped", tiny_config(SPEC),
            corrupt_once(drop_buffered_flit)),
    BugCase("ejecting-tail-dropped", tiny_config(SPEC),
            corrupt_once(drop_ejecting_tail)),
    BugCase("ejecting-flits-swapped", tiny_config(SPEC),
            corrupt_once(swap_ejecting_flits)),
    *[
        BugCase(f"route-table-{kind.value}-{routing}",
                tiny_config(kind, routing_function=routing),
                corrupt_once(eject_everything_at_center))
        for kind, routing in ROUTE_TABLES
    ],
]

BY_NAME = {case.name: case for case in CASES}
