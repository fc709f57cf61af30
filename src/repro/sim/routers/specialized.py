"""Config-specialized router step compilation (the saturation-speed path).

At wiring time the network asks :func:`compile_step` for a per-router
step function specialized to the config: RC reads the router's one
``_route_table`` (built in ``BaseRouter.__init__``), the port/VC loops
run over the router's three state bitmasks -- the only store of
input-VC state, so a closure moves a VC between states by moving its
bit and never touches ``ivc.state`` -- instead of scanning VC objects,
allocator requests are built as flat parallel arrays, and every branch
serving validation or tracing is compiled out.  The compiled closure is
bit-identical to the generic ``BaseRouter.cycle`` for the supported
configs -- same state transitions, same arbiter state evolution, same
stats, same channel sends in the same order -- which the high-load
differential battery in ``tests/sim/test_fast_stepper.py`` and
``oracle_fast_vs_reference`` enforce.

Switch allocation is written once per allocator kind, as a closure
over one allocator's state that takes flat request arrays and a
busy-output mask (:func:`_make_separable_switch`, the two stages of
Fig 7b; :func:`_make_matching_switch`, the ``(adjacency, chooser)``
bitmasks of the maximum matcher run through its shared ``_match``
kernel).  Every compiled switch allocation calls the config's closure:
the wormhole family's arbiter, the VC routers' switch allocator, the
conservative speculative kernel (Fig 7c: two closures, the second with
the first's taken outputs busy) and the ``equal`` ablation (one
closure on the primary allocator over the merged requests, as
``SpeculativeSwitchAllocator._allocate_equal``).  VC allocation is one
closure per allocator kind, shared by every VC-family step; it hands
the speculative steps their requestor set so the VC_ALLOC heads are
scanned once.  o1turn and adaptive routing read the same
``_route_table`` as xy/yx, whose entries are then ``(xy port, yx
port)`` pairs indexed by the packet's committed order, or
``(productive ports, DOR port)`` pairs scored against live congestion;
the generic path reads it too, so checked mode observes its
corruption.

The generic path remains the executable spec and the fallback:

* attaching a tracer clears every compiled step: trace events come
  from the generic methods' ``tracer`` branches.  Checked mode and
  telemetry read state the closures keep (``pending_st``, the state
  bitmasks, ``spec_grant_mask``, ``RouterStats``), so a checked or
  observed run executes the same compiled steps;
* a router whose step methods, or its allocators' or arbiter class's
  methods the closures inline, were monkeypatched (instance or class
  level) or whose allocators were swapped for another type refuses to
  specialize -- :func:`compile_step` checks each against captures
  taken when :mod:`repro.sim.routers` is imported, before any class
  can be patched.

The closures capture per-router state and are built fresh for every
router; nothing is cached across routers or networks.
"""

from __future__ import annotations

from typing import Tuple

from ..allocators import SeparableAllocator, SpeculativeSwitchAllocator
from ..arbiters import MatrixArbiter, RoundRobinArbiter
from ..config import RouterKind
from ..dateline import class_partition, o1turn_choice
from ..matching import MaximumMatchingAllocator
from ..topology import LOCAL, NUM_PORTS
from .base import BaseRouter
from .single_cycle import SingleCycleVCRouter, SingleCycleWormholeRouter
from .spec_vc import SpeculativeVCRouter
from .vc import VirtualChannelRouter
from .vct import VirtualCutThroughRouter
from .wormhole import WormholeRouter


# ----------------------------------------------------------------------
# Canonical step methods, and the allocator methods whose work the
# closures inline, captured at import time.  compile_step refuses to
# specialize a router when a router or allocator class resolves any of
# these names to a different function (class-level monkeypatch) or an
# instance shadows one -- the patched generic path must keep running.
# ----------------------------------------------------------------------

_BASE_STEP_METHODS = (
    "cycle",
    "_st_phase",
    "_traverse",
    "_grant_switch",
    "_release_resources",
    "_allocation_phase",
    "_rc_phase",
    "_route",
    "_route_vc",
    "_after_routing",
)
_VC_STEP_METHODS = _BASE_STEP_METHODS + (
    "_vc_allocation",
    "_switch_allocation",
    "_sa_eligible",
    "_collect_va_requests",
    "_candidate_vcs",
    "_reiterate_blocked_heads",
)


def _capture(cls, names) -> Tuple[Tuple[str, object], ...]:
    return tuple((name, getattr(cls, name)) for name in names)


_CANONICAL = {
    WormholeRouter: _capture(WormholeRouter, _BASE_STEP_METHODS),
    VirtualCutThroughRouter: _capture(
        VirtualCutThroughRouter, _BASE_STEP_METHODS
    ),
    SingleCycleWormholeRouter: _capture(
        SingleCycleWormholeRouter, _BASE_STEP_METHODS
    ),
    VirtualChannelRouter: _capture(VirtualChannelRouter, _VC_STEP_METHODS),
    SingleCycleVCRouter: _capture(SingleCycleVCRouter, _VC_STEP_METHODS),
    SpeculativeVCRouter: _capture(SpeculativeVCRouter, _VC_STEP_METHODS),
    SeparableAllocator: _capture(SeparableAllocator, ("allocate",)),
    MaximumMatchingAllocator: _capture(
        MaximumMatchingAllocator, ("allocate",)
    ),
    SpeculativeSwitchAllocator: _capture(
        SpeculativeSwitchAllocator, ("allocate", "_allocate_equal")
    ),
    MatrixArbiter: _capture(MatrixArbiter, ("arbitrate",)),
    RoundRobinArbiter: _capture(RoundRobinArbiter, ("arbitrate",)),
}
_ARBITERS = {"matrix": MatrixArbiter, "round_robin": RoundRobinArbiter}


def _uses_canonical(obj, cls) -> bool:
    """``obj`` is exactly a ``cls`` whose captured methods resolve to
    the canonical functions."""
    if type(obj) is not cls:
        return False
    # Looked up through the instance, never ``router.__dict__``:
    # materialising that dict turns off CPython's inline-attribute
    # access for every ``router.x`` the compiled step then executes
    # (4% of the plain VC kernel at load 0.42).
    for name, func in _CANONICAL[cls]:
        if getattr(getattr(obj, name), "__func__", None) is not func:
            return False
    return True


def _make_candidates(router: BaseRouter):
    """Candidate-VC resolver ``cand(route, head)`` for packet-dependent
    policies (O1TurnVCs / AdaptiveEscapeVCs), or None when the static
    ``_candidate_table`` covers the policy.  Returns exactly
    ``tuple(policy.allowed_vcs(...))`` for every reachable input."""
    if router._candidate_table is not None:
        return None
    v = router.num_vcs
    if router.config.routing_function == "o1turn":
        class0, class1 = class_partition(v)
        all_vcs = class0 + class1

        def cand(route, head):
            if route == LOCAL:
                return all_vcs
            return class1 if o1turn_choice(head.packet) == "yx" else class0

        return cand

    table = router._route_table
    full = tuple(range(v))
    adaptive_vcs = tuple(range(1, v))

    def cand(route, head):
        if route == table[head.destination][1]:
            return full
        return adaptive_vcs

    return cand


# ----------------------------------------------------------------------
# Closure builders.  Each captures the router's struct-of-arrays views
# once; the per-cycle work then runs on flat lists and int bitmasks.
# ----------------------------------------------------------------------


def _make_grant(router: BaseRouter):
    """Inlined ``_grant_switch`` without the tracer branch."""
    credit_channels = router.credit_channels
    stats = router.stats

    def grant(port: int, vc: int, cycle: int) -> None:
        router.pending_st.append((port, vc))
        stats.sa_grants += 1
        credit_channel = credit_channels[port]
        if credit_channel is not None:
            credit_channel.send(vc, cycle)

    return grant


def _make_st(router: BaseRouter):
    """Inlined ``_st_phase`` + ``_traverse``: tracer branch and the
    duplicate-output set check compiled out; the cheap empty-VC and
    unallocated-resource asserts stay (the failure-injection tests
    expect them on either path).  Tail release stays the shared
    ``_release_resources`` (it owns the mask/port-hold bookkeeping)."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_flat = router._ovc_flat
    output_channels = router.output_channels
    forwarded = router.stats.forwarded_by_output
    release = router._release_resources

    def st(cycle: int) -> None:
        pending = router.pending_st
        if not pending:
            return
        router.pending_st = []
        for port, vc in pending:
            flat = port * v + vc
            ivc = all_ivcs[flat]
            queue = queues[flat]
            if not queue:
                raise AssertionError("switch granted to an empty input VC")
            out_port = ivc.route
            out_vc = ivc.out_vc
            if out_port is None or out_vc is None:
                raise AssertionError(
                    "switch granted before resources allocated"
                )
            flit = queue.popleft()
            ovc = ovc_flat[out_port * v + out_vc]
            ovc.credits.consume()
            flit.vcid = out_vc
            output_channels[out_port].send(flit, cycle)
            forwarded[out_port] += 1
            if flit.is_tail:
                release(ivc, ovc, cycle)

    return st


def _make_rc(router: BaseRouter, *, vc_family: bool, single_cycle: bool):
    """Inlined ``_rc_phase`` iterating the ROUTING bitmask over the
    routing table (xy/yx: one output port per destination)."""
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    route_table = router._route_table
    stats = router.stats
    va_delay = 0 if single_cycle else 1 + router.config.va_extra_cycles

    if vc_family:

        def rc(cycle: int) -> None:
            m = router._routing_mask
            routed = 0
            moved = 0
            while m:
                low = m & -m
                m -= low
                flat = low.bit_length() - 1
                ivc = all_ivcs[flat]
                if ivc.routing_ready > cycle:
                    continue
                ivc.route = route_table[queues[flat][0].destination]
                ivc.va_ready = cycle + va_delay
                routed += 1
                moved |= low
            if routed:
                stats.packets_routed += routed
                router._routing_mask &= ~moved
                router._va_mask |= moved

    else:

        def rc(cycle: int) -> None:
            m = router._routing_mask
            routed = 0
            moved = 0
            while m:
                low = m & -m
                m -= low
                flat = low.bit_length() - 1
                ivc = all_ivcs[flat]
                if ivc.routing_ready > cycle:
                    continue
                ivc.route = route_table[queues[flat][0].destination]
                routed += 1
                moved |= low
            if routed:
                stats.packets_routed += routed
                router._routing_mask &= ~moved
                router._active_mask |= moved

    return rc


def _make_rc_o1turn(router: BaseRouter, *, single_cycle: bool):
    """``_rc_phase`` for o1turn routing: the packet's committed
    dimension order indexes the table's (xy port, yx port) pair
    (o1turn is VC-family-only, so heads always go to VC_ALLOC)."""
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    stats = router.stats
    va_delay = 0 if single_cycle else 1 + router.config.va_extra_cycles
    route_table = router._route_table

    def rc(cycle: int) -> None:
        m = router._routing_mask
        routed = 0
        moved = 0
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            ivc = all_ivcs[flat]
            if ivc.routing_ready > cycle:
                continue
            packet = queues[flat][0].packet
            ivc.route = route_table[packet.destination][
                o1turn_choice(packet) == "yx"
            ]
            ivc.va_ready = cycle + va_delay
            routed += 1
            moved |= low
        if routed:
            stats.packets_routed += routed
            router._routing_mask &= ~moved
            router._va_mask |= moved

    return rc


def _make_rc_adaptive(router: BaseRouter, *, single_cycle: bool):
    """``_rc_phase`` + ``VirtualChannelRouter._route_vc`` for minimal
    adaptive routing: the (productive ports, DOR port) pair comes from
    the routing table; the congestion score (free *and* credited
    permitted VCs per port) is computed inline over the flat output-VC
    arrays.  When two ports are productive, ``ports[0]`` is the DOR port
    (escape VC permitted); the tie-break ``max(ports, key=(freedom, p ==
    dor))`` reduces to "the non-DOR port wins only on a strictly higher
    score" since ``max`` keeps the first maximum."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_flat = router._ovc_flat
    ovc_credits = router._ovc_credits
    stats = router.stats
    va_delay = 0 if single_cycle else 1 + router.config.va_extra_cycles
    table = router._route_table
    fallback = type(router).ADAPTIVE_REROUTE_FALLBACK

    def rc(cycle: int) -> None:
        m = router._routing_mask
        routed = 0
        moved = 0
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            ivc = all_ivcs[flat]
            if ivc.routing_ready > cycle:
                continue
            ports, dor_port = table[queues[flat][0].destination]
            if len(ports) == 1 or ivc.reroute_count >= fallback:
                route = dor_port
            else:
                base = ports[0] * v
                f0 = 0
                for c in range(v):
                    if (
                        ovc_flat[base + c].held_by is None
                        and ovc_credits[base + c]._credits > 0
                    ):
                        f0 += 1
                base = ports[1] * v
                f1 = 0
                for c in range(1, v):
                    if (
                        ovc_flat[base + c].held_by is None
                        and ovc_credits[base + c]._credits > 0
                    ):
                        f1 += 1
                route = ports[1] if f1 > f0 else ports[0]
            ivc.route = route
            ivc.va_ready = cycle + va_delay
            routed += 1
            moved |= low
        if routed:
            stats.packets_routed += routed
            router._routing_mask &= ~moved
            router._va_mask |= moved

    return rc


def _make_vc_rc(router: BaseRouter, *, single_cycle: bool):
    """RC builder dispatch for the VC family, by routing function."""
    name = router.config.routing_function
    if name == "o1turn":
        return _make_rc_o1turn(router, single_cycle=single_cycle)
    if name == "adaptive":
        return _make_rc_adaptive(router, single_cycle=single_cycle)
    return _make_rc(router, vc_family=True, single_cycle=single_cycle)


def _make_reiterate(router: BaseRouter):
    """Inlined ``_reiterate_blocked_heads`` (adaptive routing on the
    plain 4-stage VC router only -- the speculative router's allocation
    phase never reiterates, and the single-cycle router's phase order
    has no reiterate step).  No ``va_ready`` gate, exactly like the
    generic method: a head still waiting out the VA delay may reroute."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_flat = router._ovc_flat
    stats = router.stats
    table = router._route_table

    def reiterate(cycle: int) -> None:
        m = router._va_mask
        moved = 0
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            ivc = all_ivcs[flat]
            route = ivc.route
            if route is None:
                continue
            base = route * v
            dor_port = table[queues[flat][0].destination][1]
            start = 0 if route == dor_port else 1
            free = False
            for c in range(start, v):
                if ovc_flat[base + c].held_by is None:
                    free = True
                    break
            if free:
                continue
            ivc.routing_ready = cycle + 1
            ivc.route = None
            ivc.reroute_count += 1
            stats.reroutes += 1
            moved |= low
        if moved:
            router._va_mask &= ~moved
            router._routing_mask |= moved

    return reiterate


def _make_separable_switch(allocator: SeparableAllocator):
    """``allocator.allocate(requests, busy)`` over flat request arrays.

    ``switch(groups, members, resources, busy)`` takes one request per
    index -- each group's requests contiguous, groups in request order
    (every router scan is flat-ascending, hence port-contiguous) -- and
    a bitmask of busy resources whose requests are dropped first.  It
    returns the ``(group, member, resource)`` grants in grant order and
    evolves every stage arbiter exactly as ``allocate`` does: stage 1
    per group, stage 2 per resource in survivor order, a sole
    candidate's matrix rotation inlined as two integer operations
    instead of an ``arbitrate`` call.  Callers submit each member at
    most once per group, as every router flow does."""
    stage1 = allocator._stage1
    stage2 = allocator._stage2
    matrix = allocator._matrix

    def switch(groups, members, resources, busy: int):
        n = len(groups)
        if n == 1:
            # The sole request (the common case below saturation) wins
            # both stages unless its resource is busy.
            res = resources[0]
            if busy >> res & 1:
                return ()
            g = groups[0]
            w = members[0]
            if matrix:
                arb = stage1[g]
                arb._state = (arb._state | arb._col[w]) & arb._row_keep[w]
                arb = stage2[res]
                arb._state = (arb._state | arb._col[g]) & arb._row_keep[g]
            else:
                stage1[g].arbitrate((w,))
                stage2[res].arbitrate((g,))
            return ((g, w, res),)

        # Stage 1: per group, pick one member whose resource is free.
        sur_g = []
        sur_m = []
        sur_r = []
        i = 0
        while i < n:
            g = groups[i]
            j = i + 1
            while j < n and groups[j] == g:
                j += 1
            arb = stage1[g]
            if j - i == 1:
                res = resources[i]
                if busy >> res & 1:
                    i = j
                    continue
                w = members[i]
                if matrix:
                    arb._state = (arb._state | arb._col[w]) & arb._row_keep[w]
                else:
                    arb.arbitrate((w,))
            else:
                mem = members[i:j]
                run = resources[i:j]
                if busy:
                    for k in range(j - i - 1, -1, -1):
                        if busy >> run[k] & 1:
                            del mem[k]
                            del run[k]
                    if not mem:
                        i = j
                        continue
                w = arb.arbitrate(mem)
                res = run[mem.index(w)]
            sur_g.append(g)
            sur_m.append(w)
            sur_r.append(res)
            i = j

        # Stage 2: per resource, pick one surviving group.
        if len(sur_g) == 1:
            g = sur_g[0]
            res = sur_r[0]
            arb = stage2[res]
            if matrix:
                arb._state = (arb._state | arb._col[g]) & arb._row_keep[g]
            else:
                arb.arbitrate((g,))
            return ((g, sur_m[0], res),)
        by_resource = {}
        for k in range(len(sur_g)):
            # repro: hot-ok[per-cycle conflict grouping; bounded by surviving requests]
            by_resource.setdefault(sur_r[k], []).append(k)
        grants = []
        for res, idxs in by_resource.items():
            arb = stage2[res]
            if len(idxs) == 1:
                k = idxs[0]
                g = sur_g[k]
                if matrix:
                    arb._state = (arb._state | arb._col[g]) & arb._row_keep[g]
                else:
                    arb.arbitrate((g,))
            else:
                # repro: hot-ok[bounded same-cycle scratch in the switch closure]
                g = arb.arbitrate([sur_g[k] for k in idxs])
                for k in idxs:
                    if sur_g[k] == g:
                        break
            grants.append((g, sur_m[k], res))
        return grants

    return switch


def _make_matching_switch(allocator: MaximumMatchingAllocator):
    """``allocator.allocate(requests, busy)`` over the same flat arrays
    as :func:`_make_separable_switch`: the ``(adjacency, chooser)``
    bitmasks are built straight from them and run through the shared
    ``_match`` kernel, so the rotation advances once per non-empty raw
    request set -- even when ``busy`` filters every request out -- and
    not at all on an empty one."""
    match = allocator._match
    mpg = allocator.members_per_group
    nr = allocator.num_resources

    def switch(groups, members, resources, busy: int):
        if not groups:
            return ()
        if len(groups) == 1:
            # What ``_match`` does with one edge: rotate, grant it.
            allocator._rotation += 1
            res = resources[0]
            if busy >> res & 1:
                return ()
            return ((groups[0], members[0], res),)
        pivot = allocator._rotation % mpg
        adjacency = {}
        chooser = {}
        for g, w, res in zip(groups, members, resources):
            if busy >> res & 1:
                continue
            adjacency[g] = adjacency.get(g, 0) | (1 << res)
            key = g * nr + res
            held = chooser.get(key)
            if held is None or (w - pivot) % mpg < (held - pivot) % mpg:
                chooser[key] = w
        return match(adjacency, chooser)

    return switch


def _make_switch(allocator):
    """The switch closure for ``allocator``'s kind."""
    if type(allocator) is SeparableAllocator:
        return _make_separable_switch(allocator)
    return _make_matching_switch(allocator)


def _make_wormhole_alloc(router: BaseRouter, grant, *, vct: bool):
    """Inlined wormhole/VCT ``_allocation_phase``.

    The reference's ``held_outputs`` busy filter is dropped: free-port
    requests never target a held output (checked right here), so the
    filter -- and the singleton fast path's busy test -- are no-ops.
    """
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_credits = router._ovc_credits
    stats = router.stats
    port_held_by = router.port_held_by
    switch = _make_switch(router._switch_arbiter)
    # One queue per input port: every request's member is 0, and each
    # port requests at most once, so the switch reads only a prefix.
    members = (0,) * NUM_PORTS

    def alloc(cycle: int) -> None:
        held_inputs = 0
        for out_port in range(NUM_PORTS):
            in_port = port_held_by[out_port]
            if in_port is None:
                continue
            held_inputs |= 1 << in_port
            if queues[in_port]:
                if ovc_credits[out_port]._credits > 0:
                    grant(in_port, 0, cycle)
                else:
                    stats.credits_stalled += 1

        m = router._active_mask & ~held_inputs
        groups = []
        resources = []
        while m:
            low = m & -m
            m -= low
            in_port = low.bit_length() - 1
            route = all_ivcs[in_port].route
            if port_held_by[route] is not None:
                continue
            credits = ovc_credits[route]
            if vct:
                if credits._credits < queues[in_port][0].packet.length:
                    stats.credits_stalled += 1
                    continue
            elif credits._credits <= 0:
                stats.credits_stalled += 1
                continue
            groups.append(in_port)
            resources.append(route)

        if groups:
            for in_port, _, out_port in switch(groups, members, resources, 0):
                all_ivcs[in_port].out_vc = 0
                port_held_by[out_port] = in_port
                grant(in_port, 0, cycle)

    return alloc


def _make_vc_sa(router: BaseRouter, grant):
    """Inlined ``_switch_allocation`` over the ACTIVE bitmask, through
    the config's switch closure."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_credits = router._ovc_credits
    stats = router.stats
    switch = _make_switch(router._switch_allocator)
    flat_port = tuple(flat // v for flat in range(NUM_PORTS * v))
    flat_vc = tuple(flat % v for flat in range(NUM_PORTS * v))

    def sa(cycle: int) -> None:
        m = router._active_mask
        groups = []
        members = []
        resources = []
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            if not queues[flat]:
                continue
            ivc = all_ivcs[flat]
            route = ivc.route
            if ovc_credits[route * v + ivc.out_vc]._credits <= 0:
                stats.credits_stalled += 1
                continue
            groups.append(flat_port[flat])
            members.append(flat_vc[flat])
            resources.append(route)
        if groups:
            for g, w, _ in switch(groups, members, resources, 0):
                grant(g, w, cycle)

    return sa


def _make_vc_va(router: BaseRouter, cand=None):
    """Inlined ``_vc_allocation`` + ``_collect_va_requests`` over the
    VC_ALLOC bitmask and the precomputed candidate-VC table, with the
    VC allocator's two separable stages fused in.

    Each requestor group is one input VC, so stage 1 runs during
    collection (group order is ascending flat order either way); the
    winning candidate's resource is ``route * v + winner`` by
    construction, so no member-to-resource lookup survives inlining.

    ``cand`` (from :func:`_make_candidates`) resolves candidate VCs for
    packet-dependent policies; None means the static table applies.

    ``va(cycle)`` returns its bidders -- the flat indices, ascending,
    of the VA-ready heads that had a free candidate VC before this
    cycle's grants.  That is exactly the speculative routers' switch
    requestor set, so they take it from here instead of rescanning.
    """
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_flat = router._ovc_flat
    allocator = router._vc_allocator
    st1 = allocator._stage1
    st2 = allocator._stage2
    matrix = allocator._matrix
    candidate_table = router._candidate_table
    flat_pairs = tuple(divmod(flat, v) for flat in range(NUM_PORTS * v))

    def va(cycle: int):
        # Collection + stage 1: per VC_ALLOC head, arbitrate among the
        # currently free candidate output VCs.
        m = router._va_mask
        sur_g = []
        sur_m = []
        sur_r = []
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            ivc = all_ivcs[flat]
            if ivc.va_ready > cycle:
                continue
            route = ivc.route
            base = route * v
            if candidate_table is not None:
                cands = candidate_table[flat][route]
            else:
                cands = cand(route, queues[flat][0])
            members = None
            for candidate in cands:
                if ovc_flat[base + candidate].held_by is None:
                    if members is None:
                        # repro: hot-ok[per-head candidate list; the stage-1 arbiter takes a sequence]
                        members = [candidate]
                    else:
                        members.append(candidate)
            if members is None:
                continue
            arb = st1[flat]
            if len(members) == 1:
                w = members[0]
                if matrix:
                    arb._state = (arb._state | arb._col[w]) & arb._row_keep[w]
                else:
                    arb.arbitrate(members)
            else:
                w = arb.arbitrate(members)
            sur_g.append(flat)
            sur_m.append(w)
            sur_r.append(base + w)

        # Stage 2: per output VC, pick one head; the winner takes the
        # VC and turns ACTIVE immediately.
        count = len(sur_g)
        if count == 1:
            g = sur_g[0]
            res = sur_r[0]
            arb = st2[res]
            if matrix:
                arb._state = (arb._state | arb._col[g]) & arb._row_keep[g]
            else:
                arb.arbitrate((g,))
            ivc = all_ivcs[g]
            ovc_flat[res].held_by = flat_pairs[g]
            ivc.out_vc = sur_m[0]
            router._va_mask &= ~(1 << g)
            router._active_mask |= 1 << g
        elif count:
            by_resource = {}
            for k in range(count):
                # repro: hot-ok[per-cycle conflict grouping; bounded by surviving requests]
                by_resource.setdefault(sur_r[k], []).append(k)
            moved = 0
            for res, idxs in by_resource.items():
                arb = st2[res]
                if len(idxs) == 1:
                    k = idxs[0]
                    g = sur_g[k]
                    if matrix:
                        arb._state = (
                            arb._state | arb._col[g]
                        ) & arb._row_keep[g]
                    else:
                        arb.arbitrate((g,))
                else:
                    # repro: hot-ok[bounded same-cycle scratch in the fused combiner]
                    g = arb.arbitrate([sur_g[k] for k in idxs])
                    for k in idxs:
                        if sur_g[k] == g:
                            break
                ivc = all_ivcs[g]
                ovc_flat[res].held_by = flat_pairs[g]
                ivc.out_vc = sur_m[k]
                moved |= 1 << g
            router._va_mask &= ~moved
            router._active_mask |= moved
        return sur_g

    return va


def _make_vc_va_matching(router: BaseRouter, cand=None):
    """``_vc_allocation`` for the maximum-matching VC allocator: build
    the matcher's ``(adjacency, chooser)`` bitmasks directly over the
    VC_ALLOC heads (one group per head, one adjacency bit per free
    candidate VC, flat-ascending -- exactly the generic
    ``_collect_va_requests`` order) and run the shared ``_match``
    kernel.  These are the masks ``allocate`` would derive -- each
    head->candidate edge is unique, so the chooser never needs the
    rotating rank comparison.  Grants apply in return order, as the generic loop
    does.  Returns its bidders like :func:`_make_vc_va` (the adjacency
    dict, whose keys are the bidding heads in flat order)."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_flat = router._ovc_flat
    allocator = router._vc_allocator
    match = allocator._match
    nr = allocator.num_resources
    candidate_table = router._candidate_table
    flat_pairs = tuple(divmod(flat, v) for flat in range(NUM_PORTS * v))

    def va(cycle: int):
        m = router._va_mask
        adjacency = {}
        chooser = {}
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            ivc = all_ivcs[flat]
            if ivc.va_ready > cycle:
                continue
            route = ivc.route
            base = route * v
            if candidate_table is not None:
                cands = candidate_table[flat][route]
            else:
                cands = cand(route, queues[flat][0])
            mask = 0
            key_base = flat * nr
            for candidate in cands:
                res = base + candidate
                if ovc_flat[res].held_by is None:
                    mask |= 1 << res
                    chooser[key_base + res] = candidate
            if mask:
                adjacency[flat] = mask
        if not adjacency:
            return adjacency
        moved = 0
        for won in match(adjacency, chooser):
            flat = won.group
            ivc = all_ivcs[flat]
            ovc_flat[won.resource].held_by = flat_pairs[flat]
            ivc.out_vc = won.member
            moved |= 1 << flat
        router._va_mask &= ~moved
        router._active_mask |= moved
        return adjacency

    return va


def _make_va(router: BaseRouter, cand):
    """VA closure for the config's allocator kind (fused separable
    stages, or adjacency masks into the bitmask matcher)."""
    if router.config.allocator_kind == "separable":
        return _make_vc_va(router, cand)
    return _make_vc_va_matching(router, cand)


def _make_spec_combine(router: BaseRouter):
    """The speculative combiner both speculative kernels share, as the
    generic phase's combine loop: ``combine(grants, taken_in, cycle)``
    drops each ``(port, vc, output)`` speculative grant whose input port
    is in the ``taken_in`` bitmask, counts the rest and stores them in
    ``router.spec_grant_mask``, and passes a grant to the switch only
    if its VC won VC allocation and has a credit."""
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    ovc_credits = router._ovc_credits
    stats = router.stats
    credit_channels = router.credit_channels

    def combine(grants, taken_in: int, cycle: int) -> None:
        pending = router.pending_st
        spec_mask = 0
        for g, w, res in grants:
            if taken_in >> g & 1:
                continue
            stats.spec_grants += 1
            flat = g * v + w
            spec_mask |= 1 << (flat * NUM_PORTS + res)
            if not router._active_mask >> flat & 1:
                stats.spec_wasted += 1  # lost the VC allocation
                continue
            ivc = all_ivcs[flat]
            if ovc_credits[ivc.route * v + ivc.out_vc]._credits <= 0:
                stats.spec_wasted += 1  # won a VC without a credit
                continue
            pending.append((g, w))
            stats.sa_grants += 1
            credit_channel = credit_channels[g]
            if credit_channel is not None:
                credit_channel.send(w, cycle)
        router.spec_grant_mask = spec_mask

    return combine


def _make_spec_alloc(router: BaseRouter, cand=None):
    """Inlined speculative ``_allocation_phase`` under conservative
    priority, either allocator kind: the two sub-allocators' switch
    closures run as ``SpeculativeSwitchAllocator.allocate`` runs them --
    non-speculative requests first, then speculative requests with the
    non-speculatively taken outputs busy; the combiner then drops
    speculative grants whose input was taken.

    VC allocation is the shared VA closure, called once the
    non-speculative requests are read off the ACTIVE mask; its bidders
    are the speculative requestors.  It shares no arbiter or field with
    the switch allocators, so running it before the speculative switch
    allocation instead of after (the reference's order) changes
    nothing, and the combiner still sees whether each speculation won
    its VC.
    """
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_credits = router._ovc_credits
    stats = router.stats
    allocator = router._spec_switch_allocator
    credit_channels = router.credit_channels
    nonspec = _make_switch(allocator._nonspec)
    spec = _make_switch(allocator._spec)
    va = _make_va(router, cand)
    combine = _make_spec_combine(router)
    flat_port = tuple(flat // v for flat in range(NUM_PORTS * v))
    flat_vc = tuple(flat % v for flat in range(NUM_PORTS * v))

    def alloc(cycle: int) -> None:
        # Non-speculative requests from ACTIVE VCs, flat-ascending.
        m = router._active_mask
        groups = []
        members = []
        resources = []
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            if not queues[flat]:
                continue
            ivc = all_ivcs[flat]
            route = ivc.route
            if ovc_credits[route * v + ivc.out_vc]._credits <= 0:
                stats.credits_stalled += 1
                continue
            groups.append(flat_port[flat])
            members.append(flat_vc[flat])
            resources.append(route)
        taken_in = 0
        taken_out = 0
        if groups:
            pending = router.pending_st
            for g, w, res in nonspec(groups, members, resources, 0):
                taken_in |= 1 << g
                taken_out |= 1 << res
                pending.append((g, w))
                stats.sa_grants += 1
                credit_channel = credit_channels[g]
                if credit_channel is not None:
                    credit_channel.send(w, cycle)

        # VC allocation runs in parallel with switch allocation; its
        # bidders are the speculative requestors.
        groups = []
        members = []
        resources = []
        for flat in va(cycle):
            groups.append(flat_port[flat])
            members.append(flat_vc[flat])
            resources.append(all_ivcs[flat].route)
        if not groups:
            router.spec_grant_mask = 0
            return  # nothing speculative to arbitrate or combine
        combine(spec(groups, members, resources, taken_out), taken_in, cycle)

    return alloc


def _make_spec_alloc_equal(router: BaseRouter, cand=None):
    """Speculative ``_allocation_phase`` for the ``equal``-priority
    ablation, either allocator kind: speculative and non-speculative
    requests share the *primary* allocator's switch closure.

    Mirrors ``SpeculativeSwitchAllocator._allocate_equal`` exactly: the
    two request streams merge into one request set (groups in
    first-appearance order over the nonspec-then-spec concatenation,
    each port's members nonspec first), and grants are classified back
    by requestor -- an input VC is in exactly one state per cycle, so a
    flat-index bitmask of the speculative bidders is an exact key.  The
    VA closure runs between the two request scans and hands over the
    speculative bidders (see :func:`_make_spec_alloc`); speculative
    grants then go through the usual combiner checks (won the VC?
    credit available?), as in the generic phase.
    """
    v = router.num_vcs
    all_ivcs = router._all_ivcs
    queues = router._ivc_queues
    ovc_credits = router._ovc_credits
    stats = router.stats
    # Equal priority funnels every request through the primary
    # allocator; the secondary's state never evolves.
    switch = _make_switch(router._spec_switch_allocator._nonspec)
    grant = _make_grant(router)
    va = _make_va(router, cand)
    combine = _make_spec_combine(router)
    flat_port = tuple(flat // v for flat in range(NUM_PORTS * v))
    flat_vc = tuple(flat % v for flat in range(NUM_PORTS * v))

    def alloc(cycle: int) -> None:
        # Requesting flats per input port, ports in first-appearance
        # order: non-speculative ones from ACTIVE VCs first.
        by_port = [None] * NUM_PORTS
        ports = []
        m = router._active_mask
        while m:
            low = m & -m
            m -= low
            flat = low.bit_length() - 1
            if not queues[flat]:
                continue
            ivc = all_ivcs[flat]
            if ovc_credits[ivc.route * v + ivc.out_vc]._credits <= 0:
                stats.credits_stalled += 1
                continue
            g = flat_port[flat]
            if by_port[g] is None:
                ports.append(g)
                # repro: hot-ok[per-port request list of the merged allocation]
                by_port[g] = [flat]
            else:
                by_port[g].append(flat)

        # VC allocation runs in parallel with switch allocation; its
        # bidders' speculative requests join their port's list.
        spec_flat_mask = 0
        for flat in va(cycle):
            g = flat_port[flat]
            if by_port[g] is None:
                ports.append(g)
                # repro: hot-ok[per-port request list of the merged allocation]
                by_port[g] = [flat]
            else:
                by_port[g].append(flat)
            spec_flat_mask |= 1 << flat
        if not ports:
            router.spec_grant_mask = 0
            return

        # One shared-state allocation; non-speculative winners take the
        # switch immediately, speculative winners wait for the combiner.
        groups = []
        members = []
        resources = []
        for g in ports:
            for flat in by_port[g]:
                groups.append(g)
                members.append(flat_vc[flat])
                resources.append(all_ivcs[flat].route)
        spec_won = []
        for won in switch(groups, members, resources, 0):
            g, w, _ = won
            if spec_flat_mask >> (g * v + w) & 1:
                spec_won.append(won)
            else:
                grant(g, w, cycle)

        # Combine: one allocator made every grant, so none is filtered.
        combine(spec_won, 0, cycle)

    return alloc


# ----------------------------------------------------------------------
# Family builders: compose the phase closures in each family's order.
# ----------------------------------------------------------------------


def _build_wormhole(router: BaseRouter):
    """Wormhole family: one datapath.  Virtual cut-through changes the
    head's credit rule; the single-cycle router the phase order."""
    kind = router.config.router_kind
    vct = kind is RouterKind.VIRTUAL_CUT_THROUGH
    single_cycle = kind.is_single_cycle
    st = _make_st(router)
    alloc = _make_wormhole_alloc(router, _make_grant(router), vct=vct)
    rc = _make_rc(router, vc_family=False, single_cycle=single_cycle)
    if single_cycle:

        def step(cycle: int) -> None:
            # Reversed phase order: arrive, route, arbitrate and
            # traverse within the same cycle.
            rc(cycle)
            alloc(cycle)
            st(cycle)

        return step

    def step(cycle: int) -> None:
        st(cycle)
        alloc(cycle)
        rc(cycle)

    return step


def _build_vc(router: BaseRouter):
    """Plain VC family: 4-stage pipelined or single-cycle order."""
    single_cycle = router.config.router_kind.is_single_cycle
    st = _make_st(router)
    sa = _make_vc_sa(router, _make_grant(router))
    va = _make_va(router, _make_candidates(router))
    rc = _make_vc_rc(router, single_cycle=single_cycle)
    if single_cycle:

        def step(cycle: int) -> None:
            # VA before SA so a fresh head can win an output VC and
            # the switch in the same cycle; this order never reiterates.
            rc(cycle)
            va(cycle)
            sa(cycle)
            st(cycle)

        return step

    if router.config.routing_function == "adaptive":
        reiterate = _make_reiterate(router)

        def step(cycle: int) -> None:
            st(cycle)
            sa(cycle)
            va(cycle)
            reiterate(cycle)
            rc(cycle)

        return step

    def step(cycle: int) -> None:
        st(cycle)
        sa(cycle)
        va(cycle)
        rc(cycle)

    return step


def _build_spec_vc(router: BaseRouter):
    st = _make_st(router)
    cand = _make_candidates(router)
    config = router.config
    if config.speculation_priority == "equal":
        alloc = _make_spec_alloc_equal(router, cand)
    else:
        alloc = _make_spec_alloc(router, cand)
    rc = _make_vc_rc(router, single_cycle=False)

    def step(cycle: int) -> None:
        st(cycle)
        alloc(cycle)
        rc(cycle)

    return step


_BUILDERS = {
    "wormhole": (WormholeRouter, _build_wormhole),
    "virtual_cut_through": (VirtualCutThroughRouter, _build_wormhole),
    "single_cycle_wormhole": (SingleCycleWormholeRouter, _build_wormhole),
    "virtual_channel": (VirtualChannelRouter, _build_vc),
    "single_cycle_vc": (SingleCycleVCRouter, _build_vc),
    "speculative_vc": (SpeculativeVCRouter, _build_spec_vc),
}

def compile_step(router: BaseRouter):
    """A specialized step closure for ``router``, or None.

    Returns None (generic path) when a tracer is attached, or when the
    router or one of its allocators is not exactly its canonical class
    or resolves a captured method to a different function (instance-
    or class-level monkeypatch), or when a separable allocator's
    arbiter class has a patched ``arbitrate``.  The closures evolve the
    allocators' internal state directly (the switch closures, the fused
    VA stages, a sole candidate's inlined arbiter rotation), so any
    substitute -- a recording proxy, a test subclass, a patched
    ``allocate`` or ``arbitrate`` -- must take the generic path.
    """
    config = router.config
    router_class, builder = _BUILDERS[config.router_kind.value]
    if router.tracer is not None or not _uses_canonical(router, router_class):
        return None
    if isinstance(router, VirtualChannelRouter):
        kind = (
            SeparableAllocator
            if config.allocator_kind == "separable"
            else MaximumMatchingAllocator
        )
        allocators = [(router._vc_allocator, kind)]
        if isinstance(router, SpeculativeVCRouter):
            spec = router._spec_switch_allocator
            if not _uses_canonical(spec, SpeculativeSwitchAllocator):
                return None
            allocators += [(spec._nonspec, kind), (spec._spec, kind)]
        else:
            allocators.append((router._switch_allocator, kind))
    else:
        allocators = [(router._switch_arbiter, SeparableAllocator)]
    if not all(_uses_canonical(obj, cls) for obj, cls in allocators):
        return None
    # Checked on the class, once: the arbiters themselves are built by
    # ``make_arbiter`` and never swapped one by one.
    if allocators[0][1] is SeparableAllocator:
        arbiter_class = _ARBITERS[config.arbiter_kind]
        for name, func in _CANONICAL[arbiter_class]:
            if getattr(arbiter_class, name) is not func:
                return None
    return builder(router)
