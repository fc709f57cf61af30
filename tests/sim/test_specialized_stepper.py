"""Specialization-cache and fallback correctness.

The fast stepper compiles one step closure per router at wiring time,
keyed on :func:`specialization_key`.  These tests pin the cache's
contract -- same key, same interned plan; different key, different
plan -- and every guard that must force the generic path: unsupported
configs, the reference stepper, probes/tracers attached after wiring
(telemetry only reads counters and forces nothing), monkeypatched step
methods, and swapped allocator types.
"""

from dataclasses import replace

import pytest

from repro.sim.allocators import SeparableAllocator
from repro.sim.config import RouterKind, SimConfig
from repro.sim.network import Network
from repro.sim.routers.spec_vc import SpeculativeVCRouter
from repro.sim.routers.specialized import (
    compile_step,
    plan_for,
    specialization_key,
)
from repro.sim.trace import Tracer
from repro.sim.validation import ValidationSuite
from repro.telemetry import TelemetrySession


def spec_config(**overrides):
    defaults = dict(
        router_kind=RouterKind.SPECULATIVE_VC, mesh_radix=4, num_vcs=2,
        buffers_per_vc=5, injection_fraction=0.3, seed=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestPlanCache:
    def test_same_key_interns_one_plan(self):
        # Fields outside the specialization key (seed, load) must not
        # split the cache.
        a = spec_config(seed=1, injection_fraction=0.1)
        b = spec_config(seed=99, injection_fraction=0.5)
        assert specialization_key(a) == specialization_key(b)
        assert plan_for(a) is plan_for(b)

    @pytest.mark.parametrize(
        "override",
        [
            dict(num_vcs=3),
            dict(buffers_per_vc=8),
            dict(mesh_radix=6),
            dict(router_kind=RouterKind.VIRTUAL_CHANNEL),
            dict(routing_function="yx"),
            dict(topology="torus"),
            dict(packet_length=8),
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_differing_configs_get_distinct_plans(self, override):
        base = spec_config()
        varied = spec_config(**override)
        assert specialization_key(base) != specialization_key(varied)
        plan = plan_for(base)
        other = plan_for(varied)
        assert plan is not None and other is not None
        assert plan is not other

    @pytest.mark.parametrize(
        "override",
        [
            dict(allocator_kind="maximum"),
            dict(routing_function="o1turn"),
            dict(routing_function="adaptive"),
            dict(speculation_priority="equal"),
        ],
        ids=lambda o: next(iter(o.values())),
    )
    def test_envelope_dimensions_have_distinct_plans(self, override):
        # Every built-in config dimension compiles; each gets its own
        # interned plan (the closures differ per dimension).
        base = spec_config()
        varied = spec_config(**override)
        assert specialization_key(base) != specialization_key(varied)
        plan = plan_for(varied)
        assert plan is not None
        assert plan is not plan_for(base)
        assert plan is plan_for(replace(varied, seed=41))

    def test_plan_lookup_is_repeatable(self):
        config = spec_config()
        assert plan_for(config) is plan_for(replace(config, seed=7))
        maximum = spec_config(allocator_kind="maximum")
        assert plan_for(maximum) is plan_for(replace(maximum, seed=7))

    @pytest.mark.parametrize("routing", ["o1turn", "adaptive"])
    def test_route_memos_intern_on_the_plan(self, routing):
        # The packet-dependent route memos are computed lazily per node
        # and interned on the plan cache: two networks with the same
        # config share the same table objects.
        config = spec_config(routing_function=routing)
        plan = plan_for(config)
        assert plan is not None
        first = Network(config)
        cache_size = len(plan.cache)
        assert cache_size == len(first.routers)
        second = Network(replace(config, seed=23))
        assert len(plan.cache) == cache_size  # no recompute
        for a, b in zip(first.routers, second.routers):
            if routing == "o1turn":
                assert a._ensure_o1turn_tables() is b._ensure_o1turn_tables()
            else:
                assert a._ensure_adaptive_table() is b._ensure_adaptive_table()


class TestNetworkBinding:
    @pytest.mark.parametrize(
        "override",
        [
            dict(),
            dict(allocator_kind="maximum"),
            dict(routing_function="o1turn"),
            dict(routing_function="adaptive"),
            dict(speculation_priority="equal"),
        ],
        ids=lambda o: next(iter(o.values()), "default"),
    )
    def test_fast_stepper_compiles_every_router(self, override):
        network = Network(spec_config(**override))
        assert network.generic_step_reason is None
        assert all(r._step_fn is not None for r in network.routers)
        assert network.routers_specialized == len(network.routers)
        # Each router gets its own closure over its own state arrays.
        fns = {id(r._step_fn) for r in network.routers}
        assert len(fns) == len(network.routers)

    def test_reference_stepper_never_compiles(self):
        network = Network(spec_config(stepper="reference"))
        assert network.generic_step_reason == "reference-stepper"
        assert all(r._step_fn is None for r in network.routers)
        assert network.routers_specialized == 0

    def test_unsupported_config_falls_back(self, monkeypatch):
        # No built-in config is outside the envelope any more; emulate
        # an out-of-tree config dimension by blanking the plan lookup.
        from repro.sim.routers import specialized

        monkeypatch.setattr(specialized, "plan_for", lambda config: None)
        network = Network(spec_config())
        assert network.generic_step_reason == "unsupported-config"
        assert all(r._step_fn is None for r in network.routers)
        assert network.routers_specialized == 0

    def test_checked_attach_drops_compiled_steps(self):
        network = Network(spec_config())
        assert network.generic_step_reason is None
        suite = ValidationSuite.default(network.config)
        suite.attach(network)
        assert network.generic_step_reason == "checked"
        assert all(r._step_fn is None for r in network.routers)

    def test_telemetry_attach_keeps_compiled_steps(self):
        network = Network(spec_config())
        session = TelemetrySession()
        session.attach(network)
        assert network.generic_step_reason is None
        assert network.routers_specialized == len(network.routers)
        assert all(r._step_fn is not None for r in network.routers)

    def test_tracer_attach_drops_compiled_steps(self):
        network = Network(spec_config())
        Tracer.attach(network)
        assert network.generic_step_reason == "trace"
        assert all(r._step_fn is None for r in network.routers)


class TestCompileGuards:
    @staticmethod
    def _fresh_router():
        network = Network(spec_config())
        router = network.routers[5]
        assert compile_step(router) is not None
        return router

    def test_instance_monkeypatch_refuses_compile(self):
        router = self._fresh_router()
        router._traverse = lambda *a, **k: None
        assert compile_step(router) is None

    def test_class_monkeypatch_refuses_compile(self, monkeypatch):
        router = self._fresh_router()
        monkeypatch.setattr(
            SpeculativeVCRouter, "_st_phase", lambda self, cycle: None
        )
        assert compile_step(router) is None

    def test_tracer_refuses_compile(self):
        router = self._fresh_router()
        router.tracer = object()
        assert compile_step(router) is None

    def test_vc_allocator_subclass_refuses_compile(self):
        # The fused stages evolve SeparableAllocator state directly; a
        # subclass (e.g. a recording proxy) may override behaviour the
        # closure bypasses, so exact-type matching is required.
        router = self._fresh_router()

        class RecordingAllocator(SeparableAllocator):
            pass

        original = router._vc_allocator
        router._vc_allocator = RecordingAllocator(
            original.num_groups, original.members_per_group,
            original.num_resources,
        )
        assert compile_step(router) is None

    def test_spec_suballocator_swap_refuses_compile(self):
        router = self._fresh_router()

        class RecordingAllocator(SeparableAllocator):
            pass

        nonspec = router._spec_switch_allocator._nonspec
        router._spec_switch_allocator._nonspec = RecordingAllocator(
            nonspec.num_groups, nonspec.members_per_group,
            nonspec.num_resources,
        )
        assert compile_step(router) is None

    def test_maximum_allocator_subclass_refuses_compile(self):
        # Same exact-type discipline for the batched bitmask matcher:
        # a proxy subclass must push the router onto the generic path.
        from repro.sim.matching import MaximumMatchingAllocator

        network = Network(spec_config(allocator_kind="maximum"))
        router = network.routers[5]
        assert compile_step(router) is not None

        class RecordingMatcher(MaximumMatchingAllocator):
            pass

        original = router._vc_allocator
        router._vc_allocator = RecordingMatcher(
            original.num_groups, original.members_per_group,
            original.num_resources,
        )
        assert compile_step(router) is None
