"""Step compilation and fallback correctness.

The fast stepper compiles one step closure per router at wiring time,
for every built-in config.  These tests pin that envelope and every
guard that must force the generic path: the reference stepper, a
tracer attached after wiring (checked-mode probes and telemetry read
state and force nothing), monkeypatched step or allocator methods, and
swapped allocator types.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.sim.allocators import (
    SeparableAllocator,
    SpeculativeSwitchAllocator,
)
from repro.sim.arbiters import MatrixArbiter, RoundRobinArbiter
from repro.sim.config import RouterKind, SimConfig
from repro.sim.network import Network
from repro.sim.routers.spec_vc import SpeculativeVCRouter
from repro.sim.routers.specialized import compile_step
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


def _case_id(override):
    value = next(iter(override.values()), "default")
    return getattr(value, "value", value)


class TestNetworkBinding:
    @pytest.mark.parametrize(
        "override",
        [
            dict(),
            dict(allocator_kind="maximum"),
            dict(routing_function="o1turn"),
            dict(routing_function="adaptive"),
            dict(speculation_priority="equal"),
            dict(routing_function="yx"),
            dict(topology="torus"),
            *(
                dict(router_kind=kind, num_vcs=2 if kind.uses_vcs else 1)
                for kind in RouterKind
                if kind is not RouterKind.SPECULATIVE_VC
            ),
        ],
        ids=_case_id,
    )
    def test_fast_stepper_compiles_every_router(self, override):
        network = Network(spec_config(**override))
        assert network.generic_step_reason is None
        assert all(fn is not None for fn in network._step_fns)
        assert network.routers_specialized == len(network.routers)
        # Each router gets its own closure over its own state arrays.
        fns = {id(fn) for fn in network._step_fns}
        assert len(fns) == len(network.routers)

    def test_reference_stepper_never_compiles(self):
        network = Network(spec_config(stepper="reference"))
        assert network.generic_step_reason == "reference-stepper"
        assert all(fn is None for fn in network._step_fns)
        assert network.routers_specialized == 0

    def test_checked_attach_keeps_compiled_steps(self):
        network = Network(spec_config())
        assert network.generic_step_reason is None
        suite = ValidationSuite.default(network.config)
        suite.attach(network)
        assert network.generic_step_reason is None
        assert network.routers_specialized == len(network.routers)
        assert all(fn is not None for fn in network._step_fns)

    def test_telemetry_attach_keeps_compiled_steps(self):
        network = Network(spec_config())
        session = TelemetrySession()
        session.attach(network)
        assert network.generic_step_reason is None
        assert network.routers_specialized == len(network.routers)
        assert all(fn is not None for fn in network._step_fns)

    def test_tracer_attach_drops_compiled_steps(self):
        network = Network(spec_config())
        Tracer.attach(network)
        assert network.generic_step_reason == "trace"
        assert all(fn is None for fn in network._step_fns)


class TestPackedRouterState:
    @pytest.mark.parametrize("kind", list(RouterKind), ids=lambda k: k.value)
    def test_wired_router_stays_under_shared_key_limit(self, kind):
        """CPython 3.11 keeps at most 30 instance attributes in a
        class's shared keys; past that every ``router.x`` the compiled
        step executes pays a dict lookup (docs/PERFORMANCE.md, "Packed
        router state")."""
        config = spec_config(
            router_kind=kind, num_vcs=2 if kind.uses_vcs else 1
        )
        router = Network(config).routers[5]
        # vars() materialises the instance dict: fine on a router that
        # never steps, never on one that does.
        assert len(vars(router)) < 30

    def test_spec_router_builds_only_its_two_switch_allocators(self):
        router = Network(spec_config()).routers[5]
        assert isinstance(
            router._spec_switch_allocator, SpeculativeSwitchAllocator
        )
        assert not hasattr(router, "_switch_allocator")


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

    def test_class_patch_before_first_network_is_not_compiled_past(self):
        """A class-level patch made before a process wires its first
        network runs: ``compile_step`` compares against captures taken
        when ``repro.sim.routers`` is imported, so the patch cannot be
        captured as canonical.  Checked in a fresh interpreter, since
        collection has imported every module into this one."""
        script = textwrap.dedent("""
            from repro.sim.config import RouterKind, SimConfig
            from repro.sim.routers.base import BaseRouter

            calls = []
            real = BaseRouter.cycle

            def patched(self, cycle):
                calls.append(cycle)
                real(self, cycle)

            BaseRouter.cycle = patched
            from repro.sim.network import Network

            network = Network(SimConfig(
                router_kind=RouterKind.WORMHOLE, mesh_radix=4,
                injection_fraction=0.3, seed=1,
            ))
            network.run(200)
            print(network.routers_specialized, len(calls))
        """)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        specialized, calls = map(int, result.stdout.split())
        assert specialized == 0
        assert calls > 0

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

    @pytest.mark.parametrize("allocator_kind", ["separable", "maximum"])
    def test_class_patched_allocator_method_runs(
        self, monkeypatch, allocator_kind
    ):
        """A spy on ``SpeculativeSwitchAllocator.allocate`` -- a method
        the compiled kernels inline -- pushes every router onto the
        generic path, so the spy really runs."""
        real = SpeculativeSwitchAllocator.allocate
        calls = []

        def spy(self, nonspec_requests, spec_requests):
            calls.append(len(nonspec_requests) + len(spec_requests))
            return real(self, nonspec_requests, spec_requests)

        monkeypatch.setattr(SpeculativeSwitchAllocator, "allocate", spy)
        config = spec_config(
            injection_fraction=0.5, seed=5, allocator_kind=allocator_kind
        )
        network = Network(config)
        assert network.routers_specialized == 0
        network.run(300)
        assert calls

    @pytest.mark.parametrize("name", ["allocate", "_allocate_equal"])
    def test_instance_patched_spec_allocator_refuses_compile(self, name):
        router = self._fresh_router()
        allocator = router._spec_switch_allocator
        real = getattr(allocator, name)
        setattr(allocator, name, lambda *args: real(*args))
        assert compile_step(router) is None

    def test_class_patched_suballocator_refuses_compile(self, monkeypatch):
        router = self._fresh_router()
        monkeypatch.setattr(
            SeparableAllocator, "allocate",
            lambda self, requests, busy_resources=(): [],
        )
        assert compile_step(router) is None

    @pytest.mark.parametrize("arbiter_kind", ["matrix", "round_robin"])
    def test_class_patched_arbiter_runs_as_often_as_reference(
        self, monkeypatch, arbiter_kind
    ):
        """The switch closures and fused VA stages inline a sole
        candidate's arbiter rotation, so a spy on the arbiter class's
        ``arbitrate`` pushes every router onto the generic path: it
        runs exactly as often as on the reference stepper."""
        arbiter_class = {
            "matrix": MatrixArbiter, "round_robin": RoundRobinArbiter,
        }[arbiter_kind]
        real = arbiter_class.arbitrate
        calls = []

        def spy(self, requests):
            calls.append(len(requests))
            return real(self, requests)

        monkeypatch.setattr(arbiter_class, "arbitrate", spy)
        counts = {}
        for stepper in ("fast", "reference"):
            calls.clear()
            network = Network(spec_config(
                injection_fraction=0.5, seed=5, stepper=stepper,
                arbiter_kind=arbiter_kind,
            ))
            assert network.routers_specialized == 0
            network.run(300)
            counts[stepper] = len(calls)
        assert counts["fast"] == counts["reference"] > 0

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
