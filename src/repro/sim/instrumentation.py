"""Engine instrumentation: per-run counters and progress hooks.

The simulation driver fills a :class:`RunCounters` on every run -- how
many cycles each phase took, how many flits moved, how the allocators
behaved -- so sweeps can report where simulation time goes without
re-running anything.  All counter fields are deterministic functions of
the configuration and seed; wall-clock timings live in a separate
``compare=False`` field so two runs of the same point (serial, parallel,
or cache-restored) compare equal.

:class:`ProgressHook` is the observer protocol the sweep runtime calls
as points start and finish, for live progress display over long grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Optional, Protocol, runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover
    from .config import SimConfig
    from .metrics import RunResult


@dataclass
class RunCounters:
    """Deterministic per-run event counters plus wall-clock phase times.

    Everything except ``wall_seconds`` is reproducible bit-for-bit from
    (config, measurement, seed); ``wall_seconds`` is excluded from
    equality so results survive caching and process hops unchanged.
    """

    #: Cycles spent in each engine phase.
    warmup_cycles: int = 0
    sample_cycles: int = 0
    drain_cycles: int = 0
    #: Flit traffic over the whole run (warm-up included).
    flits_injected: int = 0
    flits_ejected: int = 0
    flits_forwarded: int = 0
    packets_routed: int = 0
    #: Allocator behaviour, summed over all routers.
    sa_grants: int = 0
    spec_grants: int = 0
    spec_wasted: int = 0
    credits_stalled: int = 0
    #: Wall-clock seconds per phase ("warmup" / "sample" / "drain"),
    #: plus "total".  Not part of equality: timing is not reproducible.
    wall_seconds: Dict[str, float] = field(default_factory=dict, compare=False)
    #: Specialization envelope: how many routers ran the compiled fast
    #: step versus the generic one, and why the generic path was taken
    #: (``None`` when every router specialized).  Excluded from
    #: equality -- checked/generic reruns of the same point must still
    #: compare equal to the fast run they validate.
    routers_specialized: int = field(default=0, compare=False)
    routers_generic: int = field(default=0, compare=False)
    generic_step_reason: Optional[str] = field(default=None, compare=False)

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.sample_cycles + self.drain_cycles

    @property
    def misspeculation_rate(self) -> float:
        """Fraction of speculative grants that were wasted."""
        if not self.spec_grants:
            return 0.0
        return self.spec_wasted / self.spec_grants

    @property
    def speculation_win_rate(self) -> float:
        """Fraction of speculative grants that moved a flit.

        The complement of :attr:`misspeculation_rate`; 0.0 (not a
        division error) when the router never speculated, so
        non-speculative configurations report an honest zero.
        """
        if not self.spec_grants:
            return 0.0
        return 1.0 - self.spec_wasted / self.spec_grants

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second (0 if untimed)."""
        total = self.wall_seconds.get("total", 0.0)
        if total <= 0:
            return 0.0
        return self.total_cycles / total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "warmup_cycles": self.warmup_cycles,
            "sample_cycles": self.sample_cycles,
            "drain_cycles": self.drain_cycles,
            "flits_injected": self.flits_injected,
            "flits_ejected": self.flits_ejected,
            "flits_forwarded": self.flits_forwarded,
            "packets_routed": self.packets_routed,
            "sa_grants": self.sa_grants,
            "spec_grants": self.spec_grants,
            "spec_wasted": self.spec_wasted,
            "credits_stalled": self.credits_stalled,
            "wall_seconds": dict(self.wall_seconds),
            "routers_specialized": self.routers_specialized,
            "routers_generic": self.routers_generic,
            "generic_step_reason": self.generic_step_reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunCounters":
        return cls(**data)

    def describe(self) -> str:
        rate = self.cycles_per_second
        timing = f", {rate:,.0f} cycles/s" if rate else ""
        return (
            f"{self.total_cycles:,} cycles "
            f"(warmup {self.warmup_cycles:,} / sample {self.sample_cycles:,}"
            f" / drain {self.drain_cycles:,}), "
            f"{self.flits_forwarded:,} flits forwarded, "
            f"{self.sa_grants:,} switch grants, "
            f"{self.spec_wasted:,}/{self.spec_grants:,} "
            f"speculations wasted{timing}"
        )


@runtime_checkable
class ProgressHook(Protocol):
    """Observer for live sweep/grid progress.

    Implement any subset; the runtime calls every method, so use
    :class:`NullProgress` as a base when only one callback matters.
    """

    def on_batch_start(self, total: int) -> None:
        """A batch of ``total`` points is about to run."""

    def on_point_start(self, index: int, total: int,
                       config: "SimConfig") -> None:
        """Point ``index`` (0-based) began executing."""

    def on_point_done(self, index: int, total: int, config: "SimConfig",
                      result: "RunResult", cached: bool) -> None:
        """Point ``index`` finished (``cached`` if served from cache)."""

    def on_batch_done(self, total: int) -> None:
        """Every point of the batch has a result."""


class NullProgress:
    """No-op :class:`ProgressHook`; subclass and override what you need."""

    def on_batch_start(self, total: int) -> None:
        pass

    def on_point_start(self, index: int, total: int, config) -> None:
        pass

    def on_point_done(self, index: int, total: int, config, result,
                      cached: bool) -> None:
        pass

    def on_batch_done(self, total: int) -> None:
        pass


class PrintProgress(NullProgress):
    """Minimal textual progress: one line per finished point."""

    def __init__(self, stream=None) -> None:
        import sys

        self._stream = stream or sys.stderr
        self._done = 0

    def on_batch_start(self, total: int) -> None:
        self._done = 0

    def on_point_done(self, index: int, total: int, config, result,
                      cached: bool) -> None:
        self._done += 1
        source = "cache" if cached else "run"
        spec = ""
        if result.counters is not None and result.counters.spec_grants:
            spec = f"  spec win {result.counters.speculation_win_rate:.1%}"
        print(
            f"[{self._done}/{total}] load {config.injection_fraction:.2f} "
            f"seed {config.seed} ({source}): {result.describe()}{spec}",
            file=self._stream,
        )


def collect_counters(network, warmup_cycles: int, sample_cycles: int,
                     drain_cycles: int,
                     wall_seconds: Optional[Dict[str, float]] = None
                     ) -> RunCounters:
    """Snapshot a finished :class:`~repro.sim.network.Network`'s counters."""
    stats = [router.stats for router in network.routers]
    return RunCounters(
        warmup_cycles=warmup_cycles,
        sample_cycles=sample_cycles,
        drain_cycles=drain_cycles,
        flits_injected=network.total_flits_injected(),
        flits_ejected=network.total_flits_ejected(),
        flits_forwarded=sum(s.flits_forwarded for s in stats),
        packets_routed=sum(s.packets_routed for s in stats),
        sa_grants=sum(s.sa_grants for s in stats),
        spec_grants=sum(s.spec_grants for s in stats),
        spec_wasted=sum(s.spec_wasted for s in stats),
        credits_stalled=sum(s.credits_stalled for s in stats),
        wall_seconds=dict(wall_seconds or {}),
        routers_specialized=network.routers_specialized,
        routers_generic=len(network.routers) - network.routers_specialized,
        generic_step_reason=network.generic_step_reason,
    )
