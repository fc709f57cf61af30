"""The probe container the engine drives in checked mode."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .probes import InvariantViolation, Probe, Violation, default_probes


class ValidationSuite:
    """A set of invariant probes run against one simulation.

    Parameters
    ----------
    probes:
        The probes to run; :meth:`default` builds the standard set for
        a config.
    interval:
        Run the cycle probes every ``interval`` network steps (a probe
        marked ``every_step`` and the event probe see every step).
        ``1`` checks every cycle.
    fail_fast:
        Raise :class:`InvariantViolation` on the first violation
        (default).  Otherwise violations accumulate and the run
        completes; read them from :attr:`violations` or the summary.
    snapshot_dir:
        When set, any violation carrying a snapshot also writes it to
        ``<snapshot_dir>/violation-cycle<NNN>.txt`` for offline
        inspection.
    """

    def __init__(
        self,
        probes: Sequence[Probe],
        *,
        interval: int = 1,
        fail_fast: bool = True,
        snapshot_dir: Union[str, Path, None] = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.probes = list(probes)
        self._every_step = [p for p in self.probes if p.every_step]
        self.interval = interval
        self.fail_fast = fail_fast
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.violations: List[Violation] = []
        self.cycles_checked = 0
        self._steps_seen = 0
        self._attached = False

    @classmethod
    def default(cls, config, **kwargs) -> "ValidationSuite":
        """The standard checked-mode suite for ``config``."""
        return cls(default_probes(config), **kwargs)

    # ------------------------------------------------------------------

    def attach(self, network) -> None:
        if self._attached:
            raise RuntimeError("suite is already attached to a network")
        for probe in self.probes:
            probe.bind(self)
            probe.attach(network)
        self._attached = True

    def detach(self, network) -> None:
        for probe in self.probes:
            probe.detach(network)
            # A bound probe and its suite refer to each other: unbind,
            # so a finished checked point is freed by reference counting.
            probe.suite = None
        self._attached = False

    def after_cycle(self, network) -> None:
        """Run the cycle probes on the settled end-of-step state."""
        self._steps_seen += 1
        cycle = network.cycle
        if self._steps_seen % self.interval:
            for probe in self._every_step:
                probe.check(network, cycle)
            return
        self.cycles_checked += 1
        for probe in self.probes:
            probe.check(network, cycle)

    def finalize(self, network) -> Dict[str, Any]:
        """End-of-run probe checks, detach, then the validation summary."""
        for probe in self.probes:
            probe.finalize(network)
        self.detach(network)
        return self.summary()

    # ------------------------------------------------------------------

    def report(self, violation: Violation) -> None:
        """Record a violation (called by probes); raise when fail-fast."""
        self.violations.append(violation)
        if self.snapshot_dir is not None and violation.snapshot:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            path = self.snapshot_dir / f"violation-cycle{violation.cycle}.txt"
            path.write_text(str(violation) + "\n")
        if self.fail_fast:
            raise InvariantViolation(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        """JSON-safe digest attached to ``RunResult.validation``."""
        return {
            "ok": self.ok,
            "cycles_checked": self.cycles_checked,
            "interval": self.interval,
            "probes": {probe.name: probe.checks for probe in self.probes},
            "violations": [v.to_dict() for v in self.violations],
        }


def resolve_checked(
    checked: Union["ValidationSuite", bool, None], config
) -> Optional["ValidationSuite"]:
    """Interpret the engine's ``checked`` argument.

    ``None``/``False`` disable validation; ``True`` builds the default
    suite for ``config``; a :class:`ValidationSuite` is used as given.
    """
    if checked is None or checked is False:
        return None
    if checked is True:
        return ValidationSuite.default(config)
    if isinstance(checked, ValidationSuite):
        return checked
    raise TypeError(
        f"checked must be a bool or ValidationSuite, got {checked!r}"
    )
