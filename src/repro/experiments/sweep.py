"""Reading latency-throughput curves the way the paper quotes them.

Each of the paper's Figures 13-15, 17 and 18 is a set of
latency-vs-offered-load curves over the 8x8 mesh, produced by
:meth:`repro.runtime.Experiment.sweep` / ``sweeps``.
:func:`find_saturation` reads the saturation point off such a curve
(the load where average latency diverges) and :func:`compare_curves`
renders several side by side.
"""

from __future__ import annotations

import math
from typing import List

from ..runtime.experiment import DEFAULT_LOADS
from ..sim.metrics import SweepResult

__all__ = [
    "DEFAULT_LOADS",
    "SATURATION_LATENCY_MULTIPLE",
    "compare_curves",
    "find_saturation",
]

#: A run is called saturated when its average latency exceeds this
#: multiple of the curve's zero-load latency (the knee of the curve).
SATURATION_LATENCY_MULTIPLE = 3.0


def find_saturation(
    curve: SweepResult,
    latency_multiple: float = SATURATION_LATENCY_MULTIPLE,
) -> float:
    """Saturation load: the highest load still on the flat part of the curve.

    Robust to degenerate curves: an empty sweep, or one whose *first*
    point already saturated (no finite zero-load latency exists to
    anchor the knee), reports a saturation load of 0.0 instead of
    raising.
    """
    if curve.points:
        zero_load = curve.zero_load_latency()
        if math.isfinite(zero_load):
            return curve.saturation_fraction(latency_multiple * zero_load)
    return 0.0


def compare_curves(curves: List[SweepResult]) -> str:
    """Render several curves side by side, with saturation estimates."""
    lines = []
    for curve in curves:
        lines.append(curve.describe())
        lines.append(
            f"  -> zero-load latency {curve.zero_load_latency():.1f} cycles, "
            f"saturation ~{find_saturation(curve):.0%} of capacity"
        )
    return "\n".join(lines)
