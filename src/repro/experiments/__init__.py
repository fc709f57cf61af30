"""Per-table/figure reproduction (see DESIGN.md's experiment index).

* :func:`table1 <repro.experiments.figures.table1>` -- the delay-equation table.
* :func:`fig11 <repro.experiments.figures.fig11>` -- pipeline depths vs (p, v).
* :func:`fig12 <repro.experiments.figures.fig12>` -- combined allocation delay.
* :func:`fig16 <repro.experiments.figures.fig16>` -- buffer-turnaround timeline.
* :data:`CATALOG <repro.experiments.catalog.CATALOG>` -- every simulated
  figure (rows ``fig13``-``fig15``, ``fig17``, ``fig18``) and every
  study of a design choice, as data; :func:`run` simulates any set of
  rows, each distinct point once, and ``RowResult.render`` draws them.
"""

from .capacity import CapacityAnalysis, analyze_uniform_capacity, theoretical_capacity
from .catalog import CATALOG, CurveSpec, Row, RowResult, get_row, run
from .figures import (
    Fig11Result,
    Fig12Result,
    fig11,
    fig12,
    fig16,
    render_table1_report,
    table1,
)
from .sweep import (
    DEFAULT_LOADS,
    SATURATION_LATENCY_MULTIPLE,
    compare_curves,
    find_saturation,
)
from .report import delay_model_report
from .export import (
    fig11_to_csv,
    fig12_to_csv,
    figure_to_csv,
    results_to_json,
    sweep_to_csv,
)
from .analysis import (
    ROUTER_DEPTHS,
    ZeroLoadPrediction,
    paper_zero_load_predictions,
    predicted_zero_load_latency,
    sustainable_vc_rate,
    zero_load_latency_for_path,
)

__all__ = [
    "CATALOG",
    "CapacityAnalysis",
    "CurveSpec",
    "DEFAULT_LOADS",
    "Fig11Result",
    "Fig12Result",
    "ROUTER_DEPTHS",
    "Row",
    "RowResult",
    "SATURATION_LATENCY_MULTIPLE",
    "ZeroLoadPrediction",
    "analyze_uniform_capacity",
    "compare_curves",
    "delay_model_report",
    "fig11",
    "fig11_to_csv",
    "fig12",
    "fig12_to_csv",
    "fig16",
    "figure_to_csv",
    "find_saturation",
    "get_row",
    "paper_zero_load_predictions",
    "predicted_zero_load_latency",
    "render_table1_report",
    "results_to_json",
    "run",
    "sustainable_vc_rate",
    "sweep_to_csv",
    "table1",
    "theoretical_capacity",
    "zero_load_latency_for_path",
]
