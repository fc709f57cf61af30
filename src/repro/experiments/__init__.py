"""Per-table/figure reproduction drivers (see DESIGN.md's experiment index).

* :func:`table1 <repro.experiments.figures.table1>` -- the delay-equation table.
* :func:`fig11 <repro.experiments.figures.fig11>` -- pipeline depths vs (p, v).
* :func:`fig12 <repro.experiments.figures.fig12>` -- combined allocation delay.
* :func:`fig13`-:func:`fig15`, :func:`fig17`, :func:`fig18` -- simulated
  latency-throughput curves.
* :func:`fig16 <repro.experiments.figures.fig16>` -- buffer-turnaround timeline.
"""

from .capacity import CapacityAnalysis, analyze_uniform_capacity, theoretical_capacity
from .figures import (
    CurveSpec,
    Fig11Result,
    Fig12Result,
    SimFigureResult,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    render_table1_report,
    table1,
)
from .sweep import (
    DEFAULT_LOADS,
    SATURATION_LATENCY_MULTIPLE,
    compare_curves,
    find_saturation,
)
from .report import delay_model_report, simulation_report
from .ablations import (
    AblationResult,
    allocator_ablation,
    arbiter_ablation,
    buffer_depth_sweep,
    burstiness_study,
    flow_control_trio,
    many_vcs_study,
    o1turn_study,
    pipeline_depth_study,
    routing_policy_study,
    speculation_priority_ablation,
    topology_study,
    vc_partition_sweep,
    traffic_pattern_study,
)
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
    "AblationResult",
    "CapacityAnalysis",
    "CurveSpec",
    "ROUTER_DEPTHS",
    "ZeroLoadPrediction",
    "allocator_ablation",
    "arbiter_ablation",
    "buffer_depth_sweep",
    "burstiness_study",
    "flow_control_trio",
    "many_vcs_study",
    "o1turn_study",
    "pipeline_depth_study",
    "routing_policy_study",
    "speculation_priority_ablation",
    "vc_partition_sweep",
    "fig11_to_csv",
    "fig12_to_csv",
    "figure_to_csv",
    "results_to_json",
    "sweep_to_csv",
    "paper_zero_load_predictions",
    "topology_study",
    "predicted_zero_load_latency",
    "sustainable_vc_rate",
    "traffic_pattern_study",
    "zero_load_latency_for_path",
    "DEFAULT_LOADS",
    "Fig11Result",
    "Fig12Result",
    "SATURATION_LATENCY_MULTIPLE",
    "SimFigureResult",
    "analyze_uniform_capacity",
    "compare_curves",
    "delay_model_report",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "find_saturation",
    "render_table1_report",
    "simulation_report",
    "table1",
    "theoretical_capacity",
]
