"""Threshold algorithms for online k-max / k-min search.

Library layout:

- ``core``       domain types, the window stream (``WindowStream``) and the
                 online threshold algorithm with its batched replay
- ``worstcase``  optimal worst-case schedules and competitive ratios
- ``pareto``     consistency-robustness trade-off curves and lambda targets
- ``augmented``  prediction-aware threshold designs (cases I-VI)
- ``instances``  price series (synthetic or ingested), cut into window
                 streams by ``sliding_windows``
- ``learner``    multiplicative-weights selection of the confidence lambda
- ``harness``    windowed experiment pipeline shared by the CLI and scripts
- ``cli``        the ``ksearch`` command-line entry point
"""

from .core import (
    Decision,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    RunTrace,
    SearchInstance,
    ThresholdSchedule,
    WindowStream,
    offline_opt,
    ota_totals,
    run_ota,
)
from .errors import (
    ConstructionError,
    DataFormatError,
    DomainError,
    InvalidInputError,
    KSearchError,
)
from .worstcase import (
    WorstCaseSolution,
    solve_cr,
    worst_case_thresholds,
)
from .pareto import (
    FrontierSpec,
    frontier_curve,
    lower_bound,
    target_point,
)
from .augmented import (
    AugmentedDesign,
    design,
    interval_ratios,
    prediction_ratio,
)
from .instances import (
    FIVE_YEAR_SAMPLES,
    STRIDE_SAMPLES,
    WINDOW_SAMPLES,
    PriceSeries,
    adjust_error,
    gen_synthetic_series,
    ingest_csv,
    scale_theta,
    sliding_windows,
)
from .learner import (
    RegretHistory,
    run_learning,
)
from .harness import (
    ALGORITHMS,
    CellSummary,
    SweepCell,
    build_cells,
    evaluate_windows,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AugmentedDesign",
    "CellSummary",
    "ConstructionError",
    "DataFormatError",
    "Decision",
    "DomainError",
    "FIVE_YEAR_SAMPLES",
    "FrontierSpec",
    "InvalidInputError",
    "KSearchError",
    "ParetoPoint",
    "PriceBounds",
    "PriceSeries",
    "ProblemKind",
    "RegretHistory",
    "RunTrace",
    "STRIDE_SAMPLES",
    "SearchInstance",
    "SweepCell",
    "ThresholdSchedule",
    "WINDOW_SAMPLES",
    "WindowStream",
    "WorstCaseSolution",
    "adjust_error",
    "build_cells",
    "design",
    "evaluate_windows",
    "frontier_curve",
    "gen_synthetic_series",
    "ingest_csv",
    "interval_ratios",
    "lower_bound",
    "offline_opt",
    "ota_totals",
    "prediction_ratio",
    "run_learning",
    "run_ota",
    "run_sweep",
    "scale_theta",
    "sliding_windows",
    "solve_cr",
    "summarize",
    "target_point",
    "worst_case_thresholds",
    "__version__",
]
