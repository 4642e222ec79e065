"""Multifidelity distribution learning under a hard sampling budget.

The package estimates the full distribution of an expensive scalar model
output by adaptively splitting a budget between joint exploration of cheap
surrogate models and exploitation of the best regression emulator, with all
errors measured in the exact 1-Wasserstein metric.
"""

from .bench import (
    ExperimentConfig,
    ResultRow,
    fit_tradeoff_curve,
    run_ecdf_y,
    run_experiment,
    run_fixed_m,
    run_statistics_comparison,
)
from .measures import (
    EmpiricalMeasure,
    MomentSummary,
    cdf_at,
    j_functionals,
    kolmogorov,
    moment_summary,
    quantile,
    sample_inverse_transform,
    wasserstein1,
)
from .models import (
    FeatureMap,
    ModelSuite,
    SampleTable,
    expanded_suite,
    ishigami_suite,
    suite_from_config,
    table_suite,
)
from .policy import (
    PolicyState,
    SubsetScore,
    aetc_d_step,
    efficiency_ratio,
    exploit,
    optimal_exploration,
    oracle_optimum,
    pilot_statistics,
    run_aetc_d,
    score_subsets,
    start_exploration,
    surrogate_loss,
)
from .regress import (
    FitResult,
    QuantileFit,
    design_matrix,
    ols_fit,
    pinball_loss,
    quantile_fit,
)

__version__ = "0.1.0"

__all__ = [
    "EmpiricalMeasure",
    "ExperimentConfig",
    "FeatureMap",
    "FitResult",
    "ModelSuite",
    "MomentSummary",
    "PolicyState",
    "QuantileFit",
    "ResultRow",
    "SampleTable",
    "SubsetScore",
    "aetc_d_step",
    "cdf_at",
    "design_matrix",
    "efficiency_ratio",
    "expanded_suite",
    "exploit",
    "fit_tradeoff_curve",
    "ishigami_suite",
    "j_functionals",
    "kolmogorov",
    "moment_summary",
    "ols_fit",
    "optimal_exploration",
    "oracle_optimum",
    "pilot_statistics",
    "pinball_loss",
    "quantile",
    "quantile_fit",
    "run_aetc_d",
    "run_ecdf_y",
    "run_experiment",
    "run_fixed_m",
    "run_statistics_comparison",
    "sample_inverse_transform",
    "score_subsets",
    "start_exploration",
    "suite_from_config",
    "surrogate_loss",
    "table_suite",
    "wasserstein1",
]
