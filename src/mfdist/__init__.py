"""Multifidelity distribution learning under a hard sampling budget.

The package estimates the full distribution of an expensive scalar model
output by adaptively splitting a budget between joint exploration of cheap
surrogate models and exploitation of the best regression emulator, with all
errors measured in the exact 1-Wasserstein metric.
"""

import types as _types

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
    moment_summary,
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
    ols_fit,
    quantile_fit,
)

__version__ = "0.1.0"

# the names imported above, each written once
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
