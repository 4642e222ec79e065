import re
from dataclasses import fields
from pathlib import Path

import mfdist

PUBLIC_NAMES = [
    "EmpiricalMeasure", "ExperimentConfig", "FeatureMap", "FitResult", "ModelSuite",
    "MomentSummary", "PolicyState", "QuantileFit", "ResultRow", "SampleTable",
    "SubsetScore", "aetc_d_step", "cdf_at", "efficiency_ratio", "expanded_suite",
    "exploit", "fit_tradeoff_curve", "ishigami_suite", "j_functionals",
    "moment_summary", "ols_fit", "optimal_exploration", "oracle_optimum",
    "pilot_statistics", "quantile_fit", "run_aetc_d", "run_ecdf_y",
    "run_experiment", "run_fixed_m", "run_statistics_comparison",
    "sample_inverse_transform", "score_subsets", "start_exploration",
    "suite_from_config", "surrogate_loss", "table_suite", "wasserstein1",
]


def test_public_names_are_pinned_and_resolve():
    assert mfdist.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert callable(getattr(mfdist, name)), name


def test_a_measure_is_built_from_atoms_only():
    # one uniform form: weight 1/N per atom, repeated atoms for other weights
    init = tuple(f.name for f in fields(mfdist.EmpiricalMeasure) if f.init)
    assert init == ("atoms",)


def test_only_measures_knows_the_level_format():
    # the cached prefix sums are private to one module, and the stored levels
    # and uniform flag, both deleted, must not come back elsewhere
    private = re.compile(r"\b_(?:levels|prefix|uniform)\w*")
    package = Path(mfdist.__file__).parent
    for module in sorted(package.glob("*.py")):
        if module.name != "measures.py":
            found = private.findall(module.read_text(encoding="utf-8"))
            assert not found, f"{module.name} names {sorted(set(found))}"
