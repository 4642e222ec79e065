import re
from dataclasses import fields
from pathlib import Path

import pytest

import mfdist
from mfdist import errors

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


def test_each_public_name_is_declared_once_in_its_module():
    modules = [mfdist.bench, mfdist.measures, mfdist.models, mfdist.policy, mfdist.regress]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name


def test_exactly_the_numerical_failures_are_cell_errors():
    cell_errors = {
        errors.BudgetExhaustedError, errors.InfeasibleExploitationError,
        errors.InsufficientSampleError, errors.PolicyError, errors.QuantileSolverError,
    }
    classes = [value for value in vars(errors).values() if isinstance(value, type)]
    subclasses = {cls for cls in classes if issubclass(cls, errors.CellError)}
    assert subclasses == cell_errors | {errors.CellError}
    # the errors of a run's inputs abort the run
    for cls in (errors.ConfigError, errors.TableParseError):
        assert cls.__bases__[0] is errors.MfdistError, cls


@pytest.mark.filterwarnings("ignore::UserWarning")  # pyproject's [tool.setuptools] is beta
def test_the_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == mfdist.__version__


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
