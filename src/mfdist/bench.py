"""Experiment harness: budget sweeps, method comparison, and result export.

Every run is driven by a single strict JSON config carrying the suite, the
method list, the budget grid, replicate/evaluation/oracle sample counts, and
a master seed.  Replicate (method, budget, replicate) cells derive
independent generator streams from the master seed, so a config reproduces
byte-identical CSV output regardless of thread count.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import BudgetExhaustedError, CellError, ConfigError, InsufficientSampleError
from .measures import (
    EmpiricalMeasure,
    moment_summary,
    sample_inverse_transform,
    wasserstein1,
)
from .models import ModelSuite, json_array, json_number, load_json_object, suite_from_config
from .policy import COMMITTED, PolicyState, _affordable, _open_ledger, exploit, run_aetc_d

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "fit_tradeoff_curve",
    "run_ecdf_y",
    "run_experiment",
    "run_fixed_m",
    "run_statistics_comparison",
]

# every method but ``fixed-m:<m>``, with the run_aetc_d variant it runs
_NAMED_METHODS = {"ecdf-y": None, "oracle": None, "aetc-d": "standard",
                  "aetc-d-no": "no-noise", "aetc-d-q": "quantile"}

SUMMARY_COLUMNS = ["method", "budget", "mean", "q05", "q50", "q95", "failures"]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# float64 values a sample that a sampled evaluation holds at once: the
# uniforms, the drawn points, their measure and W1's search-path arrays
# (traced at most 12.2 a sample, against a 1024 times larger oracle)
_EVAL_FLOATS = 13


def _physical_memory() -> int:
    """Bytes of physical memory, or the process's address-space limit
    (``RLIMIT_AS``, as ``ulimit -v`` sets it) if that is finite and smaller."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    return memory if limit == resource.RLIM_INFINITY else min(memory, limit)


def _integer(value) -> int:
    """``int(value)``, refusing booleans and fractional numbers instead of
    truncating them; integral floats such as 20.0 pass."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def fixed_rate(method: str) -> int | None:
    """The exploration rate m of a ``fixed-m:<m>`` method, None for a named
    method; ConfigError for any other string."""
    if method in _NAMED_METHODS:
        return None
    kind, _, rate = method.partition(":")
    if kind != "fixed-m":
        raise ConfigError(f"unknown method {method!r}")
    try:
        return int(rate)
    except ValueError:
        raise ConfigError(f"fixed-m methods look like 'fixed-m:<m>', got {method!r}") from None


# JSON value -> ExperimentConfig field, for every key but "suite"
_CONFIG_FIELDS = {
    "methods": lambda v: tuple(json_array(v)),
    "budgets": lambda v: tuple(map(json_number, json_array(v))),
    "replicates": _integer,
    "eval_samples": _integer,
    "oracle_samples": _integer,
    "seed": _integer,
    "eval": str,
    "fixed_subset": lambda v: tuple(_integer(i) for i in json_array(v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``eval`` selects the error protocol: ``sampled`` draws ``eval_samples``
    inverse-transform points from each estimate and compares their empirical
    measure against the oracle; ``full`` compares the whole estimate.  The
    oracle is always an ``oracle_samples``-point empirical measure of the
    high-fidelity output, built once per experiment.
    """

    suite_spec: dict
    methods: tuple[str, ...]
    budgets: tuple[float, ...]
    replicates: int = 100
    eval_samples: int = 200
    oracle_samples: int = 1_000_000
    seed: int = 0
    eval: str = "sampled"
    fixed_subset: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("at least one method is required")
        for i, method in enumerate(self.methods):
            if not isinstance(method, str):
                raise ConfigError(f"methods must be strings, got {method!r}")
            if method in self.methods[:i]:
                raise ConfigError(f"methods must be distinct, got {method!r} twice")
            m = fixed_rate(method)
            if m is None:
                continue
            if self.fixed_subset is None:
                raise ConfigError("fixed-m methods require 'fixed_subset'")
            least = len(self.fixed_subset) + 2  # run_fixed_m's, checked before any cell runs
            if m < least:
                raise ConfigError(f"fixed exploration rate {m} is below the minimum {least}")
        if not self.budgets or not all(0.0 < b < np.inf for b in self.budgets):
            raise ConfigError(f"budgets must be positive and finite, got {list(self.budgets)}")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        memory = _physical_memory()
        for key, floats in (("eval_samples", _EVAL_FLOATS), ("oracle_samples", 1)):
            count = getattr(self, key)
            if not 1 <= count <= memory // (8 * floats):
                size = "float64" if floats == 1 else f"{floats} float64 values a sample"
                raise ConfigError(f"{key} must be >= 1 and fit in the {memory:.3g} bytes of "
                                  f"physical memory as {size}, got {count}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval not in ("sampled", "full"):
            raise ConfigError(f"eval must be 'sampled' or 'full', got {self.eval!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a JSON object")
        unknown = set(raw) - {"suite", *_CONFIG_FIELDS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("suite", "methods", "budgets"):
            if key not in raw:
                raise ConfigError(f"config is missing required key {key!r}")
        kwargs: dict = {"suite_spec": raw["suite"]}
        for key, value in raw.items():
            if key == "suite":
                continue
            try:
                kwargs[key] = _CONFIG_FIELDS[key](value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"config key {key!r} has an invalid value {value!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(load_json_object(path))

    def build_suite(self) -> ModelSuite:
        """The configured suite; ``fixed_subset`` must be one of its subsets,
        and every draw the largest budget buys must fit an array's length."""
        suite = suite_from_config(self.suite_spec)
        if self.fixed_subset is not None and self.fixed_subset not in suite.subsets():
            raise ConfigError(
                f"fixed_subset must list distinct model indices in 1..{suite.n} in "
                f"increasing order, got {list(self.fixed_subset)}"
            )
        cheapest = min(suite.cost_y, *suite.costs)
        draws = self.budgets[-1] / cheapest  # budgets increase
        if draws >= np.iinfo(np.intp).max + 1:  # floor(draws) > max, exactly
            raise ConfigError(
                f"budget {self.budgets[-1]:g} buys up to {draws:.4g} draws at cost "
                f"{cheapest:g}, more than an array can hold ({np.iinfo(np.intp).max})"
            )
        return suite


@dataclass
class ResultRow:
    """One (method, budget, replicate) outcome; ``error`` tags failures."""

    method: str
    budget: float
    replicate: int
    seed: int
    w1_error: float = np.nan
    subset: tuple[int, ...] | None = None
    m_explore: int | None = None
    spend: float = np.nan
    est_mean: float = np.nan
    est_variance: float = np.nan
    est_skewness: float = np.nan
    est_kurtosis: float = np.nan
    error: str = ""
    trace: list[dict] = field(default_factory=list, repr=False)
    atoms: np.ndarray | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return bool(self.error)

    def run_id(self) -> str:
        return f"{self.method.replace(':', '-')}_B{self.budget:g}_r{self.replicate}"


RESULT_COLUMNS = [f.name for f in fields(ResultRow) if f.repr]


# ---------------------------------------------------------------------------
# Single-method runners
# ---------------------------------------------------------------------------


def run_ecdf_y(suite: ModelSuite, budget: float, rng: np.random.Generator) -> EmpiricalMeasure:
    """Single-fidelity baseline: spend the whole budget on direct draws of Y."""
    n = _affordable(budget, 0.0, suite.cost_y)
    if n < 1:
        raise BudgetExhaustedError(
            f"budget {budget} cannot afford one high-fidelity sample at {suite.cost_y}"
        )
    y, _ = suite.draw(rng, n, (0,))
    y.sort()  # in place: the draw is ours, so from_samples' copy would be waste
    return EmpiricalMeasure(y)


def run_fixed_m(
    suite: ModelSuite,
    budget: float,
    m: int,
    subset: tuple[int, ...],
    rng: np.random.Generator,
) -> tuple[EmpiricalMeasure, PolicyState]:
    """Deterministic variant: fixed exploration rate and a pinned subset.

    The m joint rounds open the ledger as aetc-d's first n+2 do
    (BudgetExhaustedError if B cannot cover them); ``exploit`` spends the
    rest (InfeasibleExploitationError if no draw of the subset fits).
    """
    if m < len(subset) + 2:
        raise ConfigError(
            f"fixed exploration rate {m} is below the minimum {len(subset) + 2}"
        )
    state = _open_ledger(suite, budget, rng, m)
    state.phase, state.chosen = COMMITTED, subset
    return exploit(state, suite, variant="standard", rng=rng), state


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def _replicate_seed(master: int, method_idx: int, budget_idx: int, replicate: int) -> np.random.SeedSequence:
    # entropy tuples make every cell's stream independent and reproducible
    return np.random.SeedSequence(
        entropy=(int(master), int(method_idx), int(budget_idx), int(replicate))
    )


def build_oracle_measure(config: ExperimentConfig, suite: ModelSuite) -> EmpiricalMeasure:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0xFACE)))
    y, _ = suite.draw(rng, config.oracle_samples, (0,))
    y.sort()  # in place: the oracle holds one float a sample
    return EmpiricalMeasure(y)


def _evaluate(
    config: ExperimentConfig,
    estimate: EmpiricalMeasure,
    oracle: EmpiricalMeasure,
    rng: np.random.Generator,
) -> float:
    if config.eval == "full":
        return wasserstein1(estimate, oracle)
    u = 1.0 - rng.random(config.eval_samples)  # uniforms in (0, 1]
    drawn = sample_inverse_transform(estimate, u)
    return wasserstein1(EmpiricalMeasure.from_samples(drawn), oracle)


def _run_cell(
    config: ExperimentConfig,
    suite: ModelSuite,
    oracle: EmpiricalMeasure,
    method_idx: int,
    budget_idx: int,
    replicate: int,
    keep_atoms: bool = False,
) -> ResultRow:
    method = config.methods[method_idx]
    budget = config.budgets[budget_idx]
    seed_seq = _replicate_seed(config.seed, method_idx, budget_idx, replicate)
    seed = int(seed_seq.generate_state(1)[0])
    run_rng, eval_rng = (
        np.random.default_rng(child) for child in seed_seq.spawn(2)
    )
    row = ResultRow(method=method, budget=budget, replicate=replicate, seed=seed)
    m = fixed_rate(method)
    try:
        if m is not None:
            estimate, state = run_fixed_m(suite, budget, m, config.fixed_subset, run_rng)
        elif method == "ecdf-y":
            estimate, state = run_ecdf_y(suite, budget, run_rng), None
        elif method == "oracle":
            estimate, state = oracle, None
        else:
            estimate, state = run_aetc_d(suite, budget, run_rng, variant=_NAMED_METHODS[method])
    except CellError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    row.w1_error = _evaluate(config, estimate, oracle, eval_rng)
    if keep_atoms:
        row.atoms = estimate.atoms
    if state is not None:
        row.spend = state.spent
        row.subset = state.chosen
        row.m_explore = state.t
        row.trace = state.trace
    else:  # ecdf-y spends one cost_y per atom; the oracle spends nothing
        row.spend = estimate.size * suite.cost_y if method == "ecdf-y" else 0.0
    try:
        for stat, value in vars(moment_summary(estimate)).items():
            setattr(row, f"est_{stat}", value)
    except InsufficientSampleError:
        pass  # tiny estimates keep NaN moments; the W1 error is still valid
    return row


def run_experiment(
    config: ExperimentConfig, threads: int = 1, keep_atoms: bool = False
) -> tuple[list[ResultRow], list[dict]]:
    """Run every (method, budget, replicate) cell and summarize.

    Returns the rows (sorted by method, budget, replicate) and the summary
    records.  Failed replicates are tagged, excluded from means, and counted
    in the summary's ``failures`` column.  Estimate atoms are retained on the
    rows only with ``keep_atoms`` (they can be large).
    """
    suite = config.build_suite()
    oracle = build_oracle_measure(config, suite)
    return _run_cells(config, suite, oracle, threads, keep_atoms)


def _run_cells(
    config: ExperimentConfig,
    suite: ModelSuite,
    oracle: EmpiricalMeasure,
    threads: int,
    keep_atoms: bool,
) -> tuple[list[ResultRow], list[dict]]:
    cells = [
        (mi, bi, r)
        for mi in range(len(config.methods))
        for bi in range(len(config.budgets))
        for r in range(config.replicates)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(lambda c: _run_cell(config, suite, oracle, *c, keep_atoms), cells)
            )
    else:
        rows = [_run_cell(config, suite, oracle, *cell, keep_atoms) for cell in cells]
    rows.sort(key=lambda r: (r.method, r.budget, r.replicate))
    return rows, summarize_rows(config, rows)


def nearest_rank_quantile(values: np.ndarray, p: float) -> float:
    """Nearest-rank quantile: the ceil(p*n)-th smallest value."""
    ordered = np.sort(values)
    rank = max(1, int(np.ceil(p * ordered.size)))
    return float(ordered[rank - 1])


def summarize_rows(config: ExperimentConfig, rows: list[ResultRow]) -> list[dict]:
    cells: dict[tuple[str, float], list[ResultRow]] = {}
    for r in rows:
        cells.setdefault((r.method, r.budget), []).append(r)
    summary = []
    for method in config.methods:
        for budget in config.budgets:
            cell = cells.get((method, budget), [])
            good = np.array([r.w1_error for r in cell if not r.failed])
            record = {
                "method": method,
                "budget": budget,
                "failures": sum(r.failed for r in cell),
            }
            if good.size:
                record.update(
                    mean=float(good.mean()),
                    q05=nearest_rank_quantile(good, 0.05),
                    q50=nearest_rank_quantile(good, 0.50),
                    q95=nearest_rank_quantile(good, 0.95),
                )
            else:
                record.update(mean=np.nan, q05=np.nan, q50=np.nan, q95=np.nan)
            summary.append(record)
    return summary


# ---------------------------------------------------------------------------
# Trade-off curve fitting
# ---------------------------------------------------------------------------


def fit_tradeoff_curve(
    points: list[tuple[float, float]], budget: float, c_epr: float
) -> tuple[float, float, float]:
    """Fit mean-error(m) to a1/sqrt(m) + a2/sqrt(B/c_epr - m).

    The model is linear in (a1, a2), so this is a two-column least-squares
    problem.  Negative coefficients are clipped to zero with a warning.
    Returns (a1, a2, residual_norm), the norm taken after any clipping.
    """
    m = np.array([p[0] for p in points], dtype=np.float64)
    err = np.array([p[1] for p in points], dtype=np.float64)
    limit = budget / c_epr
    if np.any(m <= 0) or np.any(m >= limit):
        raise ConfigError(f"exploration rates must lie strictly inside (0, {limit})")
    if len(points) < 3:
        raise InsufficientSampleError(f"need at least 3 points to fit the curve, got {len(points)}")
    if np.all(m == m[0]):
        raise InsufficientSampleError("all exploration rates are equal; the basis is degenerate")
    basis = np.column_stack([1.0 / np.sqrt(m), 1.0 / np.sqrt(limit - m)])
    coef, _, _, _ = np.linalg.lstsq(basis, err, rcond=None)
    if np.any(coef < -1e-9 * max(1.0, float(np.max(np.abs(coef))))):
        warnings.warn(
            f"unconstrained trade-off fit gave negative coefficients {coef}; clipping",
            stacklevel=2,
        )
    coef = np.maximum(coef, 0.0)
    residual = float(np.linalg.norm(err - basis @ coef))
    return float(coef[0]), float(coef[1]), residual


# ---------------------------------------------------------------------------
# Moment-statistics comparison
# ---------------------------------------------------------------------------


def run_statistics_comparison(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Per-(method, budget) MSE of each moment statistic against the oracle.

    Runs the experiment without keeping atoms.  The pseudo-method ``oracle``
    passes the oracle measure through and therefore pins the MSE floor at
    zero.
    """
    suite = config.build_suite()
    oracle = build_oracle_measure(config, suite)
    rows, _ = _run_cells(config, suite, oracle, threads, keep_atoms=False)
    targets = vars(moment_summary(oracle))
    out = []
    for method in config.methods:
        for budget in config.budgets:
            cell = [r for r in rows if r.method == method and r.budget == budget and not r.failed]
            record = {"method": method, "budget": budget}
            for stat, truth in targets.items():
                values = np.array([getattr(r, f"est_{stat}") for r in cell])
                values = values[np.isfinite(values)]
                record[f"mse_{stat}"] = (
                    float(np.mean((values - truth) ** 2)) if values.size else np.nan
                )
            out.append(record)
    return out


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _csv_field(column: str, value) -> str:
    """One results.csv or summary.csv cell: the budget as %g, a non-finite
    float or None as empty, any other float as its repr, a subset joined
    by "+"."""
    if column == "budget":
        return f"{value:g}"
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return "+".join(str(i) for i in value)
    return str(value)


def _csv_text(columns: list[str], records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_csv_field(c, rec[c]) for c in columns])
    return buf.getvalue()


def write_results_csv(rows: list[ResultRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(results_csv_text(rows))


def write_summary_csv(summary: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_text(SUMMARY_COLUMNS, summary))


def write_traces(rows: list[ResultRow], trace_dir: str | Path) -> None:
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    for row in rows:
        if row.trace:
            with open(trace_dir / f"{row.run_id()}.jsonl", "w", encoding="utf-8") as fh:
                for rec in row.trace:
                    fh.write(json.dumps(rec) + "\n")


def write_samples(rows: list[ResultRow], samples_dir: str | Path) -> None:
    samples_dir = Path(samples_dir)
    samples_dir.mkdir(parents=True, exist_ok=True)
    for row in rows:
        if row.atoms is not None:
            np.savetxt(samples_dir / f"{row.run_id()}.csv", row.atoms, fmt="%.17g")


def results_csv_text(rows: list[ResultRow]) -> str:
    return _csv_text(RESULT_COLUMNS, [vars(row) for row in rows])
