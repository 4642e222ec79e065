"""Adaptive explore-then-commit policy for distribution learning.

The policy repeatedly scores every surrogate subset on the exploration data
gathered so far, using a computable loss surrogate that balances regression
error (decaying with the exploration rate m) against empirical-measure error
(decaying with the exploitation rate).  It grows the exploration set on a
doubling/averaging schedule until the estimated optimal exploration rate of
the best subset has been reached, then commits and spends the remaining
budget sampling only that subset through a regression emulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhaustedError,
    InfeasibleExploitationError,
    InsufficientSampleError,
    PolicyError,
)
from .measures import EmpiricalMeasure, _cdf_variation, _j1, j_functionals
from .models import _BLOCK_ROWS, ModelSuite, _indices, _row_blocks
from .regress import FitResult, _ols, ols_fit, quantile_fit

__all__ = [
    "PolicyState",
    "SubsetScore",
    "aetc_d_step",
    "efficiency_ratio",
    "exploit",
    "optimal_exploration",
    "oracle_optimum",
    "pilot_statistics",
    "run_aetc_d",
    "score_subsets",
    "start_exploration",
    "surrogate_loss",
]

EXPLORING = "exploring"
COMMITTED = "committed"
EXHAUSTED = "exhausted"

# grid size for the uniform quantile levels used by the quantile emulator
QUANTILE_GRID_SIZE = 100

# residuals at/below this relative size count as an exactly-interpolating fit,
# for which the loss surrogate is undefined (no error left to balance)
_ZERO_RESIDUAL_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Loss surrogate
# ---------------------------------------------------------------------------


def surrogate_loss(k1: float, k2: float, m: float, budget: float, c_epr: float) -> float:
    """sqrt(k1/m) + sqrt(k2/(B - c_epr*m)): the computable loss upper bound.

    Strictly convex in m on (0, B/c_epr) whenever k1, k2 > 0.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("k1 and k2 must be nonnegative")
    if m <= 0:
        raise ValueError(f"exploration rate must be positive, got {m!r}")
    if m >= budget / c_epr:
        raise ValueError(
            f"exploration rate {m} exceeds the affordable maximum {budget / c_epr}"
        )
    return float(np.sqrt(k1 / m) + np.sqrt(k2 / (budget - c_epr * m)))


def optimal_exploration(k1: float, k2: float, budget: float, c_epr: float) -> float:
    """Unique minimizer of :func:`surrogate_loss` in m; scales linearly in B."""
    if min(k1, k2, budget, c_epr) <= 0:
        raise ValueError("k1, k2, budget, and c_epr must all be positive")
    return budget / (c_epr + (c_epr**2 * k2 / k1) ** (1.0 / 3.0))


def optimal_loss_value(k1: float, k2: float, budget: float, c_epr: float) -> float:
    """Closed form of the surrogate loss at its minimizer."""
    if min(k1, k2, budget, c_epr) <= 0:
        raise ValueError("k1, k2, budget, and c_epr must all be positive")
    return ((c_epr * k1) ** (1.0 / 3.0) + k2 ** (1.0 / 3.0)) ** 1.5 / np.sqrt(budget)


def oracle_optimum(
    k1: dict[tuple[int, ...], float],
    k2: dict[tuple[int, ...], float],
    budget: float,
    c_epr: float,
) -> tuple[tuple[int, ...], float, float]:
    """Best subset under the loss surrogate, given oracle k1/k2 per subset.

    Returns ``(subset, m_star, loss_value)``.  Ties resolve to the smallest
    cardinality, then lexicographic order, matching the adaptive policy.
    """
    if set(k1) != set(k2) or not k1:
        raise ValueError("k1 and k2 must cover the same nonempty subset collection")
    # canonically ordered, and min keeps the first of ties, as in _argmin_rho
    values = {s: optimal_loss_value(k1[s], k2[s], budget, c_epr)
              for s in sorted(k1, key=lambda s: (len(s), s))}
    best = min(values, key=values.get)
    return best, optimal_exploration(k1[best], k2[best], budget, c_epr), values[best]


def efficiency_ratio(
    k1_opt: float,
    k2_opt: float,
    j0_y: float,
    cost_y: float,
    c_epr: float,
) -> float:
    """Diagnostic ratio of the direct-sampling error lower bound to the
    surrogate-policy optimum; values above 1 favor the multifidelity policy.

    Both sides scale as 1/sqrt(B), so the ratio is taken at B = 1.
    """
    if min(k1_opt, k2_opt, j0_y, cost_y, c_epr) <= 0:
        raise ValueError("all arguments must be positive")
    numerator = np.sqrt(cost_y * j0_y**2 / 2.0)
    return float(numerator / optimal_loss_value(k1_opt, k2_opt, 1.0, c_epr))


# ---------------------------------------------------------------------------
# Policy state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetScore:
    """Exploration-time statistics of one candidate subset.

    ``rank_ok`` is False when the design has too few rows to fit or is
    rank-deficient.
    """

    subset: tuple[int, ...]
    rank_ok: bool
    k1_hat: float
    k2_hat: float
    m_star_hat: float
    rho: float
    eligible: bool

    def to_record(self) -> dict:
        # non-finite sentinels (rho = inf, unset NaNs) export as null so the
        # trace stays strict JSON; the eligible flag carries their meaning
        def fin(v: float):
            return float(v) if np.isfinite(v) else None

        return {
            "S": list(self.subset),
            "k1": fin(self.k1_hat),
            "k2": fin(self.k2_hat),
            "m_star": fin(self.m_star_hat),
            "rho": fin(self.rho),
            "eligible": self.eligible,
        }


@dataclass
class PolicyState:
    """Trajectory state of one adaptive run; mutated sequentially by the steps."""

    budget: float
    y_epr: np.ndarray
    x_epr: np.ndarray
    spent: float
    phase: str = EXPLORING
    chosen: tuple[int, ...] | None = None
    trace: list[dict] = field(default_factory=list)

    @property
    def t(self) -> int:
        return int(self.y_epr.size)


def start_exploration(suite: ModelSuite, budget: float, rng: np.random.Generator) -> PolicyState:
    """Draw the mandatory n+2 initial joint samples and open the ledger."""
    return _open_ledger(suite, budget, rng, suite.n + 2)


def _open_ledger(
    suite: ModelSuite, budget: float, rng: np.random.Generator, rounds: int
) -> PolicyState:
    """The first ``rounds`` joint draws; BudgetExhaustedError before any if B cannot cover them."""
    if _affordable(budget, 0.0, suite.c_epr) < rounds:
        raise BudgetExhaustedError(f"budget {budget} cannot cover {rounds} exploration rounds")
    y, x = suite.draw(rng, rounds)
    return PolicyState(budget=budget, y_epr=y, x_epr=x, spent=rounds * suite.c_epr)


def _k1(fit: FitResult, dim: int, root_variation: np.ndarray) -> float:
    """Regression-error constant of a fit with dimension term sqrt(dim)."""
    j1_eps = _j1(np.sort(fit.residuals), root_variation)
    return (2.0 * np.sqrt(dim) * np.sqrt(fit.sigma2_hat) + j1_eps) ** 2


def _design(suite: ModelSuite, x: np.ndarray, subset=None) -> np.ndarray:
    """The design to fit on; PolicyError, a cell error, if finite samples overflow it."""
    with np.errstate(over="ignore", invalid="ignore"):
        Z = suite.feature_map.design(x, subset)
    if not np.isfinite(Z).all() and np.isfinite(x).all():
        raise PolicyError(f"suite {suite.name!r}: finite samples overflow the feature expansion")
    return Z


def score_subsets(state: PolicyState, suite: ModelSuite) -> list[SubsetScore]:
    """Score every nonempty subset on the current exploration data.

    Subsets whose design has too few rows, is rank-deficient, or fits the
    responses exactly (k1 = 0, so there is no exploration error left to
    balance) are marked ineligible and carry rho = inf.
    """
    t, y, budget, c_epr = state.t, state.y_epr, state.budget, suite.c_epr
    if t < suite.n + 2:
        raise PolicyError(f"scoring requires t >= {suite.n + 2}, have t={t}")
    design = _design(suite, state.x_epr)
    # one check serves every subset: each design is a column gather of this one
    if not (np.isfinite(design).all() and np.isfinite(y).all()):
        raise ValueError("design and response must be finite")
    # y and every residual vector have t entries, so they share J1's weights
    root_variation = np.sqrt(_cdf_variation(t))
    j1_y = _j1(np.sort(y), root_variation)
    scale = max(1.0, float(np.abs(y).max()))
    scores = []
    for subset in suite.subsets():
        cols = suite.feature_map.columns(subset)
        rank_ok, k1, k2, m_star, rho = False, np.nan, np.nan, np.nan, np.inf
        if t > len(cols):
            # take copies in C order, as FeatureMap.design(x, subset) returns;
            # the F-ordered design[:, cols] would move the fit's low bits
            fit = _ols(design.take(cols, axis=1), y)
            rank_ok = fit.rank_ok
            if float(np.abs(fit.residuals).max()) <= _ZERO_RESIDUAL_RTOL * scale:
                k1 = 0.0
            else:
                # the online estimate inflates the dimension term by one column
                k1 = _k1(fit, len(cols) + 1, root_variation)
            k2 = suite.c_ept(subset) * j1_y**2
        # a plain bool: k1 > 0.0 is a numpy bool, which the JSON trace rejects
        eligible = bool(rank_ok and k1 > 0.0)
        if eligible:
            m_star = optimal_exploration(k1, k2, budget, c_epr)
            m_eval = max(m_star, float(t))
            if m_eval < budget / c_epr:
                rho = surrogate_loss(k1, k2, m_eval, budget, c_epr)
        scores.append(SubsetScore(subset, rank_ok, k1, k2, m_star, rho, eligible))
    return scores


def _argmin_rho(scores: list[SubsetScore]) -> SubsetScore | None:
    # scores come ordered by (cardinality, lex), and min keeps the first of ties
    return min((s for s in scores if s.eligible), key=lambda s: s.rho, default=None)


def aetc_d_step(state: PolicyState, suite: ModelSuite, rng: np.random.Generator) -> PolicyState:
    """One loop round: score, pick the front-runner, then grow or commit.

    If the front-runner's estimated optimal rate exceeds 2t the exploration
    set doubles; if it lies in (t, 2t] the gap is halved; otherwise the
    policy commits.  Exploration never exceeds M, t plus the most rounds the ledger
    still affords; a round that cannot make integer progress commits with the
    current front-runner.
    """
    if state.phase != EXPLORING:
        raise PolicyError(f"cannot step a policy in phase {state.phase!r}")
    t = state.t
    M = t + _affordable(state.budget, state.spent, suite.c_epr)  # what the ledger affords
    scores = score_subsets(state, suite)
    best = _argmin_rho(scores)
    exact = [s for s in scores if s.rank_ok and s.k1_hat == 0.0]
    if best is not None:
        m_star = best.m_star_hat
    elif exact:
        # a perfect surrogate needs no exploration-error balancing: commit
        # to the cheapest exactly-fitting subset right away
        best = min(exact, key=lambda s: (suite.c_ept(s.subset), len(s.subset), s.subset))
        m_star = 0.0
    else:
        # no subset has enough rows yet (expanded designs at small t): the
        # only sensible action is more exploration, on the doubling schedule
        m_star = np.inf
    new_t, commit = next_round_target(t, m_star, M)
    if best is None and commit:
        raise PolicyError(
            "every subset remains unscorable at the maximum exploration rate"
        )
    state.trace.append(
        {"t": t, "spend": state.spent,
         "scores": [s.to_record() for s in scores],
         "chosen": None if best is None else list(best.subset)}
    )
    if commit:
        state.phase = COMMITTED
        state.chosen = best.subset
    else:
        y_new, x_new = suite.draw(rng, new_t - t)
        state.y_epr = np.concatenate([state.y_epr, y_new])
        state.x_epr = np.vstack([state.x_epr, x_new])
        state.spent += (new_t - t) * suite.c_epr
    return state


def next_round_target(t: int, m_star: float, max_rounds: int) -> tuple[int, bool]:
    """Exploration-schedule arithmetic for one round.

    Doubles while the estimated optimal rate is more than 2t, halves the gap
    while it lies in (t, 2t], and commits otherwise.  The target never
    exceeds ``max_rounds``; a round that cannot make integer progress (the
    gap has closed, or the cap is reached) commits.
    """
    if m_star > 2 * t:
        new_t = min(2 * t, max_rounds)
    elif m_star > t:
        new_t = min(int(np.floor((t + m_star) / 2.0)), max_rounds)
    else:
        return t, True
    if new_t <= t:
        return t, True
    return new_t, False


def _affordable(budget: float, spent: float, cost: float) -> int:
    """The largest n with ``spent + n * cost <= budget`` in floats, as the ledger adds up."""
    n = int(np.floor((budget - spent) / cost))
    # the quotient's two roundings, the test's two and, past 2**53, the count's own put n at
    # most 5 * 2**-53 * budget / cost + 1 off: gallop down until n fits, then up, in O(log) steps
    step = 1
    while n > 0 and spent + n * cost > budget:
        n, step = max(n - step, 0), 2 * step  # floating-point dust must never overdraw
    step = 1
    while step:  # step 1 fails last: n + 1 does not fit
        if spent + (n + step) * cost <= budget:
            n, step = n + step, 2 * step
        else:
            step //= 2
    return n


# ---------------------------------------------------------------------------
# Exploitation
# ---------------------------------------------------------------------------


def exploit(
    state: PolicyState,
    suite: ModelSuite,
    variant: str = "standard",
    *,
    rng: np.random.Generator,
) -> EmpiricalMeasure:
    """Spend the remaining budget sampling the committed subset.

    Draws N fresh samples of the subset's surrogates only (each costing its
    exploitation rate; Y is never evaluated), N the most that fit in what
    exploration left (InfeasibleExploitationError if none does, for aetc-d and
    fixed-m alike), evaluates the regression emulator on them, and returns the
    resulting empirical measure.  Variants: ``standard`` adds a uniformly
    resampled exploration residual to each draw, ``no-noise`` adds nothing,
    ``quantile`` evaluates per-level coefficients at levels drawn uniformly
    from a fixed grid.  Exploration samples are never recycled.
    """
    if state.phase != COMMITTED or state.chosen is None:
        raise PolicyError(f"cannot exploit from phase {state.phase!r}")
    if variant not in ("standard", "no-noise", "quantile"):
        raise ValueError(f"unknown exploitation variant {variant!r}")
    subset = state.chosen
    c_ept = suite.c_ept(subset)
    n_exploit = _affordable(state.budget, state.spent, c_ept)
    if n_exploit < 1:
        raise InfeasibleExploitationError(
            f"exploration spent {state.spent} of {state.budget}; "
            f"no exploitation sample at cost {c_ept} is affordable"
        )
    Z = _design(suite, state.x_epr, subset)
    if variant == "quantile":
        k = QUANTILE_GRID_SIZE
        levels = quantile_fit(Z, state.y_epr, np.arange(1, k + 1) / (k + 1.0))
    else:
        fit = ols_fit(Z, state.y_epr)
    # draw order is part of the determinism contract: surrogate inputs first,
    # then the level or noise indices, in row order; split rng.integers calls
    # draw the one-shot call's values, so each slice draws its own.  The
    # inputs stream in row blocks, each predicted as it arrives, and a
    # sampler's block is cut into _BLOCK_ROWS slices, so the design never
    # holds more rows than one slice; the level indices must follow every
    # input, so the quantile variant keeps the blocks until they are drawn
    blocks = suite.blocks(rng, n_exploit, subset)
    if variant == "quantile":
        blocks = list(blocks)
    values = np.empty(n_exploit)
    start = 0
    for _, x in blocks:
        for lo, hi in _row_blocks(len(x)):
            stop = start + hi - lo
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows once sorted
                Z = suite.feature_map.design(x[lo:hi], subset)
                if variant == "quantile":
                    values[start:stop] = levels.predict(Z, _indices(rng, k, stop - start))
                elif stop - start == 1 < n_exploit:
                    # numpy takes a one-row product as a dot, which rounds otherwise
                    # than the one-shot product; the built-in samplers yield no lone row
                    values[start] = (np.vstack([Z, Z]) @ fit.beta_hat)[0]
                else:
                    np.matmul(Z, fit.beta_hat, out=values[start:stop])
            start = stop
        x = Z = None  # before the sampler makes the next block
    if variant == "standard":
        for lo in range(0, n_exploit, _BLOCK_ROWS):
            block = values[lo:lo + _BLOCK_ROWS]
            block += fit.residuals[_indices(rng, fit.residuals.size, len(block))]
    values.sort()  # in place; NaN sorts last, so the ends show any value that is not finite
    if not np.isfinite(values[[0, -1]]).all():
        raise PolicyError(f"suite {suite.name!r}: an exploitation prediction is not finite")
    state.spent += n_exploit * c_ept
    state.phase = EXHAUSTED
    return EmpiricalMeasure(values)


def run_aetc_d(
    suite: ModelSuite,
    budget: float,
    rng: np.random.Generator,
    variant: str = "standard",
) -> tuple[EmpiricalMeasure, PolicyState]:
    """Full adaptive run: initial samples, loop rounds, commit, exploit."""
    state = start_exploration(suite, budget, rng)
    while state.phase == EXPLORING:
        aetc_d_step(state, suite, rng)
    estimate = exploit(state, suite, variant=variant, rng=rng)
    return estimate, state


# ---------------------------------------------------------------------------
# Oracle statistics from a pilot sample
# ---------------------------------------------------------------------------


def pilot_statistics(
    suite: ModelSuite, n_pilot: int, rng: np.random.Generator
) -> dict:
    """Estimate per-subset oracle k1/k2 (and J-functionals of Y) offline.

    Unlike the online scores, the oracle k1 uses the plain dimension term
    sqrt(cols), i.e. sqrt(s+1) for s regression features.
    """
    y, x = suite.draw(rng, n_pilot)
    j0_y, j1_y = j_functionals(EmpiricalMeasure.from_samples(y))
    if j1_y == 0.0:
        raise InsufficientSampleError(
            f"J1(Y) = 0 on the {n_pilot}-row pilot: Y takes one value, so every k2 is 0"
        )
    k1: dict[tuple[int, ...], float] = {}
    k2: dict[tuple[int, ...], float] = {}
    sigma2: dict[tuple[int, ...], float] = {}
    root_variation = np.sqrt(_cdf_variation(n_pilot))
    for subset in suite.subsets():
        Z = _design(suite, x, subset)
        fit = ols_fit(Z, y)
        k1[subset] = _k1(fit, Z.shape[1], root_variation)
        k2[subset] = suite.c_ept(subset) * j1_y**2
        sigma2[subset] = fit.sigma2_hat
    return {"k1": k1, "k2": k2, "sigma2": sigma2, "j0_y": j0_y, "j1_y": j1_y}
