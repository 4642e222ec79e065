from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfdist import regress
from mfdist.errors import InsufficientSampleError, QuantileSolverError
from mfdist.regress import (
    QuantileFit,
    ols_fit,
    quantile_fit,
)

from oracles import (
    basis_walk_reference,
    ols_normal_equations_mp,
    pinball_lexmin_bruteforce,
    pinball_loss,
    pinball_loss_exact,
    pinball_primal_lp,
    pinball_subgradient_margin,
    with_intercept,
)


class TestOlsFit:
    def test_constant_fit(self):
        Z = with_intercept(np.zeros((3, 0)))
        fit = ols_fit(Z, np.array([3.0, 3.0, 3.0]))
        assert fit.beta_hat == pytest.approx([3.0])
        assert np.max(np.abs(fit.residuals)) <= 1e-12
        assert fit.sigma2_hat <= 1e-20
        assert fit.rank_ok

    def test_exact_interpolation(self):
        rng = np.random.default_rng(0)
        Z = with_intercept(rng.normal(size=(30, 3)))
        y = Z @ np.array([1.0, -2.0, 0.5, 4.0])
        fit = ols_fit(Z, y)
        assert np.max(np.abs(fit.residuals)) <= 1e-10
        assert fit.sigma2_hat <= 1e-20

    def test_matches_extended_precision_normal_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            Z = with_intercept(rng.normal(size=(50, 2)))
            y = rng.normal(size=50)
            fit = ols_fit(Z, y)
            expected = ols_normal_equations_mp(Z, y)
            assert np.linalg.norm(fit.beta_hat - expected) <= 1e-8 * (
                1.0 + np.linalg.norm(expected)
            )

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            Z = with_intercept(rng.normal(size=(40, 4)))
            y = rng.normal(size=40) * 10.0
            fit = ols_fit(Z, y)
            assert np.max(np.abs(Z.T @ fit.residuals)) <= 1e-8 * np.linalg.norm(y)

    def test_sigma2_shift_invariant_with_intercept(self):
        rng = np.random.default_rng(3)
        Z = with_intercept(rng.normal(size=(25, 2)))
        y = rng.normal(size=25)
        assert ols_fit(Z, y + 100.0).sigma2_hat == pytest.approx(
            ols_fit(Z, y).sigma2_hat, rel=1e-9
        )

    def test_rank_deficient_flags_and_min_norm(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=20)
        Z = with_intercept(np.column_stack([col, 2.0 * col]))  # collinear
        y = rng.normal(size=20)
        fit = ols_fit(Z, y)
        assert not fit.rank_ok
        # the minimum-norm solution still reproduces the projection
        full = ols_fit(with_intercept(col), y)
        assert np.allclose(Z @ fit.beta_hat, with_intercept(col) @ full.beta_hat, atol=1e-8)

    def test_dimension_errors(self):
        Z = with_intercept(np.ones((3, 2)))
        with pytest.raises(ValueError):
            ols_fit(Z, np.ones(4))
        with pytest.raises(InsufficientSampleError):
            ols_fit(Z, np.ones(3))  # 3 rows, 3 cols: not strictly more


class TestPinballLoss:
    def test_symmetric_half(self):
        assert pinball_loss(2.0, 0.5) == 1.0
        assert pinball_loss(-2.0, 0.5) == 1.0

    def test_asymmetric_example(self):
        assert pinball_loss(-1.0, 0.9) == pytest.approx(0.1)

    def test_zero_and_convexity(self):
        assert pinball_loss(0.0, 0.3) == 0.0
        xs = np.linspace(-2, 2, 41)
        vals = pinball_loss(xs, 0.7)
        mids = pinball_loss((xs[:-2] + xs[2:]) / 2, 0.7)
        assert np.all(mids <= (vals[:-2] + vals[2:]) / 2 + 1e-12)

    def test_tau_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                pinball_loss(1.0, bad)


def mean_pinball(Z, y, tau, beta):
    return float(np.mean(pinball_loss(y - Z @ beta, tau)))


class TestQuantileFit:
    def test_median_of_constant(self):
        Z = with_intercept(np.zeros((3, 0)))
        qf = quantile_fit(Z, np.array([3.0, 3.0, 3.0]), [0.5])
        assert qf.betas[0, 0] == pytest.approx(3.0, abs=1e-7)

    def test_even_sample_median_takes_lower_middle(self):
        Z = with_intercept(np.zeros((10, 0)))
        y = np.arange(1.0, 11.0)
        qf = quantile_fit(Z, y, [0.5])
        assert qf.betas[0, 0] == pytest.approx(5.0, abs=1e-6)

    def test_tau09_scan_oracle(self):
        Z = with_intercept(np.zeros((10, 0)))
        y = np.arange(1.0, 11.0)
        qf = quantile_fit(Z, y, [0.9])
        scanned = min(y, key=lambda b: mean_pinball(Z, y, 0.9, np.array([b])))
        assert scanned == 9.0
        assert qf.betas[0, 0] == pytest.approx(scanned, abs=1e-6)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(5)
        Z = with_intercept(rng.normal(size=(40, 2)))
        beta = np.array([2.0, -1.0, 0.25])
        qf = quantile_fit(Z, Z @ beta, [0.1, 0.5, 0.9])
        assert np.max(np.abs(qf.betas - beta)) <= 1e-6

    def test_objective_optimality_against_perturbations(self):
        rng = np.random.default_rng(6)
        Z = with_intercept(rng.normal(size=(60, 3)))
        y = rng.normal(size=60)
        qf = quantile_fit(Z, y, [0.3, 0.7])
        for tau, beta in zip(qf.taus, qf.betas):
            v = mean_pinball(Z, y, tau, beta)
            for _ in range(50):
                other = beta + rng.normal(scale=0.05, size=beta.size)
                assert v <= mean_pinball(Z, y, tau, other) + 1e-8 * (1 + abs(v))

    def test_subgradient_contains_zero(self):
        rng = np.random.default_rng(7)
        Z = with_intercept(rng.normal(size=(50, 2)))
        y = rng.normal(size=50)
        qf = quantile_fit(Z, y, [0.2, 0.5, 0.8])
        for tau, beta in zip(qf.taus, qf.betas):
            assert pinball_subgradient_margin(Z, y, tau, beta) >= -1e-6

    def test_monotone_in_tau_intercept_only(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=23)
        Z = with_intercept(np.zeros((23, 0)))
        taus = np.linspace(0.02, 0.98, 49)
        qf = quantile_fit(Z, y, taus)
        levels = qf.betas[:, 0]
        assert np.all(np.diff(levels) >= -1e-9)

    def test_intercept_only_matches_order_statistics(self):
        # non-integral tau*m: the minimizer is the unique ceil(tau*m)-th value
        y = np.array([4.0, 1.0, 3.0, 2.0, 5.0, 9.0, 7.0])
        Z = with_intercept(np.zeros((7, 0)))
        qf = quantile_fit(Z, y, [0.25, 0.6])
        y_sorted = np.sort(y)
        assert qf.betas[0, 0] == pytest.approx(y_sorted[int(np.ceil(0.25 * 7)) - 1], abs=1e-7)
        assert qf.betas[1, 0] == pytest.approx(y_sorted[int(np.ceil(0.6 * 7)) - 1], abs=1e-7)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        Z = with_intercept(rng.normal(size=(30, 2)))
        y = rng.normal(size=30)
        a = quantile_fit(Z, y, [0.4, 0.6])
        b = quantile_fit(Z, y, [0.4, 0.6])
        assert np.array_equal(a.betas, b.betas)

    def test_bad_tau_grid(self):
        Z = with_intercept(np.zeros((5, 0)))
        y = np.arange(5.0)
        with pytest.raises(ValueError):
            quantile_fit(Z, y, [0.5, 0.5])
        with pytest.raises(ValueError):
            quantile_fit(Z, y, [0.0, 0.5])
        with pytest.raises(ValueError):
            quantile_fit(Z, y, [0.6, 0.4])


class TestQuantileFitAgainstPrimalLP:
    """The basis walk against an independent primal LP on each level: its
    objective is no worse than the LP's and the certificate holds, tied
    levels included.
    """

    TAUS = [0.02, 0.1, 0.25, 0.5, 0.5 + 1e-9, 0.77, 0.9, 0.98]

    @staticmethod
    def check(Z, y, taus):
        qf = quantile_fit(Z, y, taus)
        for tau, beta in zip(qf.taus, qf.betas):
            v = mean_pinball(Z, y, tau, beta)
            _, v_lp = pinball_primal_lp(Z, y, tau)
            assert v <= v_lp + 1e-12 * (1.0 + abs(v_lp)), (tau, v, v_lp)
            margin = pinball_subgradient_margin(Z, y, tau, beta)
            assert margin >= -1e-7 * (1.0 + abs(v))
        return qf

    @pytest.mark.parametrize("cols", range(1, 8))
    def test_random_designs(self, cols):
        rng = np.random.default_rng(100 + cols)
        for rows in (cols + 1, 3 * cols, 80):
            Z = with_intercept(rng.normal(size=(rows, cols - 1)))
            y = Z @ rng.normal(size=cols) + rng.standard_t(2, size=rows)
            self.check(Z, y, self.TAUS)

    def test_scaled_and_heteroscedastic(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 2.0, size=(300, 3))
        y = 1e4 * x[:, 0] * (1.0 + rng.uniform(-1.0, 1.0, 300)) + 1e6
        self.check(with_intercept(x), y, np.arange(1, 101) / 101.0)

    @pytest.mark.parametrize("cols", [2, 4])
    def test_duplicate_heavy_bootstraps(self, cols):
        # 400 draws of 40 distinct rows, as table suites produce
        rng = np.random.default_rng(200 + cols)
        Z0 = with_intercept(rng.normal(size=(40, cols - 1)))
        y0 = Z0 @ rng.normal(size=cols) + rng.normal(size=40)
        idx = rng.integers(0, 40, size=400)
        self.check(Z0[idx], y0[idx], self.TAUS)

    def test_discrete_design_with_repeated_responses(self):
        # many rows share a fitted hyperplane exactly: degenerate vertices
        rng = np.random.default_rng(31)
        Z = with_intercept(rng.integers(0, 3, size=(120, 2)).astype(float))
        y = rng.integers(0, 4, size=120).astype(float)
        self.check(Z, y, self.TAUS)

    def test_exact_fits(self):
        rng = np.random.default_rng(41)
        Z = with_intercept(rng.integers(-8, 9, size=(60, 3)).astype(float))
        beta = np.array([0.5, -2.0, 0.25, 1.0])
        y = Z @ beta  # dyadic: every residual is exactly zero at beta
        qf = self.check(Z, y, self.TAUS)
        assert np.allclose(qf.betas, beta, rtol=0.0, atol=1e-12)
        # half the rows on the plane, half off it
        y_half = y.copy()
        y_half[::2] += rng.normal(size=30)
        self.check(Z, y_half, self.TAUS)

    def test_partially_exact_integer_designs(self):
        # two thirds of the rows lie exactly on one hyperplane: many zero
        # residuals off the basis at once, where a walk that counts them
        # one-sidedly cycles or stops short (6 of these 240 designs); the
        # integer designs also have tied levels
        for seed in range(240):
            rng = np.random.default_rng(seed)
            cols = 2 + seed % 4
            Z = with_intercept(rng.integers(-4, 5, size=(60, cols - 1)).astype(float))
            y = Z @ rng.integers(-3, 4, size=cols) * 0.5
            y[::3] += rng.normal(size=20)
            self.check(Z, y, self.TAUS)

    def test_intercept_only_ties(self):
        # repeated values and levels at k/m, where the argmin is an interval
        y = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 1.0, 3.0, 3.0, 4.0, 2.0])
        Z = with_intercept(np.zeros((10, 0)))
        taus = np.arange(1, 20) / 20.0
        qf = self.check(Z, y, taus)
        ordered = np.sort(y)
        # the lower end of the argmin interval: the ceil(tau*m)-th value
        expected = ordered[np.ceil(taus * 10 - 1e-9).astype(int) - 1]
        assert np.array_equal(qf.betas[:, 0], expected)

    def test_rejects_a_vertex_one_pivot_short(self, monkeypatch):
        # where the basis changes between two levels, the earlier level's
        # optimum is a vertex short of the later one's: the checks above
        # must reject it at the later level, every time
        rng = np.random.default_rng(61)
        x = rng.uniform(0.0, 2.0, 120)
        Z, y = with_intercept(x), x * (1.0 + rng.uniform(-1.0, 1.0, 120))
        taus = np.arange(1, 101) / 101.0
        betas = quantile_fit(Z, y, taus).betas
        moved = np.flatnonzero(np.any(betas[1:] != betas[:-1], axis=1)) + 1
        assert moved.size >= 50
        for i in moved:
            stale = QuantileFit(taus=taus[i:i + 1], betas=betas[i - 1:i])
            monkeypatch.setitem(globals(), "quantile_fit", lambda Z, y, taus: stale)
            with pytest.raises(AssertionError):
                self.check(Z, y, stale.taus)


class TestQuantileFitNearCollinear:
    """Two surrogates that are nearly the same model, as multifidelity designs
    often hold: x2 = x1 + 1e-7 noise and a response that weighs their
    difference by 5e6, so cond(Z) ~ 1e7.  A walk whose zero tests round at
    cond(Z) * eps cycled into its pivot cap or failed a certificate on 98 of
    these 150 designs."""

    @pytest.mark.parametrize("first_seed", range(0, 150, 50))
    def test_no_fit_raises_and_losses_match_highs(self, first_seed):
        taus = np.arange(1, 101) / 101.0
        for seed in range(first_seed, first_seed + 50):
            rng = np.random.default_rng(seed)
            x1 = rng.normal(size=80)
            x2 = x1 + 1e-7 * rng.normal(size=80)
            y = x1 + 5e6 * (x2 - x1) + 0.5 * rng.normal(size=80)
            Z = with_intercept(np.column_stack([x1, x2]))
            qf = quantile_fit(Z, y, taus)
            for tau, beta in zip(taus[::10], qf.betas[::10]):
                v = pinball_loss_exact(Z, y, tau, beta)
                v_lp = pinball_loss_exact(Z, y, tau, pinball_primal_lp(Z, y, tau)[0])
                assert v <= v_lp * (1 + Fraction(1, 10**8)), (seed, tau, float(v / v_lp - 1))


class TestLexicographicTies:
    """Every level against exact enumeration of the bases: where the argmin is
    a face, the walk must return its lexicographically smallest point."""

    TAUS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10)]

    @staticmethod
    def check(Z, y, taus):
        qf = quantile_fit(Z, y, [float(t) for t in taus])
        for tau, beta, exact in zip(taus, qf.betas, pinball_lexmin_bruteforce(Z, y, taus)):
            expected = np.array([float(v) for v in exact])
            assert np.allclose(beta, expected, rtol=0.0, atol=1e-9), (tau, beta, expected)
        return qf

    @staticmethod
    def certified(Z, y, tau, beta):
        v = mean_pinball(Z, y, tau, beta)
        return pinball_subgradient_margin(Z, y, tau, beta) >= -1e-7 * (1.0 + abs(v))

    def test_face_end_is_exact(self):
        y = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 1.0, 3.0, 3.0, 4.0, 2.0])
        Z = with_intercept(np.zeros((10, 0)))
        beta = quantile_fit(Z, y, [0.2]).betas[0]
        assert beta[0] == 1.0
        assert mean_pinball(Z, y, 0.2, beta) == pytest.approx(0.32, rel=1e-15)
        assert self.certified(Z, y, 0.2, beta)

    def test_duplicate_intercept_columns(self):
        Z = np.ones((10, 2))
        y = np.arange(1.0, 11.0)
        beta = quantile_fit(Z, y, [0.5]).betas[0]
        assert beta.sum() == 5.0  # the lower middle order statistic
        assert self.certified(Z, y, 0.5, beta)

    def test_tie_along_a_non_coordinate_edge(self):
        # [-1, 1] is optimal too, and the coordinate directions see no tie there
        x = np.array([1.0, -1.0, 1.0, -2.0, 2.0, -2.0, -1.0, 1.0, -2.0])
        y = np.array([0.0, -2.0, 3.0, -1.0, 2.0, -1.0, 2.0, -3.0, -3.0])
        Z = with_intercept(x)
        beta = self.check(Z, y, [Fraction(1, 5)]).betas[0]
        assert np.array_equal(beta, [-3.0, 0.0])
        other = np.array([-1.0, 1.0])
        assert mean_pinball(Z, y, 0.2, beta) == pytest.approx(
            mean_pinball(Z, y, 0.2, other), rel=1e-15
        )
        assert self.certified(Z, y, 0.2, beta)

    def test_degenerate_vertex_does_not_cycle(self):
        # crossing times equal up to rounding at a vertex where six residuals
        # vanish; ordered by rounding alone, the walk cycled between two bases
        cols = np.array([(-2, 2), (-1, 2), (1, -1), (-2, -2), (-2, -1),
                         (-1, -2), (1, -1), (1, -2), (-2, 2), (-1, 2)], dtype=float)
        y = np.array([3.0, -1.0, -3.0, 3.0, 1.0, 1.0, -1.0, -3.0, 3.0, -1.0])
        self.check(with_intercept(cols), y, self.TAUS[:5])

    @pytest.mark.parametrize("first_seed", range(0, 1200, 300))
    def test_small_integer_designs(self, first_seed):
        # 7,200 levels of which 920 are tied
        for seed in range(first_seed, first_seed + 300):
            rng = np.random.default_rng(seed)
            cols, rows = 1 + seed % 4, 7 + seed % 5
            Z = with_intercept(rng.integers(-2, 3, (rows, cols - 1)))
            y = rng.integers(-3, 4, rows).astype(float)
            self.check(Z, y, self.TAUS)


class TestQuantileFitRankDeficient:
    @pytest.mark.parametrize("extra", ["copy", "affine"])
    def test_dependent_column(self, extra):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(70, 2))
        y = x @ np.array([1.0, -0.5]) + rng.standard_t(3, size=70)
        full = with_intercept(x)
        dependent = x[:, :1] if extra == "copy" else 2.0 * x[:, :1] - 1.0
        Z = np.hstack([full, dependent])
        taus = [0.1, 0.5, 0.9]
        qf = quantile_fit(Z, y, taus)
        reference = quantile_fit(full, y, taus)
        for tau, beta, ref in zip(qf.taus, qf.betas, reference.betas):
            v = mean_pinball(Z, y, tau, beta)
            assert v == pytest.approx(mean_pinball(full, y, tau, ref), rel=1e-12, abs=1e-15)
            assert pinball_subgradient_margin(Z, y, tau, beta) >= -1e-7 * (1.0 + abs(v))


def _fit_outcome(Z, y, taus):
    """The betas' bit patterns, or the error's type and message."""
    try:
        return quantile_fit(Z, y, taus).betas.view(np.uint64).tolist()
    except QuantileSolverError as exc:
        return type(exc), str(exc)


class TestBasisWalkAgainstFullOrder:
    """The walk's ratio test orders only the crossings up to its step.  They
    are a prefix of the full order by perturbed crossing time, so every
    level must come out as the full-order walk's, bit for bit."""

    @staticmethod
    def design(kind, p, t, seed):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            x = rng.normal(size=(t, p - 1))
            y = x.sum(axis=1) + rng.standard_t(3, size=t)
        elif kind == "integer-ties":
            x = rng.integers(0, 4, (t, p - 1)).astype(float)
            y = rng.integers(-2, 3, t).astype(float)
        else:  # near-collinear: each column a 1e-7 perturbation of one draw
            base = rng.normal(size=t)
            x = base[:, None] + 1e-7 * rng.normal(size=(t, p - 1))
            y = base + 5e6 * (x.sum(axis=1) - (p - 1) * base) + 0.5 * rng.normal(size=t)
        return with_intercept(x), y

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(kind=st.sampled_from(["continuous", "integer-ties", "near-collinear"]),
           p=st.integers(1, 5), t=st.integers(8, 400), seed=st.integers(0, 2**32 - 1),
           denominator=st.sampled_from([101.0, 102.0]))
    @example(kind="continuous", p=1, t=10, seed=0, denominator=102.0)  # even-sample median
    @example(kind="integer-ties", p=3, t=400, seed=1, denominator=102.0)  # walks two flat edges
    def test_betas_bit_for_bit(self, kind, p, t, seed, denominator):
        # 51 / 102 is the median, whose argmin on an even sample is a face
        Z, y = self.design(kind, p, t, seed)
        taus = np.arange(1, 101) / denominator
        walked = _fit_outcome(Z, y, taus)
        with mock.patch.object(regress, "_basis_walk", basis_walk_reference):
            assert walked == _fit_outcome(Z, y, taus)

    def test_same_error_at_the_pivot_cap(self):
        # levels that swing between the tails walk about 16 pivots each,
        # past the cap of 10 a row and a level
        rng = np.random.default_rng(2)
        Z, y = with_intercept(rng.normal(size=(60, 4))), rng.normal(size=60)
        taus = np.tile([0.001, 0.999], 50)
        message = "pinball basis walk exceeded 1600 pivots at tau=0.999"
        for walk in (regress._basis_walk, basis_walk_reference):
            with pytest.raises(QuantileSolverError, match=message):
                walk(Z, y, taus)
