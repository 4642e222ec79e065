from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mfdist.errors import BudgetExhaustedError, InfeasibleExploitationError, PolicyError
from mfdist.measures import EmpiricalMeasure, j_functionals, moment_summary, wasserstein1
from mfdist.models import (
    _BLOCK_ROWS,
    FeatureMap,
    ModelSuite,
    SampleTable,
    expanded_suite,
    ishigami_suite,
    table_suite,
)
from mfdist.policy import (
    COMMITTED,
    QUANTILE_GRID_SIZE,
    EXPLORING,
    PolicyState,
    SubsetScore,
    _affordable,
    aetc_d_step,
    efficiency_ratio,
    exploit,
    optimal_exploration,
    optimal_loss_value,
    oracle_optimum,
    pilot_statistics,
    run_aetc_d,
    score_subsets,
    start_exploration,
    surrogate_loss,
)
from mfdist.regress import ols_fit, quantile_fit

from oracles import golden_section_min, traced_peak, with_intercept


def linear_gaussian_suite(noise=0.3, costs=(0.05, 0.01), cost_y=1.0) -> ModelSuite:
    """Cheap synthetic truth Y = 1 + 2*X1 - X2 + noise for fast policy runs."""

    def sample(rng, size, models):
        x = rng.normal(size=(size, 2))
        y = 1.0 + 2.0 * x[:, 0] - x[:, 1] + noise * rng.normal(size=size)
        yield y, x

    return ModelSuite(name="lin", cost_y=cost_y, costs=costs, sampler=sample)


class TestSurrogateLoss:
    def test_direct_substitution(self):
        assert surrogate_loss(1.0, 1.0, 2.0, 4.0, 1.0) == pytest.approx(np.sqrt(2.0))

    def test_pure_exploitation_term(self):
        assert surrogate_loss(0.0, 9.0, 5.0, 14.0, 1.0) == pytest.approx(1.0)

    def test_matches_closed_form_at_minimizer(self):
        k1, k2, budget, c_epr = 4.0, 1.0, 100.0, 1.0
        m_star = optimal_exploration(k1, k2, budget, c_epr)
        assert surrogate_loss(k1, k2, m_star, budget, c_epr) == pytest.approx(
            optimal_loss_value(k1, k2, budget, c_epr), abs=1e-10
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            surrogate_loss(1.0, 1.0, 4.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            surrogate_loss(1.0, 1.0, 0.0, 4.0, 1.0)


class TestOptimalExploration:
    def test_symmetric_half_budget(self):
        assert optimal_exploration(3.0, 3.0, 80.0, 1.0) == pytest.approx(40.0)

    def test_small_when_exploitation_dominates(self):
        assert optimal_exploration(1.0, 1e12, 100.0, 1.0) < 0.02

    def test_linear_budget_scaling(self):
        m1 = optimal_exploration(4.0, 1.0, 100.0, 1.0)
        m2 = optimal_exploration(4.0, 1.0, 1000.0, 1.0)
        assert m2 == pytest.approx(10.0 * m1, rel=1e-12)

    def test_named_example_and_golden_section(self):
        m_star = optimal_exploration(4.0, 1.0, 100.0, 1.0)
        assert m_star == pytest.approx(100.0 / (1.0 + 0.25 ** (1.0 / 3.0)), abs=1e-9)
        found = golden_section_min(
            lambda m: surrogate_loss(4.0, 1.0, m, 100.0, 1.0), 1e-9, 100.0 - 1e-9
        )
        assert m_star == pytest.approx(found, abs=1e-6)

    def test_is_strict_minimizer(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k1, k2, c_epr = rng.uniform(0.01, 10.0, size=3)
            budget = rng.uniform(10.0, 1e4)
            m_star = optimal_exploration(k1, k2, budget, c_epr)
            val = surrogate_loss(k1, k2, m_star, budget, c_epr)
            delta = 1e-3 * m_star
            assert surrogate_loss(k1, k2, m_star + delta, budget, c_epr) > val
            assert surrogate_loss(k1, k2, m_star - delta, budget, c_epr) > val


class TestOracleOptimum:
    def test_single_subset(self):
        s, m_star, val = oracle_optimum({(1,): 2.0}, {(1,): 3.0}, 50.0, 1.0)
        assert s == (1,)
        assert m_star == pytest.approx(optimal_exploration(2.0, 3.0, 50.0, 1.0))
        assert val == pytest.approx(optimal_loss_value(2.0, 3.0, 50.0, 1.0))

    def test_equal_k1_prefers_smaller_k2(self):
        k1 = {(1,): 2.0, (2,): 2.0, (1, 2): 2.0}
        k2 = {(1,): 5.0, (2,): 1.0, (1, 2): 6.0}
        assert oracle_optimum(k1, k2, 100.0, 1.0)[0] == (2,)

    def test_tie_breaks_to_smaller_subset(self):
        k1 = {(1,): 2.0, (1, 2): 2.0}
        k2 = {(1,): 1.0, (1, 2): 1.0}
        assert oracle_optimum(k1, k2, 100.0, 1.0)[0] == (1,)


class TestEfficiencyRatio:
    def test_equal_numerator_gives_one(self):
        k1, k2, c_epr, budget = 2.0, 3.0, 1.5, 10.0
        g = optimal_loss_value(k1, k2, budget, c_epr)
        # choose j0 so the numerator equals the denominator
        j0 = g * np.sqrt(2.0 * budget / 1.0)
        assert efficiency_ratio(k1, k2, j0, 1.0, c_epr) == pytest.approx(1.0)

    def test_cost_scaling(self):
        base = efficiency_ratio(2.0, 3.0, 1.0, 1.0, 1.5)
        assert efficiency_ratio(2.0, 3.0, 1.0, 2.0, 1.5) == pytest.approx(
            np.sqrt(2.0) * base
        )


class TestScoreSubsets:
    def test_all_subsets_scored_in_canonical_order(self):
        suite = linear_gaussian_suite()
        state = start_exploration(suite, 100.0, np.random.default_rng(1))
        scores = score_subsets(state, suite)
        assert [s.subset for s in scores] == [(1,), (2,), (1, 2)]

    def test_zero_residual_marked_ineligible(self):
        suite = ishigami_suite("perfect", c=0.0, d=0.0)  # Y == X1 exactly
        state = start_exploration(suite, 100.0, np.random.default_rng(2))
        scores = {s.subset: s for s in score_subsets(state, suite)}
        assert scores[(1,)].k1_hat == 0.0
        assert not scores[(1,)].eligible
        assert np.isinf(scores[(1,)].rho)

    def test_one_design_per_round(self, monkeypatch):
        # every subset's design is a column gather of one full design
        calls = []
        design = FeatureMap.design

        def counting(self, x, subset=None):
            calls.append(subset)
            return design(self, x, subset)

        def sample(rng, size, models):
            x = rng.normal(size=(size, 3))
            yield x.sum(axis=1) + rng.normal(size=size), x

        three = ModelSuite(name="three", cost_y=1.0, costs=(0.1,) * 3, sampler=sample)
        monkeypatch.setattr(FeatureMap, "design", counting)
        for suite in (linear_gaussian_suite(), expanded_suite(three, "L")):
            state = start_exploration(suite, 100.0, np.random.default_rng(3))
            calls.clear()
            assert len(score_subsets(state, suite)) == 2**suite.n - 1
            assert calls == [None]

    def test_monotone_in_k1_at_equal_k2(self):
        budget, c_epr = 1000.0, 1.0
        t = 50
        for k1a, k1b, k2 in ((0.5, 2.0, 1.0), (0.1, 0.2, 5.0)):
            ma = max(optimal_exploration(k1a, k2, budget, c_epr), t)
            mb = max(optimal_exploration(k1b, k2, budget, c_epr), t)
            assert surrogate_loss(k1a, k2, ma, budget, c_epr) < surrogate_loss(
                k1b, k2, mb, budget, c_epr
            )

    def test_chooses_first_surrogate_on_perfect_suite(self):
        # at t=200, B=1e3 the cheap, nearly-noiseless surrogate must win the
        # score comparison in at least 95 of 100 seeded replicates
        from mfdist.policy import PolicyState

        suite = ishigami_suite("perfect")
        wins = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            y, x = suite.draw(rng, 200)
            state = PolicyState(budget=1000.0, y_epr=y, x_epr=x, spent=200 * suite.c_epr)
            scores = [s for s in score_subsets(state, suite) if s.eligible]
            best = min(scores, key=lambda s: s.rho)
            wins += best.subset == (1,)
        assert wins >= 95


def reference_scores(state: PolicyState, suite: ModelSuite) -> list[SubsetScore]:
    """score_subsets one subset at a time from the public functions: its own
    design, ``ols_fit`` and a measure built from each residual vector."""
    y, t, budget, c_epr = state.y_epr, state.t, state.budget, suite.c_epr
    _, j1_y = j_functionals(EmpiricalMeasure.from_samples(y))
    scores = []
    for subset in suite.subsets():
        Z = suite.feature_map.design(state.x_epr, subset)
        rank_ok, k1, k2, m_star, rho = False, np.nan, np.nan, np.nan, np.inf
        if t > Z.shape[1]:
            fit = ols_fit(Z, y)
            rank_ok = fit.rank_ok
            if np.max(np.abs(fit.residuals)) <= 1e-10 * max(1.0, float(np.max(np.abs(y)))):
                k1 = 0.0
            else:
                _, j1_eps = j_functionals(EmpiricalMeasure.from_samples(fit.residuals))
                k1 = (2.0 * np.sqrt(Z.shape[1] + 1) * np.sqrt(fit.sigma2_hat) + j1_eps) ** 2
            k2 = suite.c_ept(subset) * j1_y**2
        eligible = bool(rank_ok and k1 > 0.0)
        if eligible:
            m_star = optimal_exploration(k1, k2, budget, c_epr)
            if max(m_star, float(t)) < budget / c_epr:
                rho = surrogate_loss(k1, k2, max(m_star, float(t)), budget, c_epr)
        scores.append(SubsetScore(subset, rank_ok, k1, k2, m_star, rho, eligible))
    return scores


def _hetero_table_suite() -> ModelSuite:
    # Y = X1 (1 + eta) on 500 rows: bootstrap draws repeat rows, so the
    # responses and residuals hold ties
    rng = np.random.default_rng(17)
    x1 = rng.uniform(0.0, 2.0, 500)
    table = SampleTable(y=x1 * (1.0 + rng.uniform(-1.0, 1.0, 500)), x=x1[:, None],
                        cost_y=1.0, costs=(0.02,))
    return table_suite(table)


class TestScoresAgainstReference:
    """Each round's one pass (one full design, one finiteness check, one J1
    weight vector for y and every residual vector) gives every field of every
    score bit for bit as the per-subset public functions do."""

    SUITES = {
        "ishigami-perfect": lambda: ishigami_suite("perfect"),
        "ishigami-perfect-c0-d0": lambda: ishigami_suite("perfect", c=0.0, d=0.0),
        "ishigami-approx-L": lambda: expanded_suite(ishigami_suite("approx"), "L"),
        "ishigami-approx-quadratic-interactions": lambda: expanded_suite(
            ishigami_suite("approx"), "quadratic-interactions"),
        "table": _hetero_table_suite,
    }

    @pytest.mark.parametrize("rows", ["n+2", 37, 300])
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_bit_for_bit(self, name, rows):
        suite = self.SUITES[name]()
        t = suite.n + 2 if rows == "n+2" else rows
        for seed in range(3):
            y, x = suite.draw(np.random.default_rng(seed), t)
            state = PolicyState(budget=1e4, y_epr=y, x_epr=x, spent=t * suite.c_epr)
            got, want = score_subsets(state, suite), reference_scores(state, suite)
            assert len(got) == len(want) == 2**suite.n - 1
            for g, w in zip(got, want):
                assert type(g.rank_ok) is bool and type(g.eligible) is bool
                assert (g.subset, g.rank_ok, g.eligible) == (w.subset, w.rank_ok, w.eligible)
                # k1, k2, m_star and rho, NaN and inf included
                floats = np.array(astuple(g)[2:6]), np.array(astuple(w)[2:6])
                assert floats[0].tobytes() == floats[1].tobytes(), (g, w)

    def test_non_finite_design_rejected_once_per_round(self):
        suite = ishigami_suite("perfect")
        y, x = suite.draw(np.random.default_rng(0), 10)
        x[3, 1] = np.inf
        state = PolicyState(budget=1e4, y_epr=y, x_epr=x, spent=10 * suite.c_epr)
        with pytest.raises(ValueError, match="design and response must be finite"):
            score_subsets(state, suite)


class TestScheduleArithmetic:
    def test_far_target_doubles(self):
        from mfdist.policy import next_round_target

        assert next_round_target(10, 50.0, 1000) == (20, False)

    def test_near_target_halves_the_gap(self):
        from mfdist.policy import next_round_target

        # target 1.5t: new t = floor((t + 1.5t)/2) = floor(1.25t)
        assert next_round_target(10, 15.0, 1000) == (12, False)
        assert next_round_target(100, 150.0, 1000) == (125, False)

    def test_reached_target_commits(self):
        from mfdist.policy import next_round_target

        assert next_round_target(10, 10.0, 1000) == (10, True)
        assert next_round_target(10, 3.0, 1000) == (10, True)

    def test_zero_progress_commits(self):
        from mfdist.policy import next_round_target

        # the halving branch cannot advance an integer step: commit
        assert next_round_target(10, 10.9, 1000) == (10, True)

    def test_cap_truncates_then_commits(self):
        from mfdist.policy import next_round_target

        assert next_round_target(10, 50.0, 15) == (15, False)
        assert next_round_target(15, 50.0, 15) == (15, True)


@st.composite
def _ledgers(draw, max_count):
    """(budget, spent, cost): a spent share (none, whole rounds or any float),
    then the budget spent + fl(k * cost) for a count k <= max_count, exact or
    moved a few ulps either way; budget / cost stays below 2**63."""
    cost = draw(st.floats(2.0**-30, 2.0**10))
    spent = draw(st.one_of(
        st.just(0.0),
        st.builds(lambda j: j * cost, st.integers(0, 2**60)),
        st.builds(lambda f: f * cost, st.floats(0.0, 2.0**60)),
    ))
    budget = spent + draw(st.integers(0, max_count)) * cost
    toward = draw(st.sampled_from([0.0, np.inf]))
    for _ in range(draw(st.integers(0, 3))):
        budget = float(np.nextafter(budget, toward))
    assume(budget >= spent)
    return budget, spent, cost


class TestAffordable:
    """_affordable(budget, spent, cost) is the largest n with
    spent + n * cost <= budget in floats, the sum the ledger adds."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(ledger=_ledgers(2**52 - 1))
    # fixed-m:4 on ishigami-perfect, subset (2,), at B = 20: 15796 draws fit,
    # and the floor of the quotient, 15795.999999999998, buys one fewer
    @example(ledger=(20.0, 4 * ishigami_suite("perfect").c_epr, 0.001))
    @example(ledger=(7.5, 7.0, 0.5))
    def test_largest_count_that_fits(self, ledger):
        budget, spent, cost = ledger
        n = _affordable(budget, spent, cost)
        assert n >= 0
        assert spent + n * cost <= budget < spent + (n + 1) * cost

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(ledger=_ledgers(int(np.iinfo(np.intp).max)))
    def test_counts_up_to_intp_max(self, ledger):
        # never an overdraw, and n lies within the quotient's proven rounding
        # error, so the two gallops return after O(log) steps
        budget, spent, cost = ledger
        n = _affordable(budget, spent, cost)
        assert 0 <= n and spent + n * cost <= budget < spent + (n + 1) * cost
        quotient = int(np.floor((budget - spent) / cost))
        assert abs(n - quotient) <= 5 * 2.0**-53 * budget / cost + 1


class TestAetcdStep:
    def test_initial_sample_count(self):
        suite = linear_gaussian_suite()
        state = start_exploration(suite, 500.0, np.random.default_rng(3))
        assert state.t == suite.n + 2
        assert state.spent == pytest.approx(state.t * suite.c_epr)

    def test_budget_too_small_for_exploration(self):
        suite = linear_gaussian_suite()
        with pytest.raises(BudgetExhaustedError):
            start_exploration(suite, 3.0, np.random.default_rng(4))

    def test_doubling_caps_and_commit(self):
        suite = linear_gaussian_suite()
        rng = np.random.default_rng(5)
        state = start_exploration(suite, 2000.0, rng)
        prev_t = state.t
        while state.phase == EXPLORING:
            aetc_d_step(state, suite, rng)
            assert state.t <= 2 * prev_t  # never more than doubling
            assert state.t >= prev_t
            prev_t = state.t
        assert state.phase == COMMITTED
        assert state.chosen is not None

    def test_trace_schema(self):
        suite = linear_gaussian_suite()
        rng = np.random.default_rng(6)
        _, state = run_aetc_d(suite, 500.0, rng)
        assert state.trace, "trace must not be empty"
        for rec in state.trace:
            assert set(rec) == {"t", "spend", "scores", "chosen"}
            for s in rec["scores"]:
                assert set(s) == {"S", "k1", "k2", "m_star", "rho", "eligible"}

    def test_zero_residual_commits_to_cheapest(self):
        # with c=d=0 the truth coincides with both surrogates, so every subset
        # fits exactly; the degenerate path must commit to the cheapest one
        suite = ishigami_suite("perfect", c=0.0, d=0.0)
        rng = np.random.default_rng(7)
        state = start_exploration(suite, 200.0, rng)
        aetc_d_step(state, suite, rng)
        assert state.phase == COMMITTED
        assert state.chosen == (2,)

    def test_exact_fit_falls_back_to_next_best_eligible(self):
        # Y == X1 while X2 is noise: the exactly-fitting subsets carry k1 = 0
        # and are ineligible, so the policy falls back to the best subset that
        # still has exploration error to balance
        def sample(rng, size, models):
            x = rng.normal(size=(size, 2))
            yield x[:, 0].copy(), x

        suite = ModelSuite(name="exact1", cost_y=1.0, costs=(0.05, 0.001), sampler=sample)
        rng = np.random.default_rng(77)
        state = start_exploration(suite, 200.0, rng)
        scores = {s.subset: s for s in score_subsets(state, suite)}
        assert not scores[(1,)].eligible and scores[(1,)].k1_hat == 0.0
        assert not scores[(1, 2)].eligible
        assert scores[(2,)].eligible
        while state.phase == EXPLORING:
            aetc_d_step(state, suite, rng)
        assert state.chosen == (2,)

    def test_exploration_stays_inside_the_ledger(self):
        # a constant surrogate leaves every design rank-deficient, so no subset
        # is ever scorable and exploration doubles to its cap.  A cap of the 45
        # rounds that fl(45 * 1.02) <= 45.9 allows, taken as 3, 6, 12, 24, 45,
        # adds up to 45.900000000000006; the cap the ledger still affords takes
        # 24, 44, 45 and ends at 45.9
        def sample(rng, size, models):
            yield rng.normal(size=size), np.ones((size, 1))

        suite = ModelSuite(name="flat", cost_y=1.0, costs=(0.02,), sampler=sample)
        rng = np.random.default_rng(9)
        state = start_exploration(suite, 45.9, rng)
        with pytest.raises(PolicyError, match="unscorable at the maximum exploration rate"):
            while True:
                aetc_d_step(state, suite, rng)
                assert state.spent <= state.budget
        assert state.t == 45 and state.spent == 45.9

    def test_cannot_step_after_commit(self):
        suite = linear_gaussian_suite()
        rng = np.random.default_rng(8)
        _, state = run_aetc_d(suite, 300.0, rng)
        with pytest.raises(PolicyError):
            aetc_d_step(state, suite, rng)


class TestExploit:
    def test_no_noise_with_identity_coefficients(self):
        # truth Y = X1 exactly: committed no-noise emulator reproduces the
        # empirical measure of the drawn surrogate values
        suite = ishigami_suite("perfect", c=0.0, d=0.0)
        rng = np.random.default_rng(9)
        estimate, state = run_aetc_d(suite, 50.0, rng, variant="no-noise")
        rng_replay = np.random.default_rng(9)
        suite.draw(rng_replay, state.t)  # exploration draws
        _, x = suite.draw(rng_replay, estimate.size)
        assert wasserstein1(estimate, EmpiricalMeasure.from_samples(x[:, 0])) <= 1e-9

    def test_standard_with_zero_residuals_equals_no_noise(self):
        suite = ishigami_suite("perfect", c=0.0, d=0.0)
        est_std, _ = run_aetc_d(suite, 50.0, np.random.default_rng(10), variant="standard")
        est_non, _ = run_aetc_d(suite, 50.0, np.random.default_rng(10), variant="no-noise")
        # same seed, same draws; zero residual pool makes the noise vanish
        assert np.allclose(est_std.atoms, est_non.atoms, atol=1e-12)

    def test_standard_exploit_replays_exactly(self):
        # exact replay of the documented draw order: surrogate inputs first,
        # then bootstrap noise indices into the residual pool
        from mfdist.policy import PolicyState
        from mfdist.regress import ols_fit

        suite = linear_gaussian_suite()
        prep_rng = np.random.default_rng(20)
        y_epr, x_epr = suite.draw(prep_rng, 25)
        budget = 25 * suite.c_epr + 10.0
        state = PolicyState(
            budget=budget, y_epr=y_epr, x_epr=x_epr, spent=25 * suite.c_epr,
            phase=COMMITTED, chosen=(1,),
        )
        estimate = exploit(state, suite, variant="standard", rng=np.random.default_rng(21))
        fit = ols_fit(with_intercept(x_epr[:, 0]), y_epr)
        replay = np.random.default_rng(21)
        n = estimate.size
        _, x = suite.draw(replay, n)
        lin = with_intercept(x[:, 0]) @ fit.beta_hat
        noise = fit.residuals[replay.integers(0, fit.residuals.size, size=n)]
        assert np.array_equal(estimate.atoms, np.sort(lin + noise))

    def test_quantile_variant_fits_no_least_squares_emulator(self, monkeypatch):
        import mfdist.policy
        from mfdist.policy import PolicyState

        def no_ols(*args):
            raise AssertionError("the quantile emulator needs no least-squares fit")

        monkeypatch.setattr(mfdist.policy, "ols_fit", no_ols)
        suite = linear_gaussian_suite()
        y_epr, x_epr = suite.draw(np.random.default_rng(22), 25)
        state = PolicyState(
            budget=25 * suite.c_epr + 5.0, y_epr=y_epr, x_epr=x_epr,
            spent=25 * suite.c_epr, phase=COMMITTED, chosen=(1,),
        )
        estimate = exploit(state, suite, variant="quantile", rng=np.random.default_rng(23))
        assert estimate.size == int(5.0 / suite.c_ept((1,)))

    def test_bootstrap_uniformity_chi_square(self):
        # exploit's noise indices must be uniform over the residual pool: with
        # every input at 0 each prediction is the intercept, so each estimate
        # atom names its residual; chi-square goodness of fit at the 1% level
        # with N=1e5 draws over m=100 residuals
        def zeros(rng, size, models):
            yield None, np.zeros((size, 1))

        suite = ModelSuite(name="zero", cost_y=1.0, costs=(0.01,), sampler=zeros)
        rng = np.random.default_rng(12)
        state = PolicyState(
            budget=100.0 + (100_000 + 0.5) * 0.01, y_epr=rng.normal(size=100),
            x_epr=rng.normal(size=(100, 1)), spent=100.0, phase=COMMITTED, chosen=(1,),
        )
        estimate = exploit(state, suite, "standard", rng=rng)
        _, counts = np.unique(estimate.atoms, return_counts=True)
        assert estimate.size == 100_000 and counts.size == 100
        assert stats.chisquare(counts).pvalue >= 0.01

    def test_overflowing_prediction_fails_the_cell(self):
        # the exploration rows fit, but every exploitation row's cube
        # overflows: a cell error, not a ValueError from the measure
        def sample(rng, size, models):
            yield None, np.full((size, 1), 1e110)

        base = ModelSuite(name="big", cost_y=1.0, costs=(0.01,), sampler=sample)
        suite = expanded_suite(base, "L")
        rng = np.random.default_rng(15)
        x_epr = rng.normal(size=(40, 1))
        state = PolicyState(
            budget=50.0, y_epr=x_epr[:, 0] + rng.normal(size=40), x_epr=x_epr, spent=40.0,
            phase=COMMITTED, chosen=(1,),
        )
        with pytest.raises(PolicyError, match="an exploitation prediction is not finite"):
            exploit(state, suite, "standard", rng=rng)

    def test_infeasible_exploitation(self):
        # expensive exploitation: after exploration nothing is affordable
        suite = linear_gaussian_suite(costs=(40.0, 30.0), cost_y=1.0)
        rng = np.random.default_rng(13)
        state = start_exploration(suite, 300.0, rng)
        while state.phase == EXPLORING:
            aetc_d_step(state, suite, rng)
        with pytest.raises(InfeasibleExploitationError):
            exploit(state, suite, variant="standard", rng=rng)

    def test_spend_accounting_exact(self):
        suite = linear_gaussian_suite()
        for seed in range(5):
            est, state = run_aetc_d(suite, 700.0, np.random.default_rng(seed))
            expected = state.t * suite.c_epr + est.size * suite.c_ept(state.chosen)
            assert state.spent == pytest.approx(expected, abs=1e-9)
            assert state.spent <= 700.0

    def test_quantile_variant_runs(self):
        suite = linear_gaussian_suite()
        est, state = run_aetc_d(suite, 200.0, np.random.default_rng(14), variant="quantile")
        assert est.size >= 1
        assert state.phase == "exhausted"


def committed_state(suite: ModelSuite, subset: tuple[int, ...], n_exploit: int, seed: int) -> PolicyState:
    """40 exploration rows and a budget that leaves exactly ``n_exploit``
    exploitation rows of ``subset``."""
    y_epr, x_epr = suite.draw(np.random.default_rng(seed), 40)
    spent = 40 * suite.c_epr
    return PolicyState(
        budget=spent + (n_exploit + 0.5) * suite.c_ept(subset), y_epr=y_epr, x_epr=x_epr,
        spent=spent, phase=COMMITTED, chosen=subset,
    )


def one_shot_exploit(
    state: PolicyState, suite: ModelSuite, variant: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The sorted estimate of ``exploit`` from the whole (n, k) design at
    once, drawing in exploit's order: the inputs, then the level or noise
    indices."""
    subset = state.chosen
    Z = suite.feature_map.design(state.x_epr, subset)
    _, x = suite.draw(rng, n, subset)
    design = suite.feature_map.design(x, subset)
    if variant == "quantile":
        k = QUANTILE_GRID_SIZE
        levels = quantile_fit(Z, state.y_epr, np.arange(1, k + 1) / (k + 1.0))
        values = levels.predict(design, rng.integers(0, k, size=n))
    else:
        fit = ols_fit(Z, state.y_epr)
        values = design @ fit.beta_hat
        if variant == "standard":
            values = values + fit.residuals[rng.integers(0, fit.residuals.size, size=n)]
    return np.sort(values)


class TestExploitBlocks:
    """exploit builds and applies the design a block of _BLOCK_ROWS rows at a
    time; at and around the block edges its estimate equals the one-shot
    product byte for byte and leaves the generator where it does."""

    B = _BLOCK_ROWS
    SIZES = [1, B - 1, B, B + 1, 3 * B + 7]

    @pytest.mark.parametrize(
        "suite",
        [ishigami_suite("perfect"), expanded_suite(ishigami_suite("approx"), "L"),
         _hetero_table_suite()],
        ids=["ishigami-perfect", "ishigami-approx-L", "table"],
    )
    @pytest.mark.parametrize("variant", ["standard", "no-noise", "quantile"])
    def test_block_edges(self, suite, variant):
        subsets = suite.subsets()
        for subset in dict.fromkeys([subsets[0], subsets[-1]]):
            for size in self.SIZES:
                state = committed_state(suite, subset, size, seed=5)
                rng = np.random.default_rng(size)
                estimate = exploit(state, suite, variant, rng=rng)
                replay = np.random.default_rng(size)
                want = one_shot_exploit(state, suite, variant, size, replay)
                assert estimate.atoms.tobytes() == want.tobytes(), (subset, size)
                assert rng.random(2).tobytes() == replay.random(2).tobytes(), (subset, size)


class TestExploitUnevenBlocks:
    """exploit predicts each block as it arrives, whatever its size: blocks of
    1, 2, B + 1 and other rows give the one-shot estimate byte for byte and
    leave the generator where it does."""

    B = _BLOCK_ROWS
    SIZES = [1, 2, B + 1, 3, 1, 1, 5]

    @classmethod
    def uneven(cls, suite: ModelSuite) -> ModelSuite:
        """The same joint draws, yielded in blocks of SIZES rows in turn."""

        def sample(rng, size, models):
            start, turn = 0, 0
            while start < size:
                rows = min(cls.SIZES[turn % len(cls.SIZES)], size - start)
                yield suite.draw(rng, rows, models)
                start, turn = start + rows, turn + 1

        return replace(suite, sampler=sample)

    @pytest.mark.parametrize("variant", ["standard", "no-noise", "quantile"])
    def test_match_the_one_shot_estimate(self, variant):
        suite = expanded_suite(ishigami_suite("approx"), "L")
        uneven = self.uneven(suite)
        for subset in [(1,), (1, 2)]:
            for size in [1, 2, 4, self.B + 2, 2 * self.B + 20]:
                state = committed_state(suite, subset, size, seed=8)
                rng = np.random.default_rng(size)
                estimate = exploit(state, uneven, variant, rng=rng)
                replay = np.random.default_rng(size)
                want = one_shot_exploit(state, suite, variant, size, replay)
                assert estimate.atoms.tobytes() == want.tobytes(), (subset, size)
                assert rng.random(2).tobytes() == replay.random(2).tobytes(), (subset, size)


class TestExploitMemory:
    """exploit predicts the drawn inputs a block at a time, so it holds the
    predictions (1 float a row), never the N-row inputs or their design.
    ``standard`` then draws its noise indices as int32 (half a float a row),
    adds the gathered residuals a block at a time and frees the indices;
    ``quantile`` keeps the input blocks (x, 2 floats a row) until its int32
    level indices are drawn.  The predictions are sorted in place into the
    measure, which stores no levels and checks them a block at a time.  The
    1 MiB slack covers a block's uniforms, scratch rows, inputs and design
    (0.44 MiB for the last, 8193-row block)."""

    ROWS = 1 << 20

    @pytest.mark.parametrize(
        "variant, floats",
        [("standard", 1.5), ("no-noise", 1), ("quantile", 3.5)],
        ids=["standard-1.5", "no-noise-1", "quantile-3.5"],
    )
    def test_peak_in_floats_a_row(self, variant, floats):
        suite = expanded_suite(ishigami_suite("perfect"), "L")
        state = committed_state(suite, (1, 2), self.ROWS, seed=6)
        with traced_peak() as traced:
            exploit(state, suite, variant, rng=np.random.default_rng(0))
        assert traced.peak <= 8 * self.ROWS * floats + 2**20, traced.peak / (8 * self.ROWS)

    @pytest.mark.parametrize("variant, floats", [("standard", 1.5), ("quantile", 3.5)])
    def test_exploit_then_moments(self, variant, floats):
        # a cell's estimate and its moment summary: moment_summary works in
        # blocks beside the 1-float estimate, so the pair peaks at exploit's
        suite = expanded_suite(ishigami_suite("perfect"), "L")
        state = committed_state(suite, (1, 2), self.ROWS, seed=7)
        with traced_peak() as traced:
            moment_summary(exploit(state, suite, variant, rng=np.random.default_rng(1)))
        assert traced.peak <= 8 * self.ROWS * floats + 2**20, traced.peak / (8 * self.ROWS)

    @pytest.mark.parametrize(
        "variant, floats",
        [("standard", 3), ("no-noise", 3), ("quantile", 3.5)],
        ids=["standard-3", "no-noise-3", "quantile-3.5"],
    )
    def test_one_block_sampler(self, variant, floats):
        # a custom sampler may yield its whole draw as one block (x, 2 floats
        # a row); exploit still cuts it into _BLOCK_ROWS slices, so the N-row
        # design never exists and each row rounds as under the built-in blocks
        suite = expanded_suite(ishigami_suite("perfect"), "L")

        def whole(rng, size, models):
            yield suite.draw(rng, size, models)

        state = committed_state(suite, (1, 2), self.ROWS, seed=9)
        with traced_peak() as traced:
            estimate = exploit(state, replace(suite, sampler=whole), variant,
                               rng=np.random.default_rng(2))
        assert traced.peak <= 8 * self.ROWS * floats + 2**20, traced.peak / (8 * self.ROWS)
        state = committed_state(suite, (1, 2), self.ROWS, seed=9)
        want = exploit(state, suite, variant, rng=np.random.default_rng(2))
        assert estimate.atoms.tobytes() == want.atoms.tobytes()


def recording_suite(suite: ModelSuite) -> tuple[ModelSuite, list]:
    """The same suite, logging the (size, models) of every sampler call."""
    calls = []

    def sample(rng, size, models):
        calls.append((size, models))
        return suite.sampler(rng, size, models)

    return replace(suite, sampler=sample), calls


class TestDrawRequests:
    JOINT = (0, 1, 2)

    @pytest.mark.parametrize("variant", ["standard", "no-noise", "quantile"])
    def test_exploit_asks_only_for_the_committed_subset(self, variant):
        # Y depends on X1 alone, so the policy commits to a proper subset
        def sample(rng, size, models):
            x = rng.normal(size=(size, 2))
            yield 1.0 + 2.0 * x[:, 0] + 0.3 * rng.normal(size=size), x

        suite, calls = recording_suite(
            ModelSuite(name="x1", cost_y=1.0, costs=(0.05, 0.01), sampler=sample)
        )
        est, state = run_aetc_d(suite, 400.0, np.random.default_rng(15), variant=variant)
        assert state.chosen == (1,)
        assert calls[-1] == (est.size, (1,))
        assert all(models == self.JOINT for _, models in calls[:-1])
        assert sum(size for size, _ in calls[:-1]) == state.t

    def test_fixed_m_explores_jointly_and_exploits_the_subset(self):
        from mfdist.bench import run_fixed_m

        suite, calls = recording_suite(ishigami_suite("perfect"))
        est, _ = run_fixed_m(suite, 200.0, 20, (2,), np.random.default_rng(16))
        assert calls == [(20, self.JOINT), (est.size, (2,))]

    def test_pilot_draws_jointly(self):
        suite, calls = recording_suite(ishigami_suite("perfect"))
        pilot_statistics(suite, 500, np.random.default_rng(17))
        assert calls == [(500, self.JOINT)]

    def test_baseline_and_oracle_ask_only_for_y(self):
        from mfdist.bench import ExperimentConfig, build_oracle_measure, run_ecdf_y

        suite, calls = recording_suite(ishigami_suite("perfect"))
        est = run_ecdf_y(suite, 50.0, np.random.default_rng(18))
        assert calls == [(est.size, (0,))]
        calls.clear()
        cfg = ExperimentConfig.from_dict(
            {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
             "budgets": [50.0], "oracle_samples": 1000}
        )
        build_oracle_measure(cfg, suite)
        assert calls == [(1000, (0,))]


class TestPolicyOnPerfectSuite:
    def test_prefers_first_surrogate_and_sane_rates(self):
        suite = ishigami_suite("perfect")
        chosen, rates = [], []
        for rep in range(10):
            _, state = run_aetc_d(suite, 1000.0, np.random.default_rng(2000 + rep))
            chosen.append(state.chosen)
            rates.append(state.t)
        assert chosen.count((1,)) >= 9
        # the adaptive rate should sit near the known optimum for this suite
        assert 100 <= np.median(rates) <= 400

    def test_pilot_statistics_structure(self):
        suite = ishigami_suite("perfect")
        pilot = pilot_statistics(suite, 50_000, np.random.default_rng(15))
        assert set(pilot["k1"]) == set(pilot["k2"]) == {(1,), (2,), (1, 2)}
        s_opt, m_star, _ = oracle_optimum(pilot["k1"], pilot["k2"], 1000.0, suite.c_epr)
        assert s_opt == (1,)
        assert 150 <= m_star <= 230

    def test_efficiency_ratio_on_pilot_statistics(self):
        # the lower-bound/upper-bound diagnostic is conservative: it lands
        # below 1 on this suite even though the adaptive policy wins the
        # actual comparison by a wide margin
        suite = ishigami_suite("perfect")
        pilot = pilot_statistics(suite, 200_000, np.random.default_rng(16))
        s_opt, _, _ = oracle_optimum(pilot["k1"], pilot["k2"], 1.0, suite.c_epr)
        ratio = efficiency_ratio(
            pilot["k1"][s_opt], pilot["k2"][s_opt], pilot["j0_y"],
            suite.cost_y, suite.c_epr,
        )
        assert 0.6 <= ratio <= 0.9
