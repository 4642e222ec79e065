from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.stats import wasserstein_distance

from mfdist.errors import InsufficientSampleError
from mfdist.models import _BLOCK_ROWS
from mfdist.measures import (
    _UNIFORM_RATIO,
    EmpiricalMeasure,
    _cdf_variation,
    _j1,
    _rank,
    cdf_at,
    j_functionals,
    moment_summary,
    sample_inverse_transform,
    wasserstein1,
)

from oracles import (
    kolmogorov_bruteforce,
    moments_exact,
    moments_float_powers,
    moments_full_array,
    traced_peak,
    w1_bruteforce_assignment,
    w1_quantile_grid,
    w1_uniform_exact,
)


def uniform_measure(*atoms) -> EmpiricalMeasure:
    return EmpiricalMeasure.from_samples(np.array(atoms, dtype=float))


def repeated(rng, atoms, most=3) -> np.ndarray:
    """Each atom repeated 1..most times: the uniform measure on the result
    is the measure with the rational weights k/K on the distinct draws."""
    return np.repeat(atoms, rng.integers(1, most + 1, size=np.size(atoms)))


def random_measure(rng, max_atoms=12) -> EmpiricalMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.normal(scale=3.0, size=n))
    if rng.random() < 0.5:
        return EmpiricalMeasure.from_samples(atoms)
    return EmpiricalMeasure.from_samples(repeated(rng, atoms))


class TestConstruction:
    def test_from_samples_sorts_and_uniform_weights(self):
        m = EmpiricalMeasure.from_samples([3.0, 1.0, 2.0, 1.0])
        assert np.array_equal(m.atoms, [1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(cdf_at(m, [0.0, 1.0, 2.0, 3.0]), [0.0, 0.5, 0.75, 1.0])

    def test_equal_weights_give_cdf_exactly_i_over_n(self):
        # a cumsum of 1/N drifts from i/N; the uniform law's levels do not,
        # so a sample and its k-fold repetition share every level they meet
        for n in (3, 10, 27, 1_000, 100_003):
            m = EmpiricalMeasure.from_samples(np.arange(n, dtype=float))
            # Python's int / int is the correctly rounded quotient
            assert np.array_equal(cdf_at(m, m.atoms), [i / n for i in range(1, n + 1)]), n
            repeated = EmpiricalMeasure.from_samples(np.repeat(m.atoms, 19))
            assert np.array_equal(cdf_at(repeated, m.atoms), cdf_at(m, m.atoms)), n

    def test_cdf_runs_from_exactly_zero_to_exactly_one(self):
        # the levels start at 0 and end at 1, so every u in (0, 1] finds an
        # atom, and the level i/N finds atom i
        for m in (EmpiricalMeasure.from_samples(np.arange(10.0)),
                  EmpiricalMeasure.from_samples(np.arange(100_003.0))):
            levels = cdf_at(m, m.atoms)
            assert cdf_at(m, m.atoms[0] - 1.0) == 0.0 and levels[-1] == 1.0
            assert np.all(np.diff(levels) > 0)
            assert sample_inverse_transform(m, 1.0) == m.atoms[-1]
            assert sample_inverse_transform(m, 5e-324) == m.atoms[0]
            n = m.size
            assert np.array_equal(sample_inverse_transform(m, np.arange(1, n + 1) / n), m.atoms)

    def test_duplicates_are_retained(self):
        m = EmpiricalMeasure.from_samples([1.0, 1.0, 1.0])
        assert m.size == 3
        assert wasserstein1(m, uniform_measure(1.0)) == 0.0

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalMeasure(np.array([2.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure.from_samples([np.nan, 1.0])

    @pytest.mark.parametrize("at", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                    3 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 6])
    def test_checks_reach_every_atom_across_block_edges(self, at):
        # the checks run over blocks that overlap by one atom: a drop or a
        # NaN at, just before or just after an edge must still be found
        atoms = np.arange(3 * _BLOCK_ROWS + 7.0)
        EmpiricalMeasure(atoms)
        dropped = atoms.copy()
        dropped[at] = dropped[at - 1] - 0.5
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalMeasure(dropped)
        nan = atoms.copy()
        nan[at] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure(nan)

    def test_checks_hold_one_block(self):
        # unblocked, the finiteness and order checks each built a 1 MiB
        # boolean array for 2**20 atoms
        atoms = np.arange(float(1 << 20))
        with traced_peak() as traced:
            EmpiricalMeasure(atoms)
        assert traced.peak <= _BLOCK_ROWS + 1 + 64 * 1024, traced.peak

    def test_immutable(self):
        m = uniform_measure(0.0, 1.0)
        with pytest.raises(ValueError):
            m.atoms[0] = 5.0


class TestCdfAndQuantile:
    def test_cdf_half_mass_below(self):
        assert cdf_at(uniform_measure(0.0, 1.0), 0.5) == 0.5

    def test_cdf_below_support(self):
        assert cdf_at(uniform_measure(0.0, 1.0), -1.0) == 0.0

    def test_cdf_counts_duplicates(self):
        assert cdf_at(uniform_measure(0.0, 0.0, 1.0, 3.0), 0.0) == 0.5

    def test_cdf_right_continuous(self):
        m = uniform_measure(0.0, 1.0)
        assert cdf_at(m, 1.0) == 1.0
        assert cdf_at(m, 1.0 - 1e-12) == 0.5

    def test_cdf_takes_a_scalar_or_an_array(self):
        m = uniform_measure(0.0, 1.0, 1.0, 3.0)
        for x in (1.0, np.float64(1.0), np.array(1.0)):
            got = cdf_at(m, x)
            assert type(got) is float and got == 0.75
        got = cdf_at(m, np.array([[-1.0, 1.0], [2.5, 3.0]]))
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [[0.0, 0.75], [0.75, 1.0]])
        assert np.array_equal(cdf_at(m, [0.0]), [0.25])

    def test_quantile_examples(self):
        two = uniform_measure(0.0, 1.0)
        assert sample_inverse_transform(two, 0.5) == 0.0
        assert sample_inverse_transform(two, 0.75) == 1.0
        assert sample_inverse_transform(uniform_measure(2.0, 5.0, 7.0), 0.34) == 5.0

    def test_quantile_domain(self):
        m = uniform_measure(0.0, 1.0)
        for bad in (0.0, -0.1, 1.0 + 1e-9):
            with pytest.raises(ValueError):
                sample_inverse_transform(m, bad)
        assert sample_inverse_transform(m, 1.0) == 1.0

    def test_quantile_left_continuous_in_t(self):
        m = uniform_measure(0.0, 1.0)
        # at the jump level the lower atom is still returned
        assert sample_inverse_transform(m, 0.5) == 0.0
        assert sample_inverse_transform(m, 0.5 + 1e-12) == 1.0

    def test_nan_level_rejected(self):
        m = uniform_measure(1.0, 2.0, 3.0)
        for u in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError):
                sample_inverse_transform(m, u)

    def test_inverse_transform_reproduces_measure(self):
        m = uniform_measure(-1.0, 0.0, 2.0, 2.0)
        rng = np.random.default_rng(11)
        drawn = sample_inverse_transform(m, 1.0 - rng.random(200_000))
        counts = {v: np.mean(drawn == v) for v in (-1.0, 0.0, 2.0)}
        assert counts[-1.0] == pytest.approx(0.25, abs=0.01)
        assert counts[0.0] == pytest.approx(0.25, abs=0.01)
        assert counts[2.0] == pytest.approx(0.5, abs=0.01)


class TestRank:
    """``_rank(n, u)`` is the index ``np.searchsorted`` finds for u among
    the explicit levels i/n, side "left", on the inputs where a rounded
    ceil(u * n) is most likely off: every level i/n and both of its float
    neighbours, and uniform draws, at small sizes, at sizes around 10^3 and
    2^20, and at the sizes of the 1e6-atom oracle and of large estimates."""

    SLICE = 1 << 18

    def check(self, n, u):
        levels = np.arange(n + 1.0) / n
        for start in range(0, u.size, self.SLICE):
            part = u[start:start + self.SLICE]
            want = np.searchsorted(levels, part, side="left")
            got = _rank(n, part)
            assert got.dtype == np.intp
            bad = np.flatnonzero(got != want)
            assert bad.size == 0, (n, part[bad[:3]], got[bad[:3]], want[bad[:3]])

    @pytest.mark.parametrize(
        "sizes", [range(1, 300), (999, 1000, 1001), ((1 << 20) - 1, 1 << 20),
                  (1_000_000, 1_577_960, 3_000_017)],
        ids=["1-299", "1000", "2^20", "large"],
    )
    def test_matches_searchsorted_on_i_over_n(self, sizes):
        rng = np.random.default_rng(91)
        for n in sizes:
            self.check(n, rng.random(2_000))
            levels = np.arange(n + 1.0) / n
            self.check(n, levels)
            self.check(n, np.nextafter(levels[1:], 0.0))  # just below each i/n, i >= 1
            self.check(n, np.nextafter(levels[:-1], 1.0))  # just above each i/n, i < n

    def test_scalar_and_ends(self):
        for n in (1, 7, 1_000_000):
            assert _rank(n, 0.0) == 0 and _rank(n, 1.0) == n
            assert _rank(n, 5e-324) == 1 and _rank(n, np.nextafter(1.0, 0.0)) == n


class TestWassersteinExamples:
    def test_point_masses(self):
        assert wasserstein1(uniform_measure(0.0), uniform_measure(1.0)) == 1.0

    def test_identical(self):
        m = uniform_measure(0.3, 0.7, 2.0)
        assert wasserstein1(m, m) == 0.0

    def test_quantile_coupling_example(self):
        assert wasserstein1(uniform_measure(0.0, 1.0), uniform_measure(0.0, 2.0)) == 0.5

    def test_weighted_measures(self):
        # weights 1/4 and 3/4 on 0 and 1
        a = uniform_measure(0.0, 1.0, 1.0, 1.0)
        b = uniform_measure(1.0)
        # 0.25 mass moved distance 1
        assert wasserstein1(a, b) == pytest.approx(0.25, abs=1e-15)


def scipy_w1(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    return wasserstein_distance(a.atoms, b.atoms)


class TestWassersteinUnequalSizes:
    """Differential checks of unequal sizes n < M, on every path.

    Pairs within the uniform path's size ratio take the integer pieces; the
    others take the quantile-block path against the larger measure's prefix
    sums.  ``repeated`` pairs repeat each atom 1..3 times, which is a measure
    with rational weights k/K, and shifts the size ratio by up to a factor 3.
    Tolerances: against ``w1_quantile_grid`` (exact up to roundoff on the
    merged level grid) rel 1e-12; against
    scipy rel 1e-10, because scipy's own cumulative weight sums leave up to
    2.5e-12 relative here.  Both are far below the 1e-3 relative error that
    uncentred prefix sums give on the offset case.
    """

    @staticmethod
    def measure(rng, atoms, is_repeated):
        return EmpiricalMeasure.from_samples(repeated(rng, atoms) if is_repeated else atoms)

    def check(self, a, b):
        got = wasserstein1(a, b)
        assert got == wasserstein1(b, a)  # roles follow from the sizes: exact
        assert got >= 0.0
        assert got == pytest.approx(scipy_w1(a, b), rel=1e-10, abs=0.0)
        if a.size + b.size <= 20_000:
            assert got == pytest.approx(w1_quantile_grid(a, b), rel=1e-12, abs=0.0)
        return got

    @pytest.mark.parametrize("is_repeated", [False, True])
    @pytest.mark.parametrize(
        "n, ratio", [(1, 2), (3, 2), (5, 10), (7, 100), (10, 1000), (1, 100_000), (2, 100_000)]
    )
    def test_size_ratios(self, n, ratio, is_repeated):
        rng = np.random.default_rng(1000 * n + ratio)
        small = self.measure(rng, rng.standard_normal(n), is_repeated)
        large = self.measure(rng, 0.3 + 1.5 * rng.standard_normal(n * ratio), is_repeated)
        self.check(small, large)
        self.check(large, small)

    @pytest.mark.parametrize("is_repeated", [False, True])
    def test_shared_and_duplicate_atoms(self, is_repeated):
        rng = np.random.default_rng(61)
        grid = np.array([-1.0, 0.0, 0.5, 2.0, 3.5])
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = n * int(rng.integers(2, 6)) + int(rng.integers(0, 3))
            a = self.measure(rng, rng.choice(grid, size=n), is_repeated)
            b = self.measure(rng, rng.choice(grid[1:4], size=m), is_repeated)
            self.check(a, b)

    def test_point_masses(self):
        rng = np.random.default_rng(62)
        large = self.measure(rng, rng.standard_normal(5_000), is_repeated=True)
        for c in (-10.0, float(large.atoms[0]), 0.0, float(large.atoms[2_500]), 10.0):
            got = self.check(uniform_measure(c), large)
            assert got == pytest.approx(float(np.mean(np.abs(large.atoms - c))), rel=1e-12)
        two = uniform_measure(0.0, 1.0)
        assert wasserstein1(uniform_measure(0.5), two) == 0.5
        assert wasserstein1(uniform_measure(0.0), two) == 0.5

    @pytest.mark.parametrize("is_repeated", [False, True])
    def test_large_offset_is_centred(self, is_repeated):
        # |x| ~ 1e6 with a spread of 1e-3: uncentred prefix sums would lose
        # about 1e6 * eps per block, i.e. 1e-3 of the distance
        rng = np.random.default_rng(63)
        for n, m in ((1, 100_000), (10, 10_000), (50, 200)):
            a = self.measure(rng, 1e6 + 1e-3 * rng.standard_normal(n), is_repeated)
            b = self.measure(rng, 1e6 + 1e-3 * (0.5 + rng.standard_normal(m)), is_repeated)
            self.check(a, b)

    def test_equal_laws_at_sizes_n_and_kn(self):
        # a sample and its k-fold repetition are one law, and both store the
        # levels i/N exactly.  Up to the uniform path's size ratio every
        # piece pairs an atom with itself, so the distance is exactly 0; the
        # search path above it keeps its prefix sums' roundoff
        rng = np.random.default_rng(64)
        worst = 0.0
        for n in (1, 2, 3, 7, 12, 20, 27, 100, 1000):
            for k in (2, 3, 10, _UNIFORM_RATIO, 19, 40):
                for offset, scale in ((0.0, 1.0), (0.0, 1e3), (1e6, 1e-3), (-5.0, 1e-2)):
                    x = offset + scale * rng.standard_normal(n)
                    a = EmpiricalMeasure.from_samples(x)
                    b = EmpiricalMeasure.from_samples(np.repeat(x, k))
                    got = wasserstein1(a, b)
                    assert got == wasserstein1(b, a)
                    assert got >= 0.0
                    if k <= _UNIFORM_RATIO:
                        assert got == 0.0, (n, k, offset)
                    else:
                        worst = max(worst, got / np.abs(x).max())
        assert worst <= 1e-14

    def test_prefix_sums_are_cached_and_frozen(self):
        # size ratios 50 and 33 are above the uniform path's, so the search
        # path runs and builds the larger measure's prefix sums once
        large = EmpiricalMeasure.from_samples(np.arange(100.0))
        small = uniform_measure(2.0, 7.0)
        wasserstein1(small, large)
        cached = large._prefix
        assert cached is not None and small._prefix is None
        wasserstein1(large, uniform_measure(1.0, 3.0, 9.0))
        assert large._prefix is cached
        shift, integral = cached
        assert integral.size == large.size + 1 and integral[0] == 0.0
        with pytest.raises(ValueError):
            integral[0] = 1.0
        with pytest.raises(ValueError):
            large.atoms[0] = 1.0

    def test_prefix_holds_only_the_integral(self):
        # the cached prefix of a 1e6-atom measure is its centred integral,
        # 1e6 + 1 float64 (7.6 MiB); a second copy of the levels made 15.3
        rng = np.random.default_rng(67)
        large = EmpiricalMeasure.from_samples(rng.standard_normal(1_000_000))
        small = EmpiricalMeasure.from_samples(rng.standard_normal(200))
        with traced_peak() as traced:
            wasserstein1(small, large)
        assert large._prefix is not None
        assert traced.held <= 8.5 * 2**20, traced.held / 2**20

    def test_uniform_path_builds_no_prefix_sums(self):
        rng = np.random.default_rng(65)
        for n, m in ((1, 1), (1_000, 1_000), (1_000, 1_500), (100, 100 * _UNIFORM_RATIO)):
            a = EmpiricalMeasure.from_samples(rng.standard_normal(n))
            b = EmpiricalMeasure.from_samples(rng.standard_normal(m))
            wasserstein1(a, b)
            wasserstein1(b, a)
            assert a._prefix is None and b._prefix is None, (n, m)

    def test_uniform_path_memory_is_a_few_chunks(self):
        # 1.5M against 1e6 atoms: every temporary is one chunk of 2**16
        # long, so the peak stays near 7 such float64 arrays (3.5 MiB), where
        # whole prefix sums and searches took ~84 MiB
        rng = np.random.default_rng(66)
        a = EmpiricalMeasure.from_samples(rng.standard_normal(1_500_000))
        b = EmpiricalMeasure.from_samples(rng.standard_normal(1_000_000))
        with traced_peak() as traced:
            wasserstein1(a, b)
        assert traced.peak <= 10 * 8 * 2**16 + 64 * 1024, traced.peak / (8 * 2**16)


class TestWassersteinAgainstRationals:
    """Uniform pairs against the exact W1 of the ideal laws (weights 1/n).

    The pairs cover equal sizes and size ratios on both sides of the uniform
    path's limit, so both the integer-piece path and the search path run;
    which one ran shows in whether the larger measure built prefix sums.
    Each must match the rational value within a few eps * max|x|.
    """

    SIZES = [(1, 1), (7, 7), (64, 64), (3, 5), (13, 40), (10, 10 * _UNIFORM_RATIO),
             (10, 10 * _UNIFORM_RATIO + 7), (2, 97), (1, 300), (25, 1_000)]

    @pytest.mark.parametrize("kind", ["random", "tied", "offset"])
    def test_both_paths_match_exact_rational(self, kind):
        rng = np.random.default_rng(["random", "tied", "offset"].index(kind) + 70)

        def draw(size):
            if kind == "random":
                return 2.0 * rng.standard_normal(size)
            if kind == "tied":
                return rng.choice([-1.0, 0.0, 0.5, 2.0, 3.5], size=size)
            return 1e6 + 1e-3 * rng.standard_normal(size)

        eps = np.finfo(np.float64).eps
        for n, m in self.SIZES:
            x, y = draw(n), draw(m)
            exact = w1_uniform_exact(x, y)
            scale = max(np.abs(x).max(), np.abs(y).max())
            for first, second in ((x, y), (y, x)):
                a = EmpiricalMeasure.from_samples(first)
                b = EmpiricalMeasure.from_samples(second)
                got = wasserstein1(a, b)
                assert abs(Fraction(got) - exact) <= 4 * eps * scale, (n, m, got, float(exact))
                large = b if b.size >= a.size else a
                assert (large._prefix is None) == (m <= _UNIFORM_RATIO * n), (n, m)

    def test_prefix_sums_do_not_grow_with_the_size(self):
        # the prefix integral is accumulated in extended precision and
        # rounded once: a sequential float64 cumsum was 1.1e-11 relative off
        # here, against 2.6e-16 now
        rng = np.random.default_rng(73)
        y = 0.3 + rng.standard_normal(100_000)
        large = EmpiricalMeasure.from_samples(y)
        for c in (-2.0, 0.0, 0.7, 3.0):
            got = wasserstein1(uniform_measure(c), large)
            exact = w1_uniform_exact([c], y)
            assert abs(Fraction(got) - exact) <= 4 * np.finfo(np.float64).eps * exact, c


class TestJFunctionals:
    def test_point_mass_is_zero(self):
        assert j_functionals(uniform_measure(3.7)) == (0.0, 0.0)

    def test_two_atom_example(self):
        j0, j1 = j_functionals(uniform_measure(0.0, 1.0))
        assert j0 == pytest.approx(0.25, abs=1e-15)
        assert j1 == pytest.approx(0.5, abs=1e-15)

    def test_uniform01_matches_quadrature(self):
        # analytic targets for Unif(0,1), confirmed by an independent quadrature
        target0, _ = integrate.quad(lambda x: x * (1 - x), 0, 1)
        target1, _ = integrate.quad(lambda x: np.sqrt(x * (1 - x)), 0, 1)
        assert target0 == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert target1 == pytest.approx(np.pi / 8.0, abs=1e-12)
        rng = np.random.default_rng(5)
        m = EmpiricalMeasure.from_samples(rng.random(100_000))
        j0, j1 = j_functionals(m)
        assert j0 == pytest.approx(target0, rel=0.02)
        assert j1 == pytest.approx(target1, rel=0.02)

    @pytest.mark.parametrize(
        "samples, j1",
        [([0.0, 3.0], 1.5), ([3.0, 0.0], 1.5), ([0.0, 0.0, 1.0, 1.0], 0.5),
         ([2.0, 2.0, 2.0], 0.0), ([5.0, 1.0, 1.0, 1.0], np.sqrt(3.0)),
         ([-1.0, 4.0, 4.0, -1.0, 4.0], np.sqrt(6.0))],
        ids=["two-atom", "two-atom-unsorted", "tied-halves", "all-tied", "tied-head",
             "tied-mixed"],
    )
    def test_j1_helper_on_tied_and_two_atom_samples(self, samples, j1):
        # F(1 - F) at the levels i/n, from the sample size alone, serves every
        # sample of that size, ties included
        helper = _j1(np.sort(samples), np.sqrt(_cdf_variation(len(samples))))
        assert helper == j_functionals(EmpiricalMeasure.from_samples(samples))[1]
        assert helper == pytest.approx(j1, rel=1e-15, abs=0.0)

    def test_j0_below_j1(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            j0, j1 = j_functionals(random_measure(rng))
            assert j0 <= j1 + 1e-15


class TestMetricProperties:
    """Metric axioms on random empirical pairs, both distances."""

    def test_axioms(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            a, b, c = (random_measure(rng) for _ in range(3))
            for dist in (wasserstein1, kolmogorov_bruteforce):
                assert dist(a, b) == dist(b, a)  # symmetry, exact
                assert dist(a, b) >= 0.0
                assert dist(a, a) == 0.0
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            a = random_measure(rng)
            b = random_measure(rng)
            if wasserstein1(a, b) == 0.0:
                assert kolmogorov_bruteforce(a, b) == 0.0
            else:
                assert kolmogorov_bruteforce(a, b) > 0.0

    def test_quantile_representation_equivalence(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            a, b = random_measure(rng), random_measure(rng)
            assert wasserstein1(a, b) == pytest.approx(
                w1_quantile_grid(a, b), abs=1e-10
            )

    def test_bruteforce_assignment_oracle(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
        rng = np.random.default_rng(45)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            a = rng.choice(grid, size=n)
            b = rng.choice(grid, size=n)
            got = wasserstein1(
                EmpiricalMeasure.from_samples(a), EmpiricalMeasure.from_samples(b)
            )
            assert got == pytest.approx(w1_bruteforce_assignment(a, b), abs=1e-12)

    def test_kolmogorov_bounded_by_w1(self):
        # for a measure with >= 1e4 atoms from a density bounded by L=1,
        # d_K <= 2*sqrt(L * W1) with 10% slack on the right side
        rng = np.random.default_rng(46)
        a = EmpiricalMeasure.from_samples(rng.random(20_000))
        for b in (
            EmpiricalMeasure.from_samples(rng.random(500)),
            EmpiricalMeasure.from_samples(0.5 + 0.2 * rng.random(2_000)),
            uniform_measure(0.5),
        ):
            bound = 2.0 * np.sqrt(1.0 * wasserstein1(a, b))
            assert kolmogorov_bruteforce(a, b) <= 1.1 * bound


class TestJRatioSpotCheck:
    def test_normal_reference_ratio(self):
        # a standard normal satisfies the polynomial-tail and bounded-density
        # premises with constant C = 1.01 (tail: sup x^4*min(F,1-F) ~ 0.378,
        # density max ~ 0.399 <= sqrt(C)); the ratio bound is then 21*C
        xs = np.linspace(0.05, 20.0, 4000)
        tail = stats.norm.sf(xs) * xs**4
        c = 1.01
        assert tail.max() <= c
        assert stats.norm.pdf(0.0) <= np.sqrt(c)
        rng = np.random.default_rng(47)
        m = EmpiricalMeasure.from_samples(rng.standard_normal(100_000))
        j0, j1 = j_functionals(m)
        assert j1 <= 21.0 * c * j0


class TestMomentSummary:
    def test_mean_zero_variance_two(self):
        # needs four atoms for a full summary; duplicate the +-1 pair
        m = uniform_measure(-1.0, -1.0, 1.0, 1.0)
        summary = moment_summary(m)
        assert summary.mean == 0.0
        assert summary.variance == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_unbiased_variance_matches_numpy(self):
        rng = np.random.default_rng(48)
        data = rng.normal(size=500)
        summary = moment_summary(EmpiricalMeasure.from_samples(data))
        assert summary.variance == pytest.approx(np.var(data, ddof=1), rel=1e-12)

    def test_symmetric_sample_has_zero_skewness(self):
        data = np.array([-2.0, -1.0, 1.0, 2.0])
        assert moment_summary(EmpiricalMeasure.from_samples(data)).skewness == pytest.approx(
            0.0, abs=1e-12
        )

    def test_normal_kurtosis_near_three(self):
        rng = np.random.default_rng(49)
        m = EmpiricalMeasure.from_samples(rng.standard_normal(100_000))
        assert moment_summary(m).kurtosis == pytest.approx(3.0, rel=0.05)

    def test_kurtosis_pearson_inequality(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m = EmpiricalMeasure.from_samples(rng.normal(size=12))
            assert moment_summary(m).kurtosis >= 1.0

    def test_matches_float_powers_and_scipy(self):
        rng = np.random.default_rng(51)
        skewed = rng.exponential(size=4000)
        offset = 1e6 + 1e-3 * rng.gamma(2.0, size=4000)
        atoms = np.sort(rng.lognormal(size=500))
        reps = rng.integers(1, 20, size=500)
        cases = [
            ("skewed", EmpiricalMeasure.from_samples(skewed), skewed),
            ("offset", EmpiricalMeasure.from_samples(offset), offset),
            # integer weights k/K: the uniform measure on k copies
            ("weighted", EmpiricalMeasure.from_samples(np.repeat(atoms, reps)),
             np.repeat(atoms, reps)),
        ]
        for name, m, expanded in cases:
            summary = moment_summary(m)
            got = (summary.mean, summary.variance, summary.skewness, summary.kurtosis)
            ref = moments_float_powers(m.atoms, np.full(m.size, 1.0 / m.size))
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), name
            # scipy centres at its own mean; at a 1e6 offset one ulp of the
            # mean (1.2e-10) moves the skewness by ~2e-7, so scipy takes the
            # deviations from the summary's mean about their own mean, as the
            # summary centres twice, and only the moment arithmetic is compared
            dev = expanded - summary.mean
            m2 = stats.moment(dev, 2)
            skewness = stats.moment(dev, 3) / m2**1.5
            kurtosis = stats.moment(dev, 4) / m2**2
            assert summary.skewness == pytest.approx(skewness, rel=1e-12), name
            assert summary.kurtosis == pytest.approx(kurtosis, rel=1e-12), name
            if name != "offset":
                assert summary.skewness == pytest.approx(stats.skew(expanded), rel=1e-12)
                assert summary.kurtosis == pytest.approx(
                    stats.kurtosis(expanded, fisher=False), rel=1e-12
                )

    def test_offset_moments_match_rationals(self):
        # at a 1e6 offset one centring at a mean an ulp off moved the
        # skewness by 1.7e-7; the second centring leaves the mean correctly
        # rounded and the standardized moments near eps
        rng = np.random.default_rng(52)
        x = 1e6 + 1e-3 * rng.gamma(2.0, size=2_000)
        summary = moment_summary(EmpiricalMeasure.from_samples(x))
        exact = [Fraction(float(v)) for v in x]
        mean = sum(exact) / len(exact)
        dev = [v - mean for v in exact]
        m2, m3, m4 = (sum(d**p for d in dev) / len(dev) for p in (2, 3, 4))
        assert summary.mean == float(mean)
        assert summary.skewness == pytest.approx(float(m3) / float(m2) ** 1.5, rel=1e-13)
        assert summary.kurtosis == pytest.approx(float(m4 / m2**2), rel=1e-13)

    def test_blocks_no_less_accurate_than_the_full_array(self):
        # moment_summary sums over blocks of atoms.  Against exact rational
        # moments, each statistic's worst error over these samples, each of
        # 3 or 4 blocks, is within a factor 2 of the full-array formula's it
        # replaced (oracles.moments_full_array).  Errors are relative to what
        # each sum is conditioned by: mean|x| for the mean, the value for the
        # variance and kurtosis, and mean|x - mean|^3 / m2^1.5 for the
        # skewness, whose third moment cancels.
        import mpmath

        rng = np.random.default_rng(53)
        draws = [rng.normal, rng.exponential, rng.lognormal, rng.uniform]
        samples = [draws[i % 4](size=int(rng.integers(20_000, 30_000))) + (i >= 4) * 1e6
                   for i in range(8)]
        samples.append(1e6 + 1e-3 * rng.gamma(2.0, size=20_000))  # the offset sample
        worst = {"blocked": np.zeros(4), "full-array": np.zeros(4)}
        with mpmath.workdps(40):
            for x in samples:
                atoms = np.sort(x)
                mean, c2, c3, c4 = (mpmath.mpf(v.numerator) / v.denominator
                                    for v in moments_exact(atoms))
                exact = [mean, c2 * atoms.size / (atoms.size - 1), c3 / c2**1.5, c4 / c2**2]
                dev = atoms - float(mean)
                scale = [np.abs(atoms).mean(), exact[1],
                         np.mean(np.abs(dev) ** 3) / float(c2) ** 1.5, exact[3]]
                summary = moment_summary(EmpiricalMeasure(atoms))
                for name, got in [("blocked", astuple(summary)),
                                  ("full-array", moments_full_array(atoms))]:
                    err = [float(abs(g - e) / s) for g, e, s in zip(got, exact, scale)]
                    worst[name] = np.maximum(worst[name], err)
        bound = 2.0 * np.maximum(worst["full-array"], 2.0**-53)
        assert np.all(worst["blocked"] <= bound), worst

    def test_temporaries_are_one_block(self):
        m = EmpiricalMeasure.from_samples(np.random.default_rng(54).normal(size=1 << 20))
        with traced_peak() as traced:
            moment_summary(m)
        assert traced.peak <= 2**20, traced.peak

    def test_insufficient_atoms(self):
        with pytest.raises(InsufficientSampleError):
            moment_summary(uniform_measure(1.0, 2.0, 3.0))
        with pytest.raises(InsufficientSampleError):
            moment_summary(uniform_measure(0.0))
