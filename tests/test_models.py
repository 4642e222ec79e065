import json
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mfdist import models
from mfdist.errors import ConfigError, TableParseError
from mfdist.models import (
    FeatureMap,
    ModelSuite,
    SampleTable,
    all_subsets,
    expanded_suite,
    ishigami_suite,
    quadratic_interaction_expansion,
    suite_from_config,
    table_suite,
)

from oracles import (
    ishigami_terms_float_powers,
    ishigami_y_products,
    table_rows_line_loop,
    traced_peak,
    write_table,
)


class TestSubsetEnumeration:
    def test_order_cardinality_then_lex(self):
        assert all_subsets(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]

    def test_count(self):
        assert len(all_subsets(5)) == 31


class TestIshigamiSuite:
    def test_default_costs_and_rates(self):
        suite = ishigami_suite("perfect")
        assert suite.cost_y == 1.0
        assert suite.costs == (0.05, 0.001)
        assert suite.c_epr == pytest.approx(1.051)
        assert suite.c_ept((1,)) == pytest.approx(0.05)
        assert suite.c_ept((1, 2)) == pytest.approx(0.051)

    def test_perfect_correlations(self):
        suite = ishigami_suite("perfect", c=1.0, d=0.1)
        y, x = suite.draw(np.random.default_rng(101), 1_000_000)
        assert np.corrcoef(y, x[:, 0])[0, 1] == pytest.approx(0.999, abs=0.002)
        assert np.corrcoef(y, x[:, 1])[0, 1] == pytest.approx(0.986, abs=0.002)

    def test_approx_correlations(self):
        suite = ishigami_suite("approx", c=0.0, d=0.0)
        y, x = suite.draw(np.random.default_rng(102), 1_000_000)
        assert np.corrcoef(y, x[:, 0])[0, 1] == pytest.approx(0.999, abs=0.005)
        assert np.corrcoef(y, x[:, 1])[0, 1] == pytest.approx(0.950, abs=0.005)

    def test_perfect_degenerates_to_first_surrogate(self):
        suite = ishigami_suite("perfect", c=0.0, d=0.0)
        y, x = suite.draw(np.random.default_rng(103), 5_000)
        assert np.array_equal(y, x[:, 0])

    def test_seed_determinism(self):
        suite = ishigami_suite("perfect")
        y1, x1 = suite.draw(np.random.default_rng(7), 1000)
        y2, x2 = suite.draw(np.random.default_rng(7), 1000)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)

    def test_stream_continuation_is_iid_fresh(self):
        suite = ishigami_suite("perfect")
        rng = np.random.default_rng(7)
        ya, _ = suite.draw(rng, 500)
        yb, _ = suite.draw(rng, 500)
        assert not np.array_equal(ya, yb)

    def test_pinned_first_draw(self):
        # fixed generator algorithm: the stream must be stable across platforms
        suite = ishigami_suite("perfect")
        y, _ = suite.draw(np.random.default_rng(0), 2)
        assert y[0] == pytest.approx(10.998823664309818, abs=1e-12)
        assert y[1] == pytest.approx(2.6969212500849693, abs=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ishigami_suite("exact")

    # every float64 (NaN and infinities too), and magnitudes near float64's limit
    _COEFFICIENT = st.one_of(
        st.floats(),
        st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([-1.0, 1.0]),
                  st.floats(1.0, 10.0, exclude_max=True), st.integers(300, 308)),
        st.just(0.0),
    )
    _MAX = np.finfo(np.float64).max

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(a=_COEFFICIENT, b=_COEFFICIENT, c=_COEFFICIENT, d=_COEFFICIENT)
    @example(a=0.999 * _MAX, b=0.0, c=0.0, d=0.0)
    @example(a=0.0, b=-0.999 * _MAX / np.pi**4, c=0.0, d=0.0)
    @example(a=0.0, b=0.0, c=-0.999 * _MAX, d=0.0)
    @example(a=-0.5 * _MAX, b=0.0, c=0.0, d=-0.499 * _MAX)
    @example(a=-0.999 * _MAX, b=0.0, c=0.0, d=0.999 * _MAX)
    def test_parameters_bound_every_draw(self, a, b, c, d):
        # each term of a draw has a range that holds 0: a s2^2, s1, b z3^4 s1
        # (|z3| <= pi), c s4^3 and d s5^4
        spread = 1.0 + np.pi**4 * abs(b) + abs(c)
        lo, hi = min(a, 0.0) - spread + min(d, 0.0), max(a, 0.0) + spread + max(d, 0.0)
        for variant in ("perfect", "approx"):
            try:
                suite = ishigami_suite(variant, a, b, c, d)
            except ConfigError:
                assert not all(math.isfinite(v * (1.0 + 2.0**-49)) for v in (lo, hi))
                continue
            for request in (None, (0,), (1,), (2,), (1, 2)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    y, x = suite.draw(np.random.default_rng(0), 2000, request)
                asked = [i - 1 for i in request or (1, 2) if i > 0]
                for values in (y, None if x is None else x[:, asked]):
                    if values is not None:
                        assert np.isfinite(values).all()
                        assert lo <= values.min() and values.max() <= hi


def _bootstrap_table_suite():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(300, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=300)
    return table_suite(SampleTable(y=y, x=x, cost_y=1.0, costs=(0.1, 0.05, 0.01)))


class TestSubsetDraws:
    """A request for some models returns the joint draw's columns bit for bit
    and leaves the generator where the joint draw leaves it."""

    # the samplers reuse scratch buffers, and a wrong reuse shows only where
    # the term it clobbers is nonzero: c, d, negative a, b and b = 0 too
    @pytest.mark.parametrize(
        "suite",
        [
            ishigami_suite("perfect"),
            ishigami_suite("approx"),
            ishigami_suite("perfect", c=-2.0, d=0.0),
            ishigami_suite("approx", c=0.7, d=-0.3),
            ishigami_suite("perfect", a=-3.0, b=-0.2),
            ishigami_suite("approx", a=-5.0, b=-0.1, c=0.7, d=-0.3),
            ishigami_suite("perfect", b=0.0),
            ishigami_suite("approx", b=0.0, c=0.7, d=-0.3),
            _bootstrap_table_suite(),
        ],
        ids=[
            "ishigami-perfect",
            "ishigami-approx",
            "perfect-c-2-d0",
            "approx-c0.7-d-0.3",
            "perfect-negative-a-b",
            "approx-negative-a-b",
            "perfect-b0",
            "approx-b0",
            "table",
        ],
    )
    def test_requests_match_the_joint_draw(self, suite):
        reference = np.random.default_rng(23)
        y, x = suite.draw(reference, 1000)
        y_next, x_next = suite.draw(reference, 700)
        requests = [(0,)] + all_subsets(suite.n) + [tuple(range(suite.n + 1))]
        for models in requests:
            rng = np.random.default_rng(23)
            yr, xr = suite.draw(rng, 1000, models)
            if 0 in models:
                assert yr.tobytes() == y.tobytes(), models
            else:
                assert yr is None, models
            if models[-1] == 0:
                assert xr is None, models
            for i in range(1, suite.n + 1):
                if xr is None:
                    continue
                if i in models:
                    assert xr[:, i - 1].tobytes() == x[:, i - 1].tobytes(), models
                else:
                    assert np.isnan(xr[:, i - 1]).all(), models
            yn, xn = suite.draw(rng, 700)
            assert yn.tobytes() == y_next.tobytes() and xn.tobytes() == x_next.tobytes()

    # the Ishigami parameter sets of test_requests_match_the_joint_draw
    @pytest.mark.parametrize(
        "a,b,c,d",
        [
            (5.0, 0.1, 1.0, 0.1),
            (5.0, 0.1, 0.0, 0.0),
            (5.0, 0.1, -2.0, 0.0),
            (5.0, 0.1, 0.7, -0.3),
            (-3.0, -0.2, 1.0, 0.1),
            (-5.0, -0.1, 0.7, -0.3),
            (5.0, 0.0, 1.0, 0.1),
            (5.0, 0.0, 0.7, -0.3),
        ],
    )
    def test_variants_draw_the_same_y(self, a, b, c, d):
        # the variants differ only in their surrogates; one sampler body builds Y
        perfect, approx = (ishigami_suite(v, a, b, c, d) for v in ("perfect", "approx"))
        y, _ = perfect.draw(np.random.default_rng(23), 1000)
        ya, _ = approx.draw(np.random.default_rng(23), 1000)
        assert y.tobytes() == ya.tobytes()

    def test_default_is_the_joint_draw(self):
        suite = ishigami_suite("perfect")
        y, x = suite.draw(np.random.default_rng(4), 50)
        yj, xj = suite.draw(np.random.default_rng(4), 50, (2, 0, 1, 1))
        assert np.array_equal(y, yj) and np.array_equal(x, xj)

    @pytest.mark.parametrize("models", [(), (3,), (-1, 1)])
    def test_models_out_of_range(self, models):
        with pytest.raises(ValueError, match="models"):
            ishigami_suite("perfect").draw(np.random.default_rng(0), 5, models)

    def test_sampler_shape_is_checked_for_what_was_asked(self):
        suite = ModelSuite(
            name="short", cost_y=1.0, costs=(0.1,),
            sampler=lambda r, n, models: iter([(np.zeros(n - 1), np.zeros((n, 1)))]),
        )
        _, x = suite.draw(np.random.default_rng(0), 4, (1,))
        assert x.shape == (4, 1)
        with pytest.raises(ValueError, match="shape"):
            suite.draw(np.random.default_rng(0), 4)
        # blocks of 2 and 1 rows are too few across blocks; a third block is one too many
        for sizes in ([2, 1], [2, 2, 1]):
            counted = ModelSuite(
                name="rows", cost_y=1.0, costs=(0.1,),
                sampler=lambda r, n, models, sizes=sizes: (
                    (np.zeros(k), np.zeros((k, 1))) for k in sizes
                ),
            )
            with pytest.raises(ValueError, match="rows"):
                counted.draw(np.random.default_rng(0), 4)
            with pytest.raises(ValueError, match="rows"):
                list(counted.blocks(np.random.default_rng(0), 4))


class TestIshigamiProducts:
    """The samplers take powers as products, not with ``**``.  Against the
    ``**`` formula each value is within a few roundings of the sum of its
    terms' magnitudes; a bound in max(1, |v|) cannot hold where terms cancel."""

    ROWS = 200_000
    EPS = np.finfo(np.float64).eps

    @classmethod
    def within_bound(cls, value, terms):
        """|value - (terms summed left to right)| <= 4 eps sum|term|, per element."""
        scale = reduce(np.add, [np.abs(t) for t in terms])
        return bool(np.all(np.abs(value - reduce(np.add, terms)) <= 4.0 * cls.EPS * scale))

    @pytest.mark.parametrize(
        "variant,a,b,c,d",
        [
            ("perfect", 5.0, 0.1, 1.0, 0.1),
            ("approx", 5.0, 0.1, 0.0, 0.0),
            ("perfect", -3.0, -0.2, -2.0, 0.0),
            ("approx", 5.0, 0.1, 0.7, -0.3),
        ],
    )
    def test_against_float_powers(self, variant, a, b, c, d):
        suite = ishigami_suite(variant, a=a, b=b, c=c, d=d)
        y, x = suite.draw(np.random.default_rng(31), self.ROWS)
        z = np.random.default_rng(31).uniform(-np.pi, np.pi, size=(self.ROWS, 5))
        terms = ishigami_terms_float_powers(z, variant, a, b, c, d)
        for model, value in {0: y, 1: x[:, 0], 2: x[:, 1]}.items():
            assert self.within_bound(value, terms[model]), model
            # the bound is tight enough to see any one term off by 1e-13
            for k, term in enumerate(terms[model]):
                if np.any(term != 0.0):
                    scaled = terms[model][:k] + [term * (1.0 + 1e-13)] + terms[model][k + 1:]
                    assert not self.within_bound(reduce(np.add, scaled), terms[model]), (model, k)

    @pytest.mark.parametrize("c, d", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.1)])
    @pytest.mark.parametrize("variant", ["perfect", "approx"])
    def test_y_matches_all_four_terms(self, variant, c, d):
        # the samplers skip a term whose coefficient is 0; adding its +-0
        # could change only the sign of an exact zero
        suite = ishigami_suite(variant, c=c, d=d)
        z = np.random.default_rng(32).uniform(-np.pi, np.pi, size=(self.ROWS, 5))
        want = ishigami_y_products(z, 5.0, 0.1, c, d)
        for models_asked in [(0,), (0, 1, 2)]:
            y, _ = suite.draw(np.random.default_rng(32), self.ROWS, models_asked)
            assert y.tobytes() == want.tobytes(), models_asked


class TestDrawMemory:
    """A draw holds its output plus one block of scratch: the block's
    uniforms, the next block's while they are drawn, and three rows."""

    ROWS = 100_000

    @pytest.mark.parametrize("variant", ["perfect", "approx"])
    def test_peak_is_the_output_plus_one_block(self, variant):
        suite = ishigami_suite(variant)
        allowance = 13 * 8 * models._BLOCK_ROWS + 64 * 1024
        for asked in [(0,)] + all_subsets(suite.n) + [(0, 1, 2)]:
            # Y is 1 float a row, x is 2 whatever surrogates are asked for
            output = 8 * self.ROWS * ((0 in asked) + 2 * (asked[-1] > 0))
            rng = np.random.default_rng(0)
            with traced_peak() as traced:
                suite.draw(rng, self.ROWS, asked)
            assert traced.peak <= output + allowance, (asked, (traced.peak - output) / 1024)


class TestDrawBlocks:
    """The Ishigami samplers draw in blocks of _BLOCK_ROWS rows; at and
    around the block edges every request equals the four-term formula or the
    one-block draw bit for bit and leaves the generator where one
    (size, 5) uniform draw leaves it."""

    B = models._BLOCK_ROWS
    SIZES = [1, B - 1, B, B + 1, 3 * B + 7]

    # zero coefficients skip terms and negative ones flip signs: a block that
    # reused a scratch row wrongly would show in one of them
    @pytest.mark.parametrize(
        "variant,a,b,c,d",
        [
            ("perfect", 5.0, 0.1, 1.0, 0.1),
            ("approx", 5.0, 0.1, 0.0, 0.0),
            ("perfect", -3.0, -0.2, 0.0, -0.3),
            ("approx", -5.0, 0.0, 0.7, -0.3),
            ("perfect", 5.0, 0.0, -2.0, 0.0),
            ("approx", 5.0, -0.1, 0.0, 0.1),
        ],
    )
    def test_block_edges(self, monkeypatch, variant, a, b, c, d):
        suite = ishigami_suite(variant, a, b, c, d)
        for size in self.SIZES:
            reference = np.random.default_rng(size)
            y_want = ishigami_y_products(
                reference.uniform(-np.pi, np.pi, size=(size, 5)), a, b, c, d
            )
            after = reference.random(4)
            with monkeypatch.context() as patch:
                patch.setattr(models, "_BLOCK_ROWS", size)  # the whole draw in one block
                _, x_want = suite.draw(np.random.default_rng(size), size)
            for asked in [(0,)] + all_subsets(suite.n) + [(0, 1, 2)]:
                rng = np.random.default_rng(size)
                y, x = suite.draw(rng, size, asked)
                if 0 in asked:
                    assert y.tobytes() == y_want.tobytes(), (size, asked)
                for i in (m for m in asked if m > 0):
                    assert x[:, i - 1].tobytes() == x_want[:, i - 1].tobytes(), (size, asked)
                assert rng.random(4).tobytes() == after.tobytes(), (size, asked)

    @pytest.mark.parametrize("rows", [1, 2, B + 1, 200_003])
    def test_inputs_are_generator_uniform_bit_for_bit(self, rows):
        # random() scaled in place, without uniform's per-value loop
        rng, reference = np.random.default_rng(rows), np.random.default_rng(rows)
        want = reference.uniform(-np.pi, np.pi, size=(rows, 5))
        assert models._ishigami_inputs(rng, rows).tobytes() == want.tobytes()
        assert rng.random(4).tobytes() == reference.random(4).tobytes()


class TestIndexDraws:
    """``rng.integers`` keeps the unused half of a 64-bit output in the
    generator, so split calls draw the one-shot call's values and leave the
    generator where it would; the table sampler and exploitation draw their
    indices a block at a time on this."""

    @pytest.mark.parametrize(
        "high, dtype",
        [(high, dtype) for dtype in (np.int32, np.int64)
         for high in (1, 5, 1000, 2**20 + 7, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
                      2**32 + 1, 2**40 + 3)
         if high <= np.iinfo(dtype).max + 1],
    )
    def test_split_calls_draw_the_one_shot_values(self, high, dtype):
        for split in ([1], [3, 5], [8191], [8192, 1], [7, 8192, 8193]):
            one, parts = np.random.default_rng(high), np.random.default_rng(high)
            want = one.integers(0, high, size=sum(split), dtype=dtype)
            got = [parts.integers(0, high, size=size, dtype=dtype) for size in split]
            assert np.concatenate(got).tobytes() == want.tobytes(), split
            assert parts.random() == one.random(), split


class TestFeatureExpansion:
    def test_cubic_terms_for_single_model(self):
        # full design: 1, X1, X2, X1^2, X1^3, X2^2, X2^3
        suite = expanded_suite(ishigami_suite("perfect"), "L")
        assert suite.feature_map.columns((1,)) == [0, 1, 3, 4]
        assert suite.feature_map.columns((2,)) == [0, 2, 5, 6]

    def test_quadratic_interactions_full_subset(self):
        fm = quadratic_interaction_expansion(3)
        assert fm.columns((1, 2, 3)) == list(range(10))
        assert fm.columns((1, 2)) == [0, 1, 2, 4, 5, 7]
        assert fm.columns((2,)) == [0, 2, 5]

    def test_feature_values(self):
        fm = quadratic_interaction_expansion(2)
        x = np.array([[2.0, 3.0]])
        assert fm.design(x).tolist() == [[1.0, 2.0, 3.0, 4.0, 9.0, 6.0]]
        assert fm.design(x, (2,)).tolist() == [[1.0, 3.0, 9.0]]

    @pytest.mark.parametrize("expansion", sorted(models._EXPANSIONS))
    def test_subset_design_is_the_gathered_full_design(self, expansion):
        fm = models._EXPANSIONS[expansion](3)
        x = np.random.default_rng(4).normal(scale=3.0, size=(41, 3))
        full = fm.design(x)
        for subset in all_subsets(3):
            Z = fm.design(x, subset)
            assert Z.flags.c_contiguous
            assert Z.tobytes() == np.ascontiguousarray(full[:, fm.columns(subset)]).tobytes()

    @pytest.mark.parametrize("expansion", sorted(models._EXPANSIONS))
    def test_monomials_are_products(self, expansion):
        # powers up to 2 keep the bytes of x ** power; a cube is (x * x) * x,
        # which libm pow, behind x ** 3, rounds otherwise
        fm = models._EXPANSIONS[expansion](3)
        x = np.random.default_rng(7).normal(scale=3.0, size=(2000, 3))
        monomials = [(), *(((i, 1),) for i in range(1, 4)), *fm.extra]
        for col, mono in zip(fm.design(x).T, monomials):
            want = np.ones(x.shape[0])
            for idx, power in mono:
                v = x[:, idx - 1]
                assert power <= 3
                want *= v**power if power <= 2 else (v * v) * v
            assert col.tobytes() == want.tobytes(), mono

    def test_identity_expansion_is_transparent(self):
        base = ishigami_suite("perfect")
        same = expanded_suite(base, FeatureMap(n=2))
        y1, x1 = base.draw(np.random.default_rng(5), 100)
        y2, x2 = same.draw(np.random.default_rng(5), 100)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)
        assert same.c_ept((1,)) == base.c_ept((1,))

    def test_expansion_does_not_change_costs_or_law(self):
        base = ishigami_suite("perfect")
        rich = expanded_suite(base, "L")
        assert rich.c_ept((1, 2)) == base.c_ept((1, 2))
        yb, _ = base.draw(np.random.default_rng(6), 200_000)
        yr, _ = rich.draw(np.random.default_rng(66), 200_000)
        assert np.mean(yb) == pytest.approx(np.mean(yr), abs=0.05)
        assert np.std(yb) == pytest.approx(np.std(yr), rel=0.02)

    def test_out_of_range_transform_rejected(self):
        with pytest.raises(ConfigError, match="models 1..2"):
            expanded_suite(ishigami_suite("perfect"), FeatureMap(n=2, extra=(((3, 2),),)))

    def test_bad_power_rejected(self):
        with pytest.raises(ConfigError):
            FeatureMap(n=2, extra=(((1, 0),),))


class TestSuiteValidation:
    def test_cost_positivity(self):
        with pytest.raises(ConfigError):
            ModelSuite(name="bad", cost_y=0.0, costs=(1.0,), sampler=lambda r, n, models: (None, None))

    def test_model_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            ModelSuite(
                name="big", cost_y=1.0, costs=(0.1,) * 17,
                sampler=lambda r, n, models: (None, None),
            )

    def test_cost_accounting_identity(self):
        suite = ishigami_suite("perfect")
        m, n_exploit = 37, 1234
        spend = m * suite.c_epr + n_exploit * suite.c_ept((1,))
        assert spend == pytest.approx(37 * 1.051 + 1234 * 0.05, abs=1e-12)


class TestSampleTable:
    def write_table(self, tmp_path, rows, header="y,x1,x2"):
        csv_path = tmp_path / "t.csv"
        costs_path = tmp_path / "t.json"
        csv_path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
        costs_path.write_text(json.dumps({"cost_y": 2.0, "costs": [0.5, 0.25]}))
        return csv_path, costs_path

    def test_roundtrip(self, tmp_path):
        table = SampleTable(
            y=np.array([1.5, -2.25]),
            x=np.array([[0.1, 0.2], [0.3, 0.4]]),
            cost_y=2.0,
            costs=(0.5, 0.25),
        )
        write_table(table, tmp_path / "r.csv", tmp_path / "r.json")
        loaded = SampleTable.from_csv(tmp_path / "r.csv", tmp_path / "r.json")
        assert np.array_equal(loaded.y, table.y)
        assert np.array_equal(loaded.x, table.x)
        assert loaded.costs == table.costs

    def test_single_row_suite_repeats_it(self, tmp_path):
        paths = self.write_table(tmp_path, ["7.0,1.0,2.0"])
        suite = table_suite(SampleTable.from_csv(*paths))
        y, x = suite.draw(np.random.default_rng(1), 50)
        assert np.all(y == 7.0)
        assert np.all(x == [1.0, 2.0])
        assert suite.cost_y == 2.0 and suite.costs == (0.5, 0.25)

    def test_malformed_row_names_line(self, tmp_path):
        paths = self.write_table(tmp_path, ["1.0,2.0,3.0", "4.0,oops,6.0"])
        with pytest.raises(TableParseError, match="line 3"):
            SampleTable.from_csv(*paths)

    def test_first_malformed_row_wins_over_a_later_non_utf8_byte(self, tmp_path):
        # the text decoder reads ahead of the rows, from the header read on
        csv_path, costs_path = self.write_table(tmp_path, ["1.0,2.0,3.0"] * 50)
        lines = csv_path.read_bytes().split(b"\n")
        lines[6], lines[41] = b"1.0,abc,3.0", b"1.0,\xff,3.0"
        csv_path.write_bytes(b"\n".join(lines))
        with pytest.raises(TableParseError, match="line 7: could not convert string to float"):
            SampleTable.from_csv(csv_path, costs_path)
        lines[6], lines[0] = b"1.0,2.0,3.0", b"y,x1,x\xfe"
        csv_path.write_bytes(b"\n".join(lines))
        with pytest.raises(TableParseError, match="line 1: byte 0xfe is not UTF-8"):
            SampleTable.from_csv(csv_path, costs_path)

    def test_wrong_field_count_names_line(self, tmp_path):
        paths = self.write_table(tmp_path, ["1.0,2.0"])
        with pytest.raises(TableParseError, match="line 2"):
            SampleTable.from_csv(*paths)

    def test_overlong_field_names_line(self, tmp_path):
        # no field length limit: numpy reads a 200,000-character field, and
        # a row or header it is in is refused by line like any other
        paths = self.write_table(tmp_path, ["0" * 200_000 + "1.5,2.0,3.0"])
        assert SampleTable.from_csv(*paths).y.tolist() == [1.5]
        paths = self.write_table(tmp_path, ["1.0,2.0,3.0", "0" * 200_000 + "1.5,2.0"])
        with pytest.raises(TableParseError, match="line 3: expected 3 fields, got 2"):
            SampleTable.from_csv(*paths)
        paths = self.write_table(tmp_path, ["1.0,2.0,3.0"], header="y" + "0" * 200_000 + ",x1,x2")
        with pytest.raises(TableParseError, match="line 1: expected header 'y,x1,x2', got 'y0000"):
            SampleTable.from_csv(*paths)

    @pytest.mark.parametrize("name", ["t.csv.gz", "t.bz2", "t.xz", "t.lzma"])
    def test_compressed_suffix_reads_as_plain_text(self, tmp_path, name):
        # numpy opens a path by its suffix; the table is read as the bytes it holds
        csv_path, costs_path = self.write_table(tmp_path, ["1.0,2.0,3.0", "4.0,5.0,6.0"])
        plain = csv_path.rename(tmp_path / name)
        assert SampleTable.from_csv(plain, costs_path).y.tolist() == [1.0, 4.0]

    def test_bad_header(self, tmp_path):
        paths = self.write_table(tmp_path, ["1.0,2.0,3.0"], header="y,a,b")
        with pytest.raises(TableParseError, match="line 1"):
            SampleTable.from_csv(*paths)

    def test_empty_table(self, tmp_path):
        paths = self.write_table(tmp_path, [])
        with pytest.raises(TableParseError, match="no data rows"):
            SampleTable.from_csv(*paths)

    def test_cost_metadata_errors_name_the_file(self, tmp_path):
        csv_path, costs_path = self.write_table(tmp_path, ["1.0,2.0,3.0"])
        for meta, message in [
            ('{"costs": [0.5, 0.25]}', "exactly the keys 'cost_y' and 'costs', got ['costs']"),
            ('{"cost_y": 2.0}', "exactly the keys 'cost_y' and 'costs', got ['cost_y']"),
            ('{"cost_y": 2.0, "costs": [0.5, 0.25], "cost": 1}', "got ['cost', 'cost_y', 'costs']"),
            ("[2.0, [0.5, 0.25]]", "expected a JSON object, got list"),
            ('{"cost_y": 2.0, "costs"', "invalid JSON"),
            ('{"cost_y": "two", "costs": [0.5, 0.25]}', "cost_y must be a number"),
            ('{"cost_y": 2.0, "costs": [0.5, null]}', "costs a list of numbers"),
        ]:
            costs_path.write_text(meta)
            with pytest.raises(ConfigError) as info:
                SampleTable.from_csv(csv_path, costs_path)
            assert str(info.value).startswith(f"{costs_path}: "), meta
            assert message in str(info.value), meta

    @pytest.mark.parametrize(
        "meta",
        ['{"cost_y": true, "costs": [0.5, 0.25]}', '{"cost_y": 2.0, "costs": [0.5, false]}',
         '{"cost_y": 2.0, "costs": [0.5, 1%s]}' % ("0" * 400)],
        ids=["cost_y-bool", "costs-bool", "costs-past-float"],
    )
    def test_cost_metadata_refuses_non_numbers(self, tmp_path, meta):
        # float() took a boolean as 0 or 1, and raised OverflowError, which
        # no caller handled, for an integer past float64's range
        csv_path, costs_path = self.write_table(tmp_path, ["1.0,2.0,3.0"])
        costs_path.write_text(meta)
        with pytest.raises(ConfigError, match="cost_y must be a number and costs a list of numbers"):
            SampleTable.from_csv(csv_path, costs_path)

    def test_bootstrap_matches_source_marginals(self):
        src = ishigami_suite("perfect")
        y, x = src.draw(np.random.default_rng(11), 100_000)
        suite = table_suite(SampleTable(y=y, x=x, cost_y=src.cost_y, costs=src.costs))
        yb, xb = suite.draw(np.random.default_rng(12), 100_000)
        assert np.mean(yb) == pytest.approx(np.mean(y), abs=0.05)
        assert np.std(yb) == pytest.approx(np.std(y), rel=0.02)
        assert np.corrcoef(yb, xb[:, 0])[0, 1] == pytest.approx(
            np.corrcoef(y, x[:, 0])[0, 1], abs=0.002
        )


def _parse_outcome(fn, *args):
    """(y, x) as bit patterns, or the exception's type and message."""
    try:
        y, x = fn(*args)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)
    assert y.flags.c_contiguous and x.flags.c_contiguous
    return y.shape, x.shape, y.view(np.uint64).tolist(), x.view(np.uint64).tolist()


class TestTableFastPath:
    """numpy's reader is the table's one parser.  A file the grammar accepts
    must read as ``oracles.table_rows_line_loop`` reads it, bit for bit, in
    one ``np.loadtxt`` call; any other file ends in an error naming its
    first bad line."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        """The first argument of each ``np.loadtxt`` call ``from_csv`` makes:
        one call for a table it accepts."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return loadtxt(*args, **kwargs)

        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", counting)
        return calls

    @staticmethod
    def both(tmp_path, text, n=2):
        csv_path, costs_path = tmp_path / "t.csv", tmp_path / "t.json"
        csv_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        costs_path.write_text(json.dumps({"cost_y": 1.0, "costs": [0.5] * n}))

        def from_csv():
            table = SampleTable.from_csv(csv_path, costs_path)
            return table.y, table.x

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _parse_outcome(from_csv)
        return fast, _parse_outcome(table_rows_line_loop, csv_path, n)

    @pytest.mark.parametrize(
        "after_header, expected",
        [
            ("\n1,2,3\n\n4,5,6\n", "line 3: blank line"),
            ("\n1,2,3\n4,5,6\n\n", "line 4: blank line"),
            ("\n\n\n", "line 2: blank line"),
            ("\n1,2,3\n \t \n4,5,6\n", "line 3: expected 3 fields, got 1"),
            ("\n1,2,3,4\n5,6,7,8\n", "line 2: expected 3 fields, got 4"),
            ("\n1,2\n3,4\n", "line 2: expected 3 fields, got 2"),
            ("\n1,2,3\r4,5,6\n\n", "line 4: blank line"),
            ("\n1,2,3\x1c\n", "line 2: byte 0x1c is an ASCII separator, which no table holds"),
            ("\n1,2,3\n4,5,6\x1f", "line 3: byte 0x1f is an ASCII separator, which no table holds"),
            ('\n"1.5",2,3\n4,"5e0",6\n', "line 2: could not convert string to float: '\"1.5\"'"),
            ("\n1_0,2,3\n", "line 2: could not convert string to float: '1_0'"),
            ("\n1,١٢,3\n", "line 2: could not convert string to float: '١٢'"),
            ("\r1,2,3\r4,5,6\r", None),
            ("\r\n1,2,3\r\n4,5,6\r\n", None),
            ("\n1,2,3\n4,5,6", None),
            ('\n"1\n",2,3\n1,2,x\n', "line 2: expected 3 fields, got 1"),
            ("\n1,2,3\n4,nan,6\n", "line 3: column x1 is nan, not a finite number"),
            ("\n1,2,3\n4,5,1e400\n", "line 3: column x2 is inf, not a finite number"),
            ("\n-Infinity,2,-nan\n", "line 2: column y is -inf, not a finite number"),
            ('\n1,2,3\n4,5,6\nNaN,inf,"6"\n', "line 4: could not convert string to float: '\"6\"'"),
            ('\n1,2,3\n4,+inf,6\n\n"1",2,3\n', "line 3: column x1 is inf, not a finite number"),
            ("\n \t \n1,2,3\n", "line 2: expected 3 fields, got 1"),
            ("\n1,2\n3,4,5\n", "line 2: expected 3 fields, got 2"),
            ("\n1,2,3\n4,,6\n", "line 3: could not convert string to float: ''"),
            ("\n1,2,3\n\n4,x,6\n", "line 3: blank line"),
            ("\n1,2,3\n4,x,6\n\n", "line 3: could not convert string to float: 'x'"),
            ("\n1,2,3\n4,nan,6\n5,x,6\n", "line 3: column x1 is nan, not a finite number"),
            ("\n1,2,3\n\n4,5\n", "line 3: blank line"),
            ("\n1,2,3\n4,5,6\x1f\n\n", "line 3: byte 0x1f is an ASCII separator, which no table holds"),
            ("\n1,2,3\n\n4,5,6\x1f\n", "line 3: blank line"),
            ("\n1,2,3\r\n\r\n4,5,6\r\n", "line 3: blank line"),
        ],
        ids=[
            "blank-middle", "blank-end", "blank-only", "whitespace-line", "too-wide",
            "too-narrow", "cr-then-blank", "separator-byte", "separator-byte-last",
            "quoted", "underscore", "arabic-digits", "cr", "crlf", "no-final-newline",
            "after-quoted-newline", "nan", "overflow", "first-non-finite", "nan-quoted",
            "inf-quoted", "whitespace-first-row", "wide-first-row", "empty-field",
            "blank-before-malformed", "malformed-before-blank", "blank-before-narrow",
            "nan-before-malformed", "separator-before-blank", "blank-before-separator",
            "crlf-blank",
        ],
    )
    def test_traps_read_as_the_line_loop(self, tmp_path, after_header, expected):
        fast, loop = self.both(tmp_path, "y,x1,x2" + after_header)
        if expected is None:
            assert fast == loop and fast[1] == (fast[0][0], 2)
        else:
            assert fast == (TableParseError, f"{tmp_path / 't.csv'}: {expected}")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_blank_line_across_a_chunk_edge(self, tmp_path, newline):
        # the blank line's end is the first byte of the scan's second 1 MiB chunk
        head, row = "y,x1,x2" + newline, "0.25,0.5,0.75" + newline
        rows = ((1 << 20) - len(head)) // len(row) - 1
        last = "0" * ((1 << 20) - len(head) - (rows + 1) * len(row)) + row
        fast, _ = self.both(tmp_path, head + row * rows + last + newline + row)
        assert fast == (TableParseError, f"{tmp_path / 't.csv'}: line {rows + 3}: blank line")

    # (line, whether a table may hold it): each kind of line the grammar refuses
    LINES = [(b"1.5, -2e-3 ,+.5", True), (b"0,\t7\t,1e-400", True), (b"", False), (b" ", False),
             (b"1,2,3\x1c", False), (b"1,2", False), (b"1,2,3,4", False), (b'"1",2,3', False),
             (b"1_0,2,3", False), ("1,\u0661,3".encode(), False), (b"1,,3", False),
             (b"nan,2,3", False), (b"1,1e400,3", False), (b"1,\xff2,3", False)]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.sampled_from(LINES), min_size=1, max_size=8),
           newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
    def test_error_names_the_first_bad_line(self, tmp_path, lines, newline):
        # numpy decodes a path a chunk ahead of the row it reads, so a byte
        # that is not UTF-8 can refuse the read before an earlier bad line
        fast, _ = self.both(tmp_path, b"".join(text + newline for text, _ in [(b"y,x1,x2", True), *lines]))
        bad = [line for line, (_, good) in enumerate(lines, start=2) if not good]
        if bad:
            assert fast[0] is TableParseError and f"t.csv: line {bad[0]}: " in fast[1], fast
        else:
            assert fast[1] == (len(lines), 2)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=3, max_size=3), min_size=1, max_size=20))
    def test_repr_of_finite_floats_reads_back_bit_for_bit(self, tmp_path, rows):
        text = "y,x1,x2\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        (tmp_path / "t.csv").write_text(text, encoding="utf-8")
        (tmp_path / "t.json").write_text(json.dumps({"cost_y": 1.0, "costs": [0.5, 0.5]}))
        table = SampleTable.from_csv(tmp_path / "t.csv", tmp_path / "t.json")
        read = np.column_stack([table.y, table.x])
        assert read.view(np.uint64).tolist() == np.array(rows).view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("after_header", ["", "\n"], ids=["no-newline", "newline"])
    def test_header_only(self, tmp_path, n, after_header):
        # numpy reads no rows from it as (0, 1), a valid shape when n = 0
        header = ",".join(["y"] + [f"x{i}" for i in range(1, n + 1)])
        fast, _ = self.both(tmp_path, header + after_header, n=n)
        assert fast == (TableParseError, f"{tmp_path / 't.csv'}: table has a header but no data rows")

    @pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_plain_files_take_numpy(self, tmp_path, loadtxt_calls, newline, final):
        # the file's 1 MiB read chunks end between the \r and \n of a row
        row = "0.25,0.5,0.75" + newline
        rows = ((1 << 20) - len("y,x1,x2" + newline)) // len(row) + 2
        body = row * rows if final else (row * rows).removesuffix(newline)
        fast, loop = self.both(tmp_path, "y,x1,x2" + newline + body)
        assert fast == loop and fast[1] == (rows, 2)
        # numpy reads a path in chunks but a file object line by line
        assert loadtxt_calls == [str(tmp_path / "t.csv")]

    def test_random_spellings_bit_for_bit(self, tmp_path, loadtxt_calls):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**63, size=600, dtype=np.uint64) * np.uint64(2)
        bits += rng.integers(0, 2, size=600, dtype=np.uint64)
        wide = rng.standard_normal(600) * 10.0 ** rng.integers(-320, 309, size=600)
        values = np.concatenate([bits.view(np.float64), wide]).tolist()
        fields = [repr(v) for v in values] + ["%.17g" % v for v in values]
        fields += [
            "1e-400", "-0.0", "0.0", "4.9e-324", "2.4703282292062328e-324",
            "2.2250738585072009e-308", "1.7976931348623157e308", "1E+05", ".5", "5.",
            "+1", "000012",
        ]
        pads = ["", " ", "\t", "  \t "]
        rows = rng.choice(len(fields), size=(3000, 3))
        padding = rng.choice(len(pads), size=(3000, 3, 2))
        body = "".join(
            ",".join(pads[p[0]] + fields[f] + pads[p[1]] for f, p in zip(row, pad)) + "\n"
            for row, pad in zip(rows, padding)
        )
        fast, loop = self.both(tmp_path, "y,x1,x2\n" + body)
        assert fast == loop
        assert fast[1] == (3000, 2)
        assert len(loadtxt_calls) == 1

    def test_peak_is_at_most_three_floats_a_value(self, tmp_path):
        rows, n = 200_000, 2
        rng = np.random.default_rng(3)
        table = SampleTable(
            y=rng.standard_normal(rows), x=rng.standard_normal((rows, n)),
            cost_y=1.0, costs=(0.5,) * n,
        )
        write_table(table, tmp_path / "m.csv", tmp_path / "m.json")
        with traced_peak() as traced:
            loaded = SampleTable.from_csv(tmp_path / "m.csv", tmp_path / "m.json")
        assert np.array_equal(loaded.x, table.x)
        values = rows * (n + 1)
        assert traced.peak <= 3 * 8 * values + (1 << 20), traced.peak / (8 * values)


class TestSuiteFromConfig:
    def test_named_suite_with_overrides(self):
        suite = suite_from_config(
            {"name": "ishigami-perfect", "a": 5, "b": 0.1, "c": 1, "d": 0.1,
             "costs": [0.05, 0.001], "expansion": "L"}
        )
        assert suite.n == 2
        assert len(suite.feature_map.extra) == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown suite config keys"):
            suite_from_config({"name": "ishigami-perfect", "gamma": 2})

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown suite name"):
            suite_from_config({"name": "borehole"})

    def test_table_config(self, tmp_path):
        table = SampleTable(
            y=np.array([1.0, 2.0]), x=np.array([[0.0], [1.0]]), cost_y=1.0, costs=(0.1,)
        )
        write_table(table, tmp_path / "d.csv", tmp_path / "d.json")
        suite = suite_from_config(
            {"name": "table", "path": str(tmp_path / "d.csv"),
             "costs_path": str(tmp_path / "d.json")}
        )
        assert suite.n == 1 and suite.cost_y == 1.0
