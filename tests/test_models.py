import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

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

from oracles import ishigami_terms_float_powers


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
            sampler=lambda r, n, models: (np.zeros(n - 1), np.zeros((n, 1))),
        )
        _, x = suite.draw(np.random.default_rng(0), 4, (1,))
        assert x.shape == (4, 1)
        with pytest.raises(ValueError, match="shape"):
            suite.draw(np.random.default_rng(0), 4)


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


class TestDrawMemory:
    """A draw holds the (size, 5) uniforms, x and three scratch rows at most."""

    ROWS = 100_000

    @pytest.mark.parametrize("variant", ["perfect", "approx"])
    def test_peak_is_at_most_ten_floats_a_row(self, variant):
        suite = ishigami_suite(variant)
        for models in [(0,)] + all_subsets(suite.n) + [(0, 1, 2)]:
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                suite.draw(rng, self.ROWS, models)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 10 * 8 * self.ROWS + 64 * 1024, (models, peak / (8 * self.ROWS))


class TestFeatureExpansion:
    def test_cubic_terms_for_single_model(self):
        suite = expanded_suite(ishigami_suite("perfect"), "L")
        assert suite.feature_map.terms((1,)) == [((1, 1),), ((1, 2),), ((1, 3),)]

    def test_quadratic_interactions_full_subset(self):
        fm = quadratic_interaction_expansion(3)
        assert len(fm.terms((1, 2, 3))) == 9
        assert len(fm.terms((1, 2))) == 5
        assert len(fm.terms((2,))) == 2

    def test_feature_values(self):
        fm = quadratic_interaction_expansion(2)
        x = np.array([[2.0, 3.0]])
        feats = fm.build((1, 2), x)
        assert feats.tolist() == [[2.0, 3.0, 4.0, 9.0, 6.0]]

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
        table.to_csv(tmp_path / "r.csv", tmp_path / "r.json")
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

    def test_wrong_field_count_names_line(self, tmp_path):
        paths = self.write_table(tmp_path, ["1.0,2.0"])
        with pytest.raises(TableParseError, match="line 2"):
            SampleTable.from_csv(*paths)

    def test_bad_header(self, tmp_path):
        paths = self.write_table(tmp_path, ["1.0,2.0,3.0"], header="y,a,b")
        with pytest.raises(TableParseError, match="line 1"):
            SampleTable.from_csv(*paths)

    def test_empty_table(self, tmp_path):
        paths = self.write_table(tmp_path, [])
        with pytest.raises(TableParseError, match="no data rows"):
            SampleTable.from_csv(*paths)

    def test_bootstrap_matches_source_marginals(self):
        src = ishigami_suite("perfect")
        y, x = src.draw(np.random.default_rng(11), 100_000)
        suite = table_suite(
            SampleTable(y=y, x=x, cost_y=src.cost_y, costs=src.costs), name="boot"
        )
        yb, xb = suite.draw(np.random.default_rng(12), 100_000)
        assert np.mean(yb) == pytest.approx(np.mean(y), abs=0.05)
        assert np.std(yb) == pytest.approx(np.std(y), rel=0.02)
        assert np.corrcoef(yb, xb[:, 0])[0, 1] == pytest.approx(
            np.corrcoef(y, x[:, 0])[0, 1], abs=0.002
        )


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
        table.to_csv(tmp_path / "d.csv", tmp_path / "d.json")
        suite = suite_from_config(
            {"name": "table", "path": str(tmp_path / "d.csv"),
             "costs_path": str(tmp_path / "d.json")}
        )
        assert suite.n == 1 and suite.cost_y == 1.0
