import csv
import hashlib
import json
import os
import re
import resource
import warnings

import numpy as np
import pytest

from mfdist.bench import (
    RESULT_COLUMNS,
    ExperimentConfig,
    build_oracle_measure,
    fit_tradeoff_curve,
    nearest_rank_quantile,
    results_csv_text,
    run_ecdf_y,
    run_experiment,
    run_fixed_m,
    run_statistics_comparison,
    summarize_rows,
    write_results_csv,
    write_summary_csv,
)
from mfdist.cli import main as cli_main
from mfdist.errors import (
    BudgetExhaustedError,
    ConfigError,
    InfeasibleExploitationError,
    MfdistError,
    QuantileSolverError,
)
from mfdist.models import _BLOCK_ROWS, SampleTable, ishigami_suite
from mfdist.regress import quantile_fit

from oracles import traced_peak, write_table

PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def fake_address_space_limit(monkeypatch, soft) -> None:
    """Make ``resource.getrlimit`` report ``soft`` as the RLIMIT_AS soft
    limit; no real limit is set."""
    real = resource.getrlimit
    monkeypatch.setattr(
        resource, "getrlimit",
        lambda which: (soft, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS else real(which),
    )


def small_config(**overrides) -> ExperimentConfig:
    raw = {
        "suite": {"name": "ishigami-perfect"},
        "methods": ["ecdf-y", "aetc-d"],
        "budgets": [60.0, 200.0],
        "replicates": 3,
        "eval_samples": 50,
        "oracle_samples": 20_000,
        "seed": 99,
        "eval": "full",
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                 "budgets": [10], "verbose": True}
            )

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig.from_dict({"methods": ["ecdf-y"], "budgets": [10]})

    def test_budgets_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            small_config(budgets=[100.0, 100.0])

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            small_config(methods=["aetc"])

    def test_fixed_m_needs_subset(self):
        with pytest.raises(ConfigError, match="fixed_subset"):
            small_config(methods=["fixed-m:20"])
        cfg = small_config(methods=["fixed-m:20"], fixed_subset=[1])
        assert cfg.fixed_subset == (1,)

    def test_eval_mode_values(self):
        with pytest.raises(ConfigError, match="eval"):
            small_config(eval="both")


class TestEcdfY:
    def test_single_atom_at_minimal_budget(self):
        suite = ishigami_suite("perfect")
        est = run_ecdf_y(suite, 1.0, np.random.default_rng(0))
        assert est.size == 1

    def test_floor_division(self):
        suite = ishigami_suite("perfect")
        est = run_ecdf_y(suite, 1000.0, np.random.default_rng(1))
        assert est.size == 1000
        est = run_ecdf_y(suite, 999.9, np.random.default_rng(1))
        assert est.size == 999

    def test_infeasible(self):
        with pytest.raises(BudgetExhaustedError):
            run_ecdf_y(ishigami_suite("perfect"), 0.5, np.random.default_rng(2))


class TestRunFixedM:
    def test_minimal_feasible(self):
        suite = ishigami_suite("perfect")
        est, state = run_fixed_m(suite, 10.0, 3, (1,), np.random.default_rng(3))
        assert est.size >= 1
        assert state.spent <= 10.0

    def test_rate_below_minimum(self):
        with pytest.raises(ConfigError):
            run_fixed_m(ishigami_suite("perfect"), 100.0, 2, (1,), np.random.default_rng(4))

    def test_budget_too_small(self):
        with pytest.raises(BudgetExhaustedError):
            run_fixed_m(ishigami_suite("perfect"), 5.0, 10, (1,), np.random.default_rng(5))

    def test_exact_fit_budget(self):
        # B = m * c_epr + c_ept(S) = 4 * 1.75 + 0.5: the ledger affords the one draw
        suite = ishigami_suite("perfect", cost_y=1.0, costs=(0.5, 0.25))
        est, state = run_fixed_m(suite, 7.5, 4, (1,), np.random.default_rng(6))
        assert est.size == 1 and state.spent == 7.5

    def test_no_exploitation_draw_fits(self):
        # the m rounds fit but no draw of S does: tagged as aetc-d's would be
        suite = ishigami_suite("perfect", cost_y=1.0, costs=(0.5, 0.25))
        with pytest.raises(InfeasibleExploitationError):
            run_fixed_m(suite, 7.4, 4, (1,), np.random.default_rng(6))


class TestRunExperiment:
    def test_single_row(self):
        cfg = small_config(methods=["ecdf-y"], budgets=[60.0], replicates=1)
        rows, summary = run_experiment(cfg)
        assert len(rows) == 1
        assert len(summary) == 1
        assert rows[0].w1_error >= 0.0
        assert rows[0].spend <= 60.0

    def test_row_and_summary_consistency(self):
        cfg = small_config()
        rows, summary = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 3
        for rec in summary:
            cell = [
                r.w1_error for r in rows
                if r.method == rec["method"] and r.budget == rec["budget"] and not r.failed
            ]
            assert rec["mean"] == pytest.approx(np.mean(cell), abs=1e-12)
            assert rec["q50"] == nearest_rank_quantile(np.array(cell), 0.5)

    def test_reproducible_csv(self):
        cfg = small_config()
        rows1, _ = run_experiment(cfg)
        rows2, _ = run_experiment(cfg)
        assert results_csv_text(rows1) == results_csv_text(rows2)

    def test_threads_do_not_change_results(self):
        cfg = small_config(replicates=4)
        rows1, _ = run_experiment(cfg, threads=1)
        rows4, _ = run_experiment(cfg, threads=4)
        assert results_csv_text(rows1) == results_csv_text(rows4)

    def test_replicates_use_distinct_streams(self):
        cfg = small_config(methods=["ecdf-y"], budgets=[60.0], replicates=4)
        rows, _ = run_experiment(cfg)
        errors = [r.w1_error for r in rows]
        assert len(set(errors)) == len(errors)

    def test_failures_are_tagged_not_dropped(self):
        # budget below one exploration round: aetc-d fails, ecdf-y succeeds
        cfg = small_config(methods=["ecdf-y", "aetc-d"], budgets=[2.0], replicates=2)
        rows, summary = run_experiment(cfg)
        by_method = {rec["method"]: rec for rec in summary}
        assert by_method["aetc-d"]["failures"] == 2
        assert by_method["ecdf-y"]["failures"] == 0
        failed = [r for r in rows if r.failed]
        assert len(failed) == 2
        assert all("BudgetExhaustedError" in r.error for r in failed)

    def test_ledger_leaves_less_than_one_exploitation_draw(self):
        # a floor of (B - spent) / c_ept alone left one c_ept unspent in the
        # aetc-d cell at B = 60, replicate 2, and in every fixed-m:4 cell at B = 20
        cfg = ExperimentConfig.from_dict({
            "suite": {"name": "ishigami-approx"}, "methods": ["aetc-d", "fixed-m:4"],
            "fixed_subset": [2], "budgets": [20.0, 60.0, 200.0], "replicates": 4,
            "eval_samples": 20, "oracle_samples": 1000, "seed": 0,
        })
        rows, _ = run_experiment(cfg)
        suite = cfg.build_suite()
        assert len(rows) == 24 and not any(r.failed for r in rows)
        for r in rows:
            assert 0.0 <= r.budget - r.spend < suite.c_ept(r.subset), r.run_id()

    def test_numerical_failures_are_tagged_on_their_cell(self, monkeypatch):
        # the pinball fit of one aetc-d-q replicate fails; the run completes
        # and the failure stays on that row
        import mfdist.policy

        fits = []

        def failing_second_fit(Z, y, taus):
            fits.append(len(y))
            if len(fits) == 2:
                raise QuantileSolverError("injected failure")
            return quantile_fit(Z, y, taus)

        monkeypatch.setattr(mfdist.policy, "quantile_fit", failing_second_fit)
        raw = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["aetc-d", "aetc-d-q"],
            "budgets": [1000],
            "replicates": 3,
            "seed": 0,
            "eval": "full",
            "oracle_samples": 10000,
        }
        rows, summary = run_experiment(ExperimentConfig.from_dict(raw))
        failed = [r for r in rows if r.failed]
        assert failed and all(r.method == "aetc-d-q" for r in failed)
        assert [r.replicate for r in failed] == [1]
        assert all(r.error.startswith("QuantileSolverError: ") for r in failed)
        assert all(np.isnan(r.w1_error) for r in failed)
        by_method = {rec["method"]: rec for rec in summary}
        assert by_method["aetc-d-q"]["failures"] == len(failed)
        assert by_method["aetc-d"]["failures"] == 0
        # the aetc-d cells keep their streams and results
        alone, _ = run_experiment(ExperimentConfig.from_dict(dict(raw, methods=["aetc-d"])))
        assert results_csv_text([r for r in rows if r.method == "aetc-d"]) == results_csv_text(alone)

    def test_sampled_eval_mode(self):
        cfg = small_config(eval="sampled", methods=["ecdf-y"], budgets=[200.0], replicates=2)
        rows, _ = run_experiment(cfg)
        # evaluation noise dominates: errors sit near the 50-draw ECDF floor
        assert all(0.1 <= r.w1_error <= 2.0 for r in rows)

    def test_spend_never_exceeds_budget(self):
        cfg = small_config(replicates=4)
        rows, _ = run_experiment(cfg)
        for r in rows:
            if not r.failed:
                assert r.spend <= r.budget + 1e-9

    def test_ecdf_y_never_overdraws(self):
        # floor(55.4 / 0.2) is 277, but 277 * 0.2 is 55.400000000000006
        cfg = small_config(suite={"name": "ishigami-perfect", "cost_y": 0.2},
                           methods=["ecdf-y"], budgets=[55.4], replicates=1)
        rows, _ = run_experiment(cfg)
        assert rows[0].spend == 276 * 0.2 <= 55.4

    def test_aetc_rows_record_choice_and_trace(self):
        cfg = small_config(methods=["aetc-d"], budgets=[200.0], replicates=1)
        rows, _ = run_experiment(cfg)
        assert rows[0].subset is not None
        assert rows[0].m_explore >= 4
        assert rows[0].trace


class TestTradeoffCurve:
    def test_noiseless_recovery(self):
        budget, c_epr = 1000.0, 1.0
        a1, a2 = 2.0, 3.0
        ms = np.array([10.0, 50.0, 120.0, 300.0, 600.0, 900.0])
        pts = [(m, a1 / np.sqrt(m) + a2 / np.sqrt(budget / c_epr - m)) for m in ms]
        fit = fit_tradeoff_curve(pts, budget, c_epr)
        assert fit[0] == pytest.approx(a1, abs=1e-8)
        assert fit[1] == pytest.approx(a2, abs=1e-8)
        assert fit[2] <= 1e-8

    def test_zero_second_coefficient(self):
        budget, c_epr = 1000.0, 1.0
        ms = np.array([10.0, 50.0, 120.0, 300.0])
        pts = [(m, 2.0 / np.sqrt(m)) for m in ms]
        fit = fit_tradeoff_curve(pts, budget, c_epr)
        assert fit[1] == pytest.approx(0.0, abs=1e-9)

    def test_negative_coefficient_clipped_with_warning(self):
        budget, c_epr = 1000.0, 1.0
        ms = np.array([10.0, 50.0, 120.0, 300.0])
        pts = [(m, 2.0 / np.sqrt(m) - 0.5 / np.sqrt(budget / c_epr - m)) for m in ms]
        with pytest.warns(UserWarning, match="clipping"):
            fit = fit_tradeoff_curve(pts, budget, c_epr)
        assert fit[1] == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_tradeoff_curve([(10.0, 1.0), (20.0, 0.5)], 100.0, 1.0)

    def test_degenerate_basis(self):
        pts = [(10.0, 1.0), (10.0, 0.9), (10.0, 1.1)]
        with pytest.raises(ValueError, match="degenerate"):
            fit_tradeoff_curve(pts, 100.0, 1.0)

    def test_rates_outside_domain(self):
        with pytest.raises(ValueError):
            fit_tradeoff_curve([(10.0, 1.0), (50.0, 0.5), (120.0, 0.4)], 100.0, 1.0)


class TestStatisticsComparison:
    def test_oracle_passthrough_has_zero_mse(self):
        cfg = small_config(methods=["oracle", "ecdf-y"], budgets=[60.0], replicates=2)
        table = run_statistics_comparison(cfg)
        by_method = {rec["method"]: rec for rec in table}
        for stat in ("mean", "variance", "skewness", "kurtosis"):
            assert by_method["oracle"][f"mse_{stat}"] == 0.0
            assert by_method["ecdf-y"][f"mse_{stat}"] > 0.0

    def test_stats_parses_a_table_once(self, tmp_path, monkeypatch):
        from mfdist.models import SampleTable

        y, x = ishigami_suite("perfect").draw(np.random.default_rng(8), 2_000)
        table = SampleTable(y=y, x=x, cost_y=1.0, costs=(0.05, 0.001))
        write_table(table, tmp_path / "table.csv", tmp_path / "costs.json")
        parse = SampleTable.from_csv.__func__
        calls = []

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return parse(cls, *args, **kwargs)

        monkeypatch.setattr(SampleTable, "from_csv", classmethod(counting))
        config = {
            "suite": {
                "name": "table",
                "path": str(tmp_path / "table.csv"),
                "costs_path": str(tmp_path / "costs.json"),
            },
            "methods": ["ecdf-y"],
            "budgets": [60.0],
            "replicates": 2,
            "oracle_samples": 1_000,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main(["stats", "--config", str(cfg_path), "--out", str(tmp_path / "st")])
        assert rc == 0
        assert len(calls) == 1


class TestOutputsAndCli:
    def test_csv_files(self, tmp_path):
        cfg = small_config(methods=["ecdf-y"], budgets=[60.0], replicates=2)
        rows, summary = run_experiment(cfg)
        write_results_csv(rows, tmp_path / "results.csv")
        write_summary_csv(summary, tmp_path / "summary.csv")
        with open(tmp_path / "results.csv", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert float(parsed[0]["w1_error"]) == rows[0].w1_error
        with open(tmp_path / "summary.csv", newline="") as fh:
            srows = list(csv.DictReader(fh))
        assert srows[0]["failures"] == "0"

    def test_cli_run_and_outputs(self, tmp_path):
        config = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["ecdf-y", "aetc-d"],
            "budgets": [60.0],
            "replicates": 2,
            "eval_samples": 20,
            "oracle_samples": 5000,
            "seed": 5,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--eval", "full", "--dump-samples",
        ])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        traces = list((out / "trace").glob("*.jsonl"))
        assert len(traces) == 2  # one per aetc-d replicate
        rec = json.loads(traces[0].read_text().splitlines()[0])
        assert set(rec) == {"t", "spend", "scores", "chosen"}
        assert list((out / "samples").glob("*.csv"))

    def test_cli_fixed_m_and_fit_curve(self, tmp_path, capsys):
        config = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["ecdf-y"],
            "budgets": [200.0],
            "replicates": 3,
            "eval_samples": 20,
            "oracle_samples": 20000,
            "seed": 6,
            "eval": "full",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([
            "fixed-m", "--config", str(cfg_path), "--m-grid", "5,20,60,120",
            "--subset", "1", "--out", str(tmp_path / "fm"),
        ])
        assert rc == 0
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect"}))
        capsys.readouterr()
        rc = cli_main([
            "fit-curve", "--in", str(tmp_path / "fm" / "results.csv"),
            "--suite", str(suite_path),
        ])
        assert rc == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == (
            "5392d1910e805fdb5f524b2bac5c14883fde81022c81a071ca66f7f184bdf38b"
        )

    def test_cli_oracle(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect"}))
        rc = cli_main(["oracle", "--suite", str(suite_path), "--pilot", "20000"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["S_opt"] == [1]
        assert 150 <= report["m_star_opt"] <= 230

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--pilot", "0"], "--pilot must be >= 1, got 0"),
            (["--pilot", "-1"], "--pilot must be >= 1, got -1"),
            (["--budget", "-5"], "--budget must be positive and finite, got -5.0"),
            (["--budget", "nan"], "--budget must be positive and finite, got nan"),
            (["--budget", "inf"], "--budget must be positive and finite, got inf"),
            # unchecked, numpy refused the 24 TB joint draw with a traceback
            (["--pilot", str(10**12)],
             f"--pilot must fit in the {PHYSICAL_MEMORY:.3g} bytes of physical memory as "
             f"12 float64 values a row, got {10**12}"),
        ],
        ids=["seed-negative", "pilot-zero", "pilot-negative", "budget-negative",
             "budget-nan", "budget-inf", "pilot-past-memory"],
    )
    def test_cli_oracle_rejects_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                flags, message):
        import mfdist.cli

        fake_address_space_limit(monkeypatch, resource.RLIM_INFINITY)
        monkeypatch.setattr(mfdist.cli, "pilot_statistics", lambda *a: pytest.fail("drew"))
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect"}))
        argv = ["oracle", "--suite", str(suite_path), "--pilot", "100", *flags]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "spec, floats",
        [({"name": "ishigami-perfect"}, 12),
         ({"name": "ishigami-approx", "expansion": "L"}, 20)],
        ids=["perfect", "approx-L"],
    )
    def test_cli_oracle_pilot_bound_is_the_pilot_peak(self, tmp_path, capsys, monkeypatch,
                                                      spec, floats):
        # pilot_statistics peaks at 10.4 float64 values a row on
        # ishigami-perfect and 16.9 with the L expansion, 3.5 and 5.6 times
        # the joint draw that alone bounded --pilot
        import mfdist.cli

        def reached(*args):
            raise MfdistError("reached the pilot draw")

        fake_address_space_limit(monkeypatch, resource.RLIM_INFINITY)
        monkeypatch.setattr(mfdist.cli, "pilot_statistics", reached)
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(spec))
        limit = PHYSICAL_MEMORY // (8 * floats)
        for pilot, err in [
            (limit, "error: reached the pilot draw\n"),
            (limit + 1, f"error: --pilot must fit in the {PHYSICAL_MEMORY:.3g} bytes of physical "
                        f"memory as {floats} float64 values a row, got {limit + 1}\n"),
        ]:
            assert cli_main(["oracle", "--suite", str(suite_path), "--pilot", str(pilot)]) == 2
            assert capsys.readouterr().err == err

    def test_cli_oracle_rejects_an_overflowing_pilot(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect", "a": 1e308, "b": 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["oracle", "--suite", str(suite_path), "--pilot", "100"]) == 2
        captured = capsys.readouterr()
        message = ("Ishigami parameters must be finite, got a=1e+308, b=1e+308, c=1.0, d=0.1, "
                   "and keep their draws' range [-inf, inf] off float64's limit")
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_cli_oracle_rejects_a_constant_y(self, tmp_path, capsys):
        from mfdist.models import SampleTable

        _, x = ishigami_suite("perfect").draw(np.random.default_rng(2), 20)
        table = SampleTable(y=np.full(20, 3.0), x=x, cost_y=1.0, costs=(0.05, 0.001))
        write_table(table, tmp_path / "table.csv", tmp_path / "costs.json")
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "table", "path": str(tmp_path / "table.csv"),
                                          "costs_path": str(tmp_path / "costs.json")}))
        assert cli_main(["oracle", "--suite", str(suite_path), "--pilot", "100"]) == 2
        captured = capsys.readouterr()
        message = "J1(Y) = 0 on the 100-row pilot: Y takes one value, so every k2 is 0"
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_cli_error_paths(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"suite": {"name": "nope"}, "methods": ["ecdf-y"], "budgets": [1]}))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @staticmethod
    def _rejected(tmp_path, capsys, monkeypatch, config, *argv):
        import mfdist.bench

        monkeypatch.setattr(mfdist.bench, "_run_cell", lambda *a: pytest.fail("a cell ran"))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = argv or ("run",)
        rc = cli_main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "subset", [[1, 1], [2, 1], [3], [0], []],
        ids=["repeated", "unordered", "out-of-range", "zero", "empty"],
    )
    def test_malformed_fixed_subset_rejected(self, tmp_path, capsys, monkeypatch, subset):
        config = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["fixed-m:20"],
            "fixed_subset": subset,
            "budgets": [300.0],
            "oracle_samples": 1000,
        }
        with pytest.raises(ConfigError, match="fixed_subset"):
            ExperimentConfig.from_dict(config).build_suite()
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith("error: fixed_subset must list distinct model indices in 1..2")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"methods": ["aetc-d", "ecdf-y", "aetc-d"]},
             "methods must be distinct, got 'aetc-d' twice"),
            ({"methods": ["ecdf-y", "fixed-m:2"]}, "fixed exploration rate 2 is below the minimum 3"),
            ({"suite": {"name": "ishigami-approx", "path": "t.csv"}},
             "unknown suite config keys: ['path']"),
            # a string where a JSON array belongs would iterate as its characters
            ({"budgets": "19"}, "config key 'budgets' has an invalid value '19'"),
            ({"fixed_subset": "12"}, "config key 'fixed_subset' has an invalid value '12'"),
            ({"suite": {"name": "ishigami-perfect", "costs": "12"}},
             "suite config values must be numbers and 'costs' an array of them"),
            ({"suite": {"name": "ishigami-perfect", "expansion": ["L"]}},
             "unknown expansion ['L']; expected one of"),
            ({"suite": {"name": "ishigami-perfect", "expansion": 3}},
             "unknown expansion 3; expected one of"),
            ({"suite": {"name": "ishigami-perfect", "cost_y": "inf"}},
             "model costs must be positive and finite, got cost_y=inf"),
            ({"suite": {"name": "ishigami-perfect", "cost_y": "nan"}},
             "model costs must be positive and finite, got cost_y=nan"),
            ({"suite": {"name": "ishigami-perfect", "costs": [0.05, "-inf"]}},
             "model costs must be positive and finite, got cost_y=1.0 and costs=[0.05, -inf]"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"suite": {"name": "ishigami-perfect", "a": "nan"}},
             "Ishigami parameters must be finite, got a=nan, b=0.1, c=1.0, d=0.1"),
            ({"suite": {"name": "ishigami-approx", "b": "inf"}},
             "Ishigami parameters must be finite, got a=5.0, b=inf, c=0.0, d=0.0"),
            # unchecked, the first exploration draw raised a shape ValueError
            ({"suite": {"name": "ishigami-perfect", "costs": [0.05]}},
             "Ishigami costs need 2 entries, one per surrogate, got [0.05]"),
            ({"suite": {"name": "ishigami-approx", "costs": [0.05, 0.001, 0.01]}},
             "Ishigami costs need 2 entries, one per surrogate, got [0.05, 0.001, 0.01]"),
            # JSON booleans are not numbers; float() took true as 1.0
            ({"budgets": [True]}, "config key 'budgets' has an invalid value [True]"),
            *(({"suite": {"name": "ishigami-perfect", key: False}},
               "suite config values must be numbers and 'costs' an array of them")
              for key in ("a", "b", "c", "d", "cost_y")),
            ({"suite": {"name": "ishigami-perfect", "costs": [0.05, True]}},
             "suite config values must be numbers and 'costs' an array of them"),
        ],
        ids=["duplicate-methods", "fixed-m-below-minimum", "ishigami-path",
             "budgets-string", "fixed_subset-string", "suite-costs-string",
             "expansion-list", "expansion-int", "cost_y-inf", "cost_y-nan",
             "costs-negative-inf", "negative-seed", "ishigami-a-nan", "ishigami-b-inf",
             "ishigami-costs-short", "ishigami-costs-long", "budgets-bool",
             "ishigami-a-bool", "ishigami-b-bool", "ishigami-c-bool", "ishigami-d-bool",
             "cost_y-bool", "costs-bool"],
    )
    def test_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch, edit, message):
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                  "fixed_subset": [1], "budgets": [300.0], **edit}
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict(config).build_suite()
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["ecdf-y", "aetc-d"])
    def test_budget_past_array_length_rejected(self, tmp_path, capsys, monkeypatch, method):
        # 1e20 buys 1e23 draws of the 0.001-cost model; unchecked, ecdf-y
        # fails inside numpy and aetc-d doubles its exploration set until
        # memory runs out
        config = {"suite": {"name": "ishigami-approx"}, "methods": [method],
                  "budgets": [1e20], "replicates": 1, "oracle_samples": 1000}
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith("error: budget 1e+20 buys up to 1e+23 draws at cost 0.001, "
                              "more than an array can hold")
        assert err.count("\n") == 1

    def test_budget_at_array_length_limit(self):
        # unit costs: a budget B buys floor(B) draws, and an array holds at
        # most intp max = limit - 1 of them
        limit = float(np.iinfo(np.intp).max + 1)
        config = {"suite": {"name": "ishigami-perfect", "cost_y": 1.0, "costs": [1.0, 1.0]},
                  "methods": ["ecdf-y"]}
        ExperimentConfig.from_dict({**config, "budgets": [np.nextafter(limit, 0.0)]}).build_suite()
        with pytest.raises(ConfigError, match="more than an array can hold"):
            ExperimentConfig.from_dict({**config, "budgets": [limit]}).build_suite()

    @pytest.mark.parametrize(
        "argv",
        [("run", "--threads", "0"),
         ("fixed-m", "--m-grid", "20", "--subset", "1", "--threads", "-3"),
         ("stats", "--threads", "0")],
        ids=["run", "fixed-m", "stats"],
    )
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, argv):
        # unchecked, each ran serially and exited 0
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                  "budgets": [300.0], "replicates": 1, "oracle_samples": 1000}
        err = self._rejected(tmp_path, capsys, monkeypatch, config, *argv)
        assert err == f"error: --threads must be >= 1, got {argv[-1]}\n"

    @pytest.mark.parametrize("key", ["eval_samples", "oracle_samples"])
    def test_sample_count_past_memory_rejected(self, tmp_path, capsys, monkeypatch, key):
        # 10**12 float64 samples are 8 TB; unchecked, the oracle build or
        # each cell's evaluation asks numpy for all of them at once
        import mfdist.bench

        monkeypatch.setattr(mfdist.bench, "build_oracle_measure",
                            lambda *a: pytest.fail("the oracle was built"))
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                  "budgets": [300.0], "replicates": 1, key: 10**12}
        with traced_peak() as traced:
            err = self._rejected(tmp_path, capsys, monkeypatch, config)
        size = {"eval_samples": "13 float64 values a sample", "oracle_samples": "float64"}[key]
        assert err.startswith(f"error: {key} must be >= 1 and fit in the ")
        assert err.endswith(f"bytes of physical memory as {size}, got {10**12}\n")
        assert err.count("\n") == 1
        assert traced.peak < 2**20, traced.peak

    def test_sample_count_limit_is_physical_memory(self, monkeypatch):
        # a sampled evaluation holds 13 float64 values a sample at once, the oracle 1
        fake_address_space_limit(monkeypatch, resource.RLIM_INFINITY)
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"], "budgets": [300.0]}
        for key, floats in (("eval_samples", 13), ("oracle_samples", 1)):
            limit = PHYSICAL_MEMORY // (8 * floats)
            ExperimentConfig.from_dict({**config, key: limit})  # builds no array
            for count in (0, limit + 1):
                with pytest.raises(ConfigError, match=f"{key} must be >= 1 and fit in the "):
                    ExperimentConfig.from_dict({**config, key: count})

    def test_eval_samples_bound_counts_a_sampled_evaluation(self, tmp_path, capsys, monkeypatch):
        # the uniforms, the drawn points, their measure and W1's search arrays
        # peak at 12.2 float64 values a sample; bound by one array, a count
        # 13 times too large passed
        import mfdist.bench

        fake_address_space_limit(monkeypatch, resource.RLIM_INFINITY)
        monkeypatch.setattr(mfdist.bench, "build_oracle_measure",
                            lambda *a: pytest.fail("the oracle was built"))
        count = PHYSICAL_MEMORY // (8 * 13) + 1
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                  "budgets": [300.0], "replicates": 1, "eval_samples": count}
        with traced_peak() as traced:
            err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err == (f"error: eval_samples must be >= 1 and fit in the {PHYSICAL_MEMORY:.3g} "
                       f"bytes of physical memory as 13 float64 values a sample, got {count}\n")
        assert traced.peak < 2**20, traced.peak

    def test_address_space_limit_bounds_sample_counts(self, tmp_path, capsys, monkeypatch):
        # under `ulimit -v` a process can allocate less than physical memory;
        # unchecked, an oracle past the limit reached numpy's MemoryError
        import mfdist.bench

        limit = 64 * 2**20
        fake_address_space_limit(monkeypatch, limit)
        monkeypatch.setattr(mfdist.bench, "build_oracle_measure",
                            lambda *a: pytest.fail("the oracle was built"))
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"],
                  "budgets": [300.0], "replicates": 1}
        ExperimentConfig.from_dict({**config, "oracle_samples": limit // 8})  # builds no array
        with traced_peak() as traced:
            err = self._rejected(tmp_path, capsys, monkeypatch,
                                 {**config, "oracle_samples": limit // 8 + 1})
        assert err == (f"error: oracle_samples must be >= 1 and fit in the {limit:.3g} bytes of "
                       f"physical memory as float64, got {limit // 8 + 1}\n")
        assert traced.peak < 2**20, traced.peak

    def test_non_integer_config_field_rejected(self, tmp_path, capsys, monkeypatch):
        config = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["ecdf-y"],
            "budgets": [300.0],
            "replicates": "ten",
        }
        with pytest.raises(ConfigError, match="'replicates' has an invalid value 'ten'"):
            ExperimentConfig.from_dict(config)
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith("error: config key 'replicates'")

    @pytest.mark.parametrize(
        "key, value",
        [("replicates", 2.7), ("eval_samples", True), ("oracle_samples", 1000.5),
         ("seed", 0.5), ("seed", float("inf")), ("fixed_subset", [1.9])],
    )
    def test_fractional_integer_field_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        config = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["fixed-m:20"],
            "fixed_subset": [1],
            "budgets": [300.0],
            key: value,
        }
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith(f"error: config key {key!r} has an invalid value")
        # integral floats, as a JSON writer may emit them, keep working
        whole = ExperimentConfig.from_dict(dict(
            config, replicates=20.0, eval_samples=200.0, oracle_samples=1000.0,
            seed=3.0, fixed_subset=[1.0],
        ))
        assert (whole.replicates, whole.eval_samples, whole.oracle_samples, whole.seed,
                whole.fixed_subset) == (20, 200, 1000, 3, (1,))
        assert all(type(v) is int for v in (whole.replicates, whole.seed, *whole.fixed_subset))

    @pytest.mark.parametrize("budgets", [[float("nan")], [100.0, float("inf")]], ids=["nan", "inf"])
    def test_non_finite_budget_rejected(self, tmp_path, capsys, monkeypatch, budgets):
        # json writes and reads these as the bare words NaN and Infinity
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"], "budgets": budgets}
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith("error: budgets must be positive and finite")

    def test_missing_input_files_rejected(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect"}))
        costs_path = tmp_path / "costs.json"
        costs_path.write_text(json.dumps({"cost_y": 1.0, "costs": [0.05, 0.001]}))
        table_cfg = tmp_path / "table.json"
        table_cfg.write_text(json.dumps({
            "suite": {"name": "table", "path": str(tmp_path / "nosuch.csv"),
                      "costs_path": str(costs_path)},
            "methods": ["ecdf-y"], "budgets": [60.0],
        }))
        out = str(tmp_path / "o")
        for argv, name in [
            (["run", "--config", str(missing), "--out", out], missing),
            (["run", "--config", str(table_cfg), "--out", out], tmp_path / "nosuch.csv"),
            (["oracle", "--suite", str(missing), "--pilot", "100"], missing),
            (["fit-curve", "--in", str(tmp_path / "nosuch.csv"), "--suite", str(suite_path)],
             tmp_path / "nosuch.csv"),
        ]:
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(name) in err, err
        # library callers keep the Python exception
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(missing)

    @pytest.mark.parametrize(
        "bad_line, rows", [(3, 2), (3001, 5000)], ids=["first-chunk", "deep"]
    )
    def test_non_utf8_table_rejected(self, tmp_path, capsys, monkeypatch, bad_line, rows):
        # the decoder reads ahead of the line loop, so the error must name
        # the line of the bad byte, not the last line the loop finished
        lines = [b"y,x1"] + [b"1.0,2.0"] * rows
        lines[bad_line - 1] = b"3.0,\xff"
        table = tmp_path / "table.csv"
        table.write_bytes(b"\n".join(lines) + b"\n")
        costs_path = tmp_path / "costs.json"
        costs_path.write_text(json.dumps({"cost_y": 1.0, "costs": [0.05]}))
        config = {
            "suite": {"name": "table", "path": str(table), "costs_path": str(costs_path)},
            "methods": ["ecdf-y"],
            "budgets": [60.0],
        }
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err == f"error: {table}: line {bad_line}: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ((b",w1_error,", b",w1,"), "line 1: missing columns ['w1_error']"),
            ((b",0.25,", b",small,"), "line 3: could not convert string to float: 'small'"),
            ((b"fixed-m:20", b"fixed-m:\xff"), "line 3: byte 0xff is not UTF-8"),
            ((b",0.25,", b",nan,"), "line 3: column w1_error is nan, not a finite number"),
            ((b"fixed-m:20,200,", b"fixed-m:20,inf,"),
             "line 3: column budget is inf, not a finite number"),
            ((b"fixed-m:20", b"fixed-m:10"), "need at least 3 points to fit the curve, got 1"),
            ((b"fixed-m:20", b"fixed-m:30000"),
             "exploration rates must lie strictly inside (0, 190.29"),
        ],
        ids=["missing-column", "non-numeric", "not-utf8", "non-finite-error",
             "non-finite-budget", "too-few-rates", "rate-outside-domain"],
    )
    def test_malformed_fit_curve_input_rejected(self, tmp_path, capsys, edit, message):
        text = (
            ",".join(RESULT_COLUMNS).encode() + b"\n"
            b"fixed-m:10,200,0,1,0.5,1,10,200,0,1,0,3,\n"
            b"fixed-m:20,200,0,2,0.25,1,20,200,0,1,0,3,\n"
        )
        results = tmp_path / "results.csv"
        results.write_bytes(text.replace(*edit))
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"name": "ishigami-perfect"}))
        assert cli_main(["fit-curve", "--in", str(results), "--suite", str(suite_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: {message}")

    def test_non_string_method_rejected(self, tmp_path, capsys, monkeypatch):
        config = {"suite": {"name": "ishigami-perfect"}, "methods": [1], "budgets": [300.0]}
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith("error: methods must be strings, got 1")

    def test_malformed_config_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        for text, argv, message in [
            ("{bad", ["run"], "invalid JSON"),
            ("{bad", ["stats"], "invalid JSON"),
            ("[1, 2]", ["fixed-m", "--m-grid", "10", "--subset", "1"],
             "expected a JSON object, got list"),
        ]:
            cfg_path.write_text(text)
            rc = cli_main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "meta",
        ['{"costs": [0.05, 0.001]}', '{"cost_y": 1.0}', '[1.0, [0.05, 0.001]]',
         '{"cost_y": 1.0,', '{"cost_y": 1.0, "costs": [0.05, "cheap"]}',
         '{"cost_y": 1.0, "costs": "12"}'],
        ids=["no-cost_y", "no-costs", "not-an-object", "invalid-json", "non-numeric",
             "costs-string"],
    )
    def test_bad_cost_metadata_rejected(self, tmp_path, capsys, monkeypatch, meta):
        from mfdist.models import SampleTable

        y, x = ishigami_suite("perfect").draw(np.random.default_rng(2), 20)
        costs_path = tmp_path / "costs.json"
        table = SampleTable(y=y, x=x, cost_y=1.0, costs=(0.05, 0.001))
        write_table(table, tmp_path / "table.csv", costs_path)
        costs_path.write_text(meta)
        config = {
            "suite": {"name": "table", "path": str(tmp_path / "table.csv"),
                      "costs_path": str(costs_path)},
            "methods": ["ecdf-y"],
            "budgets": [60.0],
        }
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err.startswith(f"error: {costs_path}: ")

    @pytest.mark.parametrize(
        "meta, costs",
        [('{"cost_y": Infinity, "costs": [0.05, 0.001]}', "cost_y=inf and costs=[0.05, 0.001]"),
         ('{"cost_y": 1.0, "costs": [NaN, 0.001]}', "cost_y=1.0 and costs=[nan, 0.001]"),
         ('{"cost_y": 1.0, "costs": [0.05, 0]}', "cost_y=1.0 and costs=[0.05, 0.0]")],
        ids=["cost_y-inf", "costs-nan", "costs-zero"],
    )
    def test_table_cost_not_positive_and_finite_rejected(
        self, tmp_path, capsys, monkeypatch, meta, costs
    ):
        from mfdist.models import SampleTable

        y, x = ishigami_suite("perfect").draw(np.random.default_rng(2), 20)
        costs_path = tmp_path / "costs.json"
        table = SampleTable(y=y, x=x, cost_y=1.0, costs=(0.05, 0.001))
        write_table(table, tmp_path / "table.csv", costs_path)
        costs_path.write_text(meta)
        config = {
            "suite": {"name": "table", "path": str(tmp_path / "table.csv"),
                      "costs_path": str(costs_path)},
            "methods": ["ecdf-y"],
            "budgets": [60.0],
        }
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err == f"error: model costs must be positive and finite, got {costs}\n"

    @pytest.mark.parametrize(
        "line, column, value", [(3, "y", "nan"), (7, "x1", "inf")], ids=["y-nan", "x1-inf"]
    )
    def test_table_value_not_finite_rejected(
        self, tmp_path, capsys, monkeypatch, line, column, value
    ):
        from mfdist.models import SampleTable

        y, x = ishigami_suite("perfect").draw(np.random.default_rng(2), 20)
        table_path, costs_path = tmp_path / "table.csv", tmp_path / "costs.json"
        write_table(SampleTable(y=y, x=x, cost_y=1.0, costs=(0.05, 0.001)), table_path, costs_path)
        lines = table_path.read_text().splitlines()
        fields = lines[line - 1].split(",")
        fields[["y", "x1", "x2"].index(column)] = value
        lines[line - 1] = ",".join(fields)
        table_path.write_text("\n".join(lines) + "\n")
        config = {
            "suite": {"name": "table", "path": str(table_path), "costs_path": str(costs_path)},
            "methods": ["ecdf-y", "aetc-d"],
            "budgets": [60.0],
        }
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err == (
            f"error: {table_path}: line {line}: column {column} is {value}, not a finite number\n"
        )

    def test_overflowing_oracle_draw_rejected(self, tmp_path, capsys, monkeypatch):
        from mfdist.bench import build_oracle_measure

        config = {"suite": {"name": "ishigami-perfect", "a": 1e308, "b": 1e308},
                  "methods": ["ecdf-y"], "budgets": [300.0], "oracle_samples": 1000}
        message = ("Ishigami parameters must be finite, got a=1e+308, b=1e+308, c=1.0, d=0.1, "
                   "and keep their draws' range [-inf, inf] off float64's limit")
        parsed = ExperimentConfig.from_dict(config)
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_oracle_measure(parsed, parsed.build_suite())
        err = self._rejected(tmp_path, capsys, monkeypatch, config)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_ishigami_rejected_at_every_seed(self, tmp_path, capsys, monkeypatch,
                                                         seed):
        # the parameters alone decide it: unchecked, seeds 1 and 4 overflowed
        # the one-sample oracle draw, and the others a cell's exploration draw
        config = {"suite": {"name": "ishigami-perfect", "a": 1e308, "b": 1e307},
                  "methods": ["ecdf-y", "aetc-d"], "budgets": [300.0], "oracle_samples": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = self._rejected(tmp_path, capsys, monkeypatch, config, "run", "--seed", str(seed))
        assert err.startswith("error: Ishigami parameters must be finite, got a=1e+308, b=1e+307")
        assert err.count("\n") == 1

    OVERFLOW = "suite 'table+4feat': finite samples overflow the feature expansion"

    @staticmethod
    def _overflowing_table(tmp_path) -> dict:
        """A finite 50-row table whose `L` cubes overflow: X1, X2 ~ U(1e110, 2e110)."""
        x = np.random.default_rng(0).uniform(1e110, 2e110, size=(50, 2))
        table = SampleTable(y=x.sum(axis=1) * 1e-110, x=x, cost_y=1.0, costs=(0.05, 0.01))
        write_table(table, tmp_path / "t.csv", tmp_path / "costs.json")
        return {"name": "table", "path": str(tmp_path / "t.csv"),
                "costs_path": str(tmp_path / "costs.json"), "expansion": "L"}

    def test_overflowing_table_expansion_fails_its_cell(self, tmp_path, capsys):
        config = {"suite": self._overflowing_table(tmp_path), "methods": ["aetc-d"],
                  "budgets": [100.0], "replicates": 1, "oracle_samples": 1000}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["error"] for row in rows] == [f"PolicyError: {self.OVERFLOW}"]
        assert capsys.readouterr().err == ""  # and no RuntimeWarning

    def test_overflowing_table_expansion_oracle_rejected(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(self._overflowing_table(tmp_path)))
        assert cli_main(["oracle", "--suite", str(suite_path), "--pilot", "100"]) == 2
        assert capsys.readouterr().err == f"error: {self.OVERFLOW}\n"

    def test_non_integer_m_grid_rejected(self, tmp_path, capsys, monkeypatch):
        config = {"suite": {"name": "ishigami-perfect"}, "methods": ["ecdf-y"], "budgets": [300.0]}
        err = self._rejected(
            tmp_path, capsys, monkeypatch, config, "fixed-m", "--m-grid", "10,x", "--subset", "1"
        )
        assert err.startswith("error: --m-grid takes comma-separated integers, got '10,x'")

    def test_rerun_into_one_directory_leaves_only_its_files(self, tmp_path):
        # run A (two aetc-d traces, with samples), then run B (one aetc-d-no
        # trace) into the same directory: it must equal B run into a new one
        def run(name, methods, replicates, out, *extra):
            config = {
                "suite": {"name": "ishigami-perfect"},
                "methods": methods,
                "budgets": [60.0],
                "replicates": replicates,
                "eval_samples": 20,
                "oracle_samples": 5000,
                "seed": 5,
            }
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(config))
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), *extra]) == 0

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run("a", ["aetc-d"], 2, shared, "--dump-samples")
        assert len(list((shared / "trace").glob("*.jsonl"))) == 2
        run("b", ["aetc-d-no"], 1, shared)
        run("b", ["aetc-d-no"], 1, fresh)
        assert sorted(files(shared)) == ["results.csv", "summary.csv", "trace/aetc-d-no_B60_r0.jsonl"]
        assert files(shared) == files(fresh)


class TestGoldenOutputs:
    """sha256 of every output file of one small run, in both eval modes.

    Every method kind, two budgets, a 1e4-atom oracle; every cell completes.
    A change that moves any output byte on purpose re-pins these and says why.
    """

    CONFIG = {
        "suite": {"name": "ishigami-perfect"},
        "methods": ["ecdf-y", "aetc-d", "aetc-d-no", "aetc-d-q", "oracle", "fixed-m:20"],
        "fixed_subset": [1],
        "budgets": [300, 1000],
        "replicates": 2,
        "eval_samples": 100,
        "oracle_samples": 10_000,
        "seed": 11,
    }
    RESULTS = {
        "sampled": (
            "fcd2c5fd1e0c9d22ef8611f6026877e9970050c45cb092e9d83ef4b6908f3ff6",
            "e9a17fa6eaa537ba9a5b7bfeeff5473d38d7d6f8cdefb56294a6d1ebf9eb6a9b",
        ),
        "full": (
            "1448ed8709f9fb48e0b6e37960e16cd8a703dbe7d9a16f5071a2c45af9ff7b39",
            "72ead33bd52221390c649e764edd942255dc20d131c38fc6afc09206570f205a",
        ),
    }
    # the policy traces do not depend on the eval mode
    TRACES = {
        "aetc-d-no_B1000_r0.jsonl": "96683eb2a9a7240242fa7cf17b2bd254cc6ca8b4d2c37d1174534dfaf031148a",
        "aetc-d-no_B1000_r1.jsonl": "f6fdd9c845b53f9c0667d06e8f4d0d5b5e45ba7bb540e775a4a0663809ed43fa",
        "aetc-d-no_B300_r0.jsonl": "92f939babd72bbc99e4c6ac03cdb96d42aa99c29551a331b1a8e43fc5e0977b0",
        "aetc-d-no_B300_r1.jsonl": "03865d497d4e67505cf71d428eec01e3045c2cddccfe4721843157c4dfcedd59",
        "aetc-d-q_B1000_r0.jsonl": "be04acbdd50a54dd5bd7e02d5cb9447cd71e6ecb0326b87d0f0820c40f9f20e3",
        "aetc-d-q_B1000_r1.jsonl": "c8261daf3f093e39ce0559e6ad166af6b54b0e85cc06c6f9a69c7d91ff95f25a",
        "aetc-d-q_B300_r0.jsonl": "654e0f6626b3899bf024c07f6fb3fe5a164928c21b9eb0fa5dbf28bc73ac1583",
        "aetc-d-q_B300_r1.jsonl": "85a21ffc06a6511ae4d72a5331e203213255ea9a5f61f62e11656e5c87236525",
        "aetc-d_B1000_r0.jsonl": "2196ce86faebee1fb90be021d25bd6d71c274ce57e93d774686f69311fa25a1e",
        "aetc-d_B1000_r1.jsonl": "84d3a39e3aeb2e9d7a324ddc6108e6f4b42b5e33dfeba0b6018a7f5d49b88dc9",
        "aetc-d_B300_r0.jsonl": "1a3884fd97e95ec1da2f7d5b7efed71818b44a9b316761a8eb16d64413723861",
        "aetc-d_B300_r1.jsonl": "be360652962dd1d6af4ebc2f367f1a8009271c65470d1260947b6c02bbddb1d2",
    }

    @pytest.mark.parametrize("mode", ["sampled", "full"])
    def test_output_hashes(self, tmp_path, mode):
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        out = tmp_path / mode
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--eval", mode])
        assert rc == 0
        assert (sha(out / "results.csv"), sha(out / "summary.csv")) == self.RESULTS[mode]
        traces = {p.name: sha(p) for p in (out / "trace").glob("*.jsonl")}
        assert traces == self.TRACES

    # `mfdist stats` on CONFIG at a budget where every cell but `oracle`'s
    # fails (its MSEs are written as nan) and at one where every cell completes
    STATS_MSE = "82b05d556fe25318f0bdf9a392bbe19c0fee79cc4d62a2e34f393e9cbb1bbf33"

    def test_stats_hash(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(self.CONFIG, budgets=[0.5, 300])))
        out = tmp_path / "stats"
        assert cli_main(["stats", "--config", str(cfg_path), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "stats_mse.csv").read_bytes()).hexdigest()
        assert digest == self.STATS_MSE

    # two runs that reach the policy branches the configuration above never
    # does: (config, results.csv and summary.csv sha256, sha256 over every
    # trace's name and bytes in name order, trace files, unscorable rounds,
    # committed subsets)
    BRANCHES = {
        # expanded designs outgrow the initial rows: rounds with "chosen": null
        "unscorable-rounds": (
            {
                "suite": {"name": "ishigami-approx", "expansion": "L"},
                "methods": ["ecdf-y", "aetc-d", "aetc-d-no", "aetc-d-q", "fixed-m:50"],
                "fixed_subset": [1],
                "budgets": [100, 1000],
                "replicates": 5,
                "eval_samples": 100,
                "oracle_samples": 10_000,
                "seed": 3,
            },
            (
                "d5b2b8e212829edea580887667a0ca12766aa15de3e77516e24b2126e5bb628a",
                "2b1c3ba7d6d47aec12ba8a24333575fe0a531202341134b5b397299bb1d0281b",
            ),
            "ec64310049e63b4e909eac3c395804e722da8a50eef534f83d87bbcdc56d8204",
            30, 30, {(1, 2)},
        ),
        # c = d = 0: every subset fits Y exactly (k1 = 0), so the policy
        # commits at once to the cheapest one
        "zero-residual-commit": (
            {
                "suite": {"name": "ishigami-perfect", "c": 0, "d": 0},
                "methods": ["aetc-d", "aetc-d-q"],
                "budgets": [50, 200],
                "replicates": 2,
                "eval_samples": 100,
                "oracle_samples": 10_000,
                "seed": 4,
            },
            (
                "a76975d9092552c8dcc139872beb446db4e3b4d6c5470f83e40ccb579fc7b40a",
                "be07eb697302bdef18321530fb18dfd2715493c74b86e278a571741e12a223a1",
            ),
            "99c41c5ced27bc103a519b2cb1afd37fd9436962a40a201e0c5ede382679f822",
            8, 0, {(2,)},
        ),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_branch_hashes(self, tmp_path, branch):
        config, results, trace_digest, n_traces, n_unscorable, chosen = self.BRANCHES[branch]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = (out / "results.csv", out / "summary.csv")
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in files) == results
        digest = hashlib.sha256()
        records = []
        traces = sorted((out / "trace").glob("*.jsonl"))
        for path in traces:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
            records.append([json.loads(line) for line in path.read_text().splitlines()])
        assert len(traces) == n_traces
        assert sum(rec["chosen"] is None for trace in records for rec in trace) == n_unscorable
        assert {tuple(trace[-1]["chosen"]) for trace in records} == chosen
        assert digest.hexdigest() == trace_digest


class TestQuantileVariantCompletes:
    """Cells whose pinball fits used to fail the solver's subgradient check or
    stop with an unknown LP status now complete."""

    @pytest.mark.parametrize("seed", range(10))
    def test_perfect_suite_seeds(self, seed):
        raw = {
            "suite": {"name": "ishigami-perfect"},
            "methods": ["aetc-d-q"],
            "budgets": [1000, 10000],
            "replicates": 1,
            "seed": seed,
            "eval": "sampled",
            "eval_samples": 100,
            "oracle_samples": 10000,
        }
        rows, _ = run_experiment(ExperimentConfig.from_dict(raw))
        assert [r.error for r in rows] == ["", ""]

    @pytest.mark.parametrize("budget_idx,replicate", [(0, 18), (1, 2), (1, 8)])
    def test_approx_suite_cells(self, budget_idx, replicate):
        from mfdist.bench import _run_cell

        raw = {
            "suite": {"name": "ishigami-approx"},
            "methods": ["aetc-d-q"],
            "budgets": [1000, 10000],
            "replicates": 20,
            "seed": 3,
            "eval": "full",
            "oracle_samples": 10000,
        }
        config = ExperimentConfig.from_dict(raw)
        suite = config.build_suite()
        row = _run_cell(config, suite, build_oracle_measure(config, suite), 0, budget_idx, replicate)
        assert row.error == "" and np.isfinite(row.w1_error)


class TestTableSuiteEquivalence:
    def test_adaptive_runs_on_table_match_live_sampler(self):
        # a bootstrap table of 1e5 joint draws must yield statistically
        # indistinguishable adaptive results at a matched budget: the 5-95
        # error bands of the two pipelines overlap
        from mfdist.measures import EmpiricalMeasure, wasserstein1
        from mfdist.models import SampleTable, table_suite
        from mfdist.policy import run_aetc_d

        live = ishigami_suite("perfect")
        y, x = live.draw(np.random.default_rng(700), 100_000)
        boot = table_suite(SampleTable(y=y, x=x, cost_y=live.cost_y, costs=live.costs))
        oracle_y, _ = live.draw(np.random.default_rng(701), 500_000)
        oracle = EmpiricalMeasure.from_samples(oracle_y)
        bands = {}
        for name, suite in (("live", live), ("table", boot)):
            errs = []
            for rep in range(20):
                est, _ = run_aetc_d(suite, 1000.0, np.random.default_rng(710 + rep))
                errs.append(wasserstein1(est, oracle))
            bands[name] = (
                nearest_rank_quantile(np.array(errs), 0.05),
                nearest_rank_quantile(np.array(errs), 0.95),
            )
        lo = max(bands["live"][0], bands["table"][0])
        hi = min(bands["live"][1], bands["table"][1])
        assert lo <= hi, f"bands do not overlap: {bands}"


class TestStatisticsOrdering:
    def test_adaptive_beats_baseline_on_mean_mse(self):
        cfg = small_config(
            methods=["ecdf-y", "aetc-d"], budgets=[1000.0], replicates=24,
            oracle_samples=400_000, seed=730,
        )
        table = run_statistics_comparison(cfg)
        by_method = {rec["method"]: rec for rec in table}
        assert by_method["aetc-d"]["mse_mean"] < by_method["ecdf-y"]["mse_mean"]
        assert by_method["aetc-d"]["mse_variance"] < by_method["ecdf-y"]["mse_variance"]

    def test_symmetric_truth_keeps_skewness_near_zero(self):
        # symmetric response: both methods' skewness estimates center at 0
        from mfdist.models import ModelSuite

        def sample(rng, size, models):
            x = rng.normal(size=(size, 1))
            yield 2.0 * x[:, 0] + 0.5 * rng.normal(size=size), x

        suite = ModelSuite(name="sym", cost_y=1.0, costs=(0.05,), sampler=sample)
        from mfdist.measures import moment_summary
        from mfdist.policy import run_aetc_d

        skews = {"ecdf-y": [], "aetc-d": []}
        for rep in range(10):
            rng = np.random.default_rng(740 + rep)
            skews["ecdf-y"].append(
                moment_summary(run_ecdf_y(suite, 2000.0, rng)).skewness
            )
            est, _ = run_aetc_d(suite, 2000.0, np.random.default_rng(760 + rep))
            skews["aetc-d"].append(moment_summary(est).skewness)
        for method, values in skews.items():
            assert abs(np.mean(values)) < 0.1, f"{method} skewness off-center"


class TestOracleMeasure:
    def test_oracle_is_config_deterministic(self):
        cfg = small_config()
        suite = cfg.build_suite()
        a = build_oracle_measure(cfg, suite)
        b = build_oracle_measure(cfg, suite)
        assert np.array_equal(a.atoms, b.atoms)
        assert a.size == cfg.oracle_samples

    @pytest.mark.parametrize("method", ["oracle", "ecdf-y"])
    def test_sorts_its_own_draw_in_place(self, method):
        # from_samples' sorted copy of the draw held a second float a sample
        n = 1_000_000
        suite = ishigami_suite("perfect")
        cfg = small_config(oracle_samples=n)
        seed = np.random.SeedSequence(entropy=(cfg.seed, 0xFACE)) if method == "oracle" else 3
        y, _ = suite.draw(np.random.default_rng(seed), n, (0,))
        with traced_peak() as traced:
            if method == "oracle":
                measure = build_oracle_measure(cfg, suite)
            else:
                measure = run_ecdf_y(suite, float(n), np.random.default_rng(seed))
        assert measure.atoms.tobytes() == np.sort(y).tobytes()
        # the draw's block allowance, as TestDrawMemory's
        assert traced.peak <= 8 * n + 13 * 8 * _BLOCK_ROWS + 64 * 1024, traced.peak / (8 * n)


class TestBenchmarkSpanTargets:
    def test_every_traced_name_exists(self):
        # the benchmark's tracer patches these names when it installs; one
        # that no longer exists would crash every traced benchmark run
        import importlib.util
        import inspect
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans._TARGETS
        for owner, attr, *_ in spans._TARGETS:
            inspect.getattr_static(owner, attr)
