"""Command-line entry points.

Subcommands:
  run       full experiment from a JSON config; writes results.csv,
            summary.csv, and per-run policy traces
  fixed-m   sweep a grid of fixed exploration rates at one budget
  fit-curve fit the exploration/exploitation trade-off curve to a results CSV
  oracle    estimate per-subset loss-surrogate constants from a pilot sample
  stats     moment-statistics MSE comparison against the oracle measure
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentConfig,
    fit_tradeoff_curve,
    fixed_rate,
    run_experiment,
    run_statistics_comparison,
    write_results_csv,
    write_samples,
    write_summary_csv,
    write_traces,
)
from .errors import ConfigError, MfdistError
from .models import _not_finite, load_json_object, not_utf8_message, suite_from_config
from .policy import efficiency_ratio, optimal_exploration, oracle_optimum, pilot_statistics


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    flags = ("seed", "eval")
    return replace(config, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None})


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _print_summary(summary) -> None:
    print(f"{'method':<12} {'budget':>10} {'mean':>12} {'q05':>12} {'q50':>12} {'q95':>12} {'fail':>5}")
    for rec in summary:
        print(
            f"{rec['method']:<12} {rec['budget']:>10g} {rec['mean']:>12.5g} "
            f"{rec['q05']:>12.5g} {rec['q50']:>12.5g} {rec['q95']:>12.5g} "
            f"{rec['failures']:>5d}"
        )


def _run_and_write(config: ExperimentConfig, args: argparse.Namespace) -> int:
    config = _apply_overrides(config, args)
    rows, summary = run_experiment(
        config, threads=args.threads, keep_atoms=args.dump_samples
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every output is a new file, so trace/ and samples/ hold only this run's
    # files; creating a file is also far cheaper than truncating one
    for stale in (out_dir / "results.csv", out_dir / "summary.csv",
                  *out_dir.glob("trace/*.jsonl"), *out_dir.glob("samples/*.csv")):
        stale.unlink(missing_ok=True)
    write_results_csv(rows, out_dir / "results.csv")
    write_summary_csv(summary, out_dir / "summary.csv")
    write_traces(rows, out_dir / "trace")
    if args.dump_samples:
        write_samples(rows, out_dir / "samples")
    _print_summary(summary)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_write(ExperimentConfig.from_json(args.config), args)


def _cmd_fixed_m(args: argparse.Namespace) -> int:
    raw = load_json_object(args.config)
    raw["methods"] = [f"fixed-m:{m}" for m in _int_list(args.m_grid, "--m-grid")]
    if args.subset:
        raw["fixed_subset"] = _int_list(args.subset, "--subset")
    return _run_and_write(ExperimentConfig.from_dict(raw), args)


def _cmd_fit_curve(args: argparse.Namespace) -> int:
    suite = suite_from_config(load_json_object(args.suite))
    path = getattr(args, "in")
    by_m: dict[int, list[float]] = {}
    budgets = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as empty fields
        try:
            missing = {"method", "budget", "w1_error", "error"} - set(reader.fieldnames or ())
            if missing:
                raise MfdistError(f"{path}: line 1: missing columns {sorted(missing)}")
            for rec in reader:
                m = fixed_rate(rec["method"])
                if m is None or rec["error"]:
                    continue
                values = {key: float(rec[key]) for key in ("w1_error", "budget")}
                for key, value in values.items():
                    if not np.isfinite(value):
                        raise ValueError(_not_finite(key, value))
                by_m.setdefault(m, []).append(values["w1_error"])
                budgets.add(values["budget"])
        except UnicodeDecodeError:
            raise MfdistError(not_utf8_message(path)) from None
        except ValueError as exc:  # fixed_rate's ConfigError included
            raise MfdistError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(budgets) != 1:
        raise MfdistError(
            f"curve fitting needs fixed-m rows at exactly one budget, found {sorted(budgets)}"
        )
    budget = budgets.pop()
    points = [(float(m), float(np.mean(errs))) for m, errs in sorted(by_m.items())]
    try:
        a1, a2, resid = fit_tradeoff_curve(points, budget, suite.c_epr)
    except MfdistError as exc:  # the file's rates cannot be fitted
        raise MfdistError(f"{path}: {exc}") from None
    minimizer = (
        optimal_exploration(a1**2, a2**2 * suite.c_epr, budget, suite.c_epr)
        if a1 > 0 and a2 > 0
        else float("nan")
    )
    print(json.dumps({
        "alpha1": a1, "alpha2": a2, "residual_norm": resid,
        "fitted_minimizer": minimizer,
        "points": [{"m": m, "mean_error": e} for m, e in points],
    }, indent=2))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.pilot < 1:
        raise ConfigError(f"--pilot must be >= 1, got {args.pilot}")
    if not 0.0 < args.budget < np.inf:  # nan fails both comparisons
        raise ConfigError(f"--budget must be positive and finite, got {args.budget}")
    suite = suite_from_config(load_json_object(args.suite))
    rng = np.random.default_rng(args.seed)
    pilot = pilot_statistics(suite, args.pilot, rng)
    budget = args.budget
    s_opt, m_star, g_star = oracle_optimum(pilot["k1"], pilot["k2"], budget, suite.c_epr)
    report = {
        "pilot_samples": args.pilot,
        "budget": budget,
        "c_epr": suite.c_epr,
        "j0_y": pilot["j0_y"],
        "j1_y": pilot["j1_y"],
        "subsets": [
            {
                "S": list(s),
                "k1": pilot["k1"][s],
                "k2": pilot["k2"][s],
                "sigma2": pilot["sigma2"][s],
                "m_star": optimal_exploration(pilot["k1"][s], pilot["k2"][s], budget, suite.c_epr),
            }
            for s in sorted(pilot["k1"], key=lambda s: (len(s), s))
        ],
        "S_opt": list(s_opt),
        "m_star_opt": m_star,
        "g_star_opt": g_star,
        "efficiency_ratio": efficiency_ratio(
            pilot["k1"][s_opt], pilot["k2"][s_opt], pilot["j0_y"], suite.cost_y, suite.c_epr
        ),
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _apply_overrides(ExperimentConfig.from_json(args.config), args)
    table = run_statistics_comparison(config, threads=args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stats_mse.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table[0])  # the keys: method, budget, then one mse_<stat> each
        for rec in table:
            method, budget, *mses = rec.values()
            writer.writerow([method, f"{budget:g}", *map(repr, mses)])
    print(json.dumps(table, indent=2, default=float))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the experiment flags shared by run, fixed-m and stats
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--eval", choices=("sampled", "full"), default=None)

    run = sub.add_parser("run", parents=[common], help="run a full experiment config")
    run.add_argument("--dump-samples", action="store_true")
    run.set_defaults(func=_cmd_run)

    fixed = sub.add_parser("fixed-m", parents=[common], help="sweep fixed exploration rates")
    fixed.add_argument("--m-grid", required=True, help="comma-separated rates, e.g. 10,30,50")
    fixed.add_argument("--subset", default=None, help="comma-separated model indices")
    fixed.add_argument("--dump-samples", action="store_true")
    fixed.set_defaults(func=_cmd_fixed_m)

    fit = sub.add_parser("fit-curve", help="fit the trade-off curve to fixed-m results")
    fit.add_argument("--in", required=True, help="results.csv from a fixed-m sweep")
    fit.add_argument("--suite", required=True, help="suite JSON (for cost parameters)")
    fit.set_defaults(func=_cmd_fit_curve)

    oracle = sub.add_parser("oracle", help="pilot-sample loss-surrogate constants")
    oracle.add_argument("--suite", required=True)
    oracle.add_argument("--pilot", type=int, required=True)
    oracle.add_argument("--budget", type=float, default=1000.0)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=_cmd_oracle)

    stats = sub.add_parser("stats", parents=[common], help="moment-statistics MSE comparison")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MfdistError, OSError) as exc:
        # an OSError's message names the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
