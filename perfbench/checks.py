"""Output checks, made after the timed runs.

Each check compares `mfdist run` output with a computation made apart from
mfdist (numpy, scipy, closed-form moments) or with a property the method
must have.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.stats

from workloads import Workload

# mfdist and scipy both integrate |F - G| from cumulative sums of 1/N
# weights, whose rounding leaves up to ~2e-8 relative disagreement at 1e6+
# atoms; moments differ only by summation order (~1e-15)
_W1_RTOL = 1e-6
_RTOL = 1e-12
# the oracle's mean and variance must lie within this many standard errors of
# the law's closed-form moments
_Z_MAX = 5.0
_ADAPTIVE = ("aetc-d", "aetc-d-no", "aetc-d-q", "fixed-m")


def read_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def is_adaptive(method: str) -> bool:
    return method.split(":")[0] in _ADAPTIVE


def run_id(row: dict) -> str:
    return f"{row['method'].replace(':', '-')}_B{row['budget']}_r{row['replicate']}"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _RTOL * max(1.0, abs(b))


def check_rows(workload: Workload, out_dir: Path, rows: list[dict]) -> list[str]:
    """Ledger and exploration-schedule properties of every row that did not fail."""
    problems = []
    cost_y, costs = workload.costs["cost_y"], workload.costs["costs"]
    c_epr = cost_y + sum(costs)
    n = len(costs)
    for row in rows:
        if row["error"]:
            continue
        rid, method = run_id(row), row["method"]
        budget, spend = float(row["budget"]), float(row["spend"])
        w1 = float(row["w1_error"]) if row["w1_error"] else math.nan
        if not (math.isfinite(w1) and w1 > 0.0):
            problems.append(f"{rid}: w1_error {row['w1_error']!r} is not a positive number")
        if not spend <= budget:
            problems.append(f"{rid}: spend {spend} exceeds budget {budget}")
        if method == "ecdf-y":
            if spend != math.floor(budget / cost_y) * cost_y:
                problems.append(f"{rid}: ecdf-y spends {spend}, not floor(B/c_y)*c_y")
            continue
        m = int(row["m_explore"])
        subset = [int(i) for i in row["subset"].split("+")]
        c_ept = sum(costs[i - 1] for i in subset)
        # exploration is charged c_epr per round, exploitation only c_ept(S),
        # and exploitation spends what is left down to less than one round
        n_exploit = (spend - m * c_epr) / c_ept
        if not (n_exploit >= 1 and abs(n_exploit - round(n_exploit)) < 1e-3):
            problems.append(f"{rid}: spend {spend} is not {m}*c_epr + N*c_ept(S)")
        if not budget - spend < c_ept * (1 + 1e-6):
            problems.append(f"{rid}: {budget - spend} of the budget is left unspent")
        if method.startswith("fixed-m:"):
            if m != int(method.split(":")[1]):
                problems.append(f"{rid}: m_explore {m} differs from the fixed rate")
            continue
        problems += _check_trace(out_dir / "trace" / f"{rid}.jsonl", rid, n, c_epr, m, subset)
    return problems


def _check_trace(path: Path, rid: str, n: int, c_epr: float, m: int, subset: list[int]) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    ts = [rec["t"] for rec in records]
    problems = []
    if not ts or ts[0] != n + 2:
        problems.append(f"{rid}: trace starts at t={ts[:1]}, not n+2={n + 2}")
    for prev, t in zip(ts, ts[1:]):
        if not prev < t <= 2 * prev:
            problems.append(f"{rid}: trace steps from t={prev} to t={t}, outside (t, 2t]")
    for rec in records:
        if not _close(rec["spend"], rec["t"] * c_epr):
            problems.append(f"{rid}: trace spend {rec['spend']} at t={rec['t']} is not t*c_epr")
    if ts and (ts[-1] != m or records[-1]["chosen"] != subset):
        problems.append(f"{rid}: last trace record (t={ts[-1]}, S={records[-1]['chosen']}) "
                        f"disagrees with the row (m={m}, S={subset})")
    return problems


def check_better(workload: Workload, rows: list[dict]) -> list[str]:
    """The workload's method beats its rival in mean W1 at every budget."""
    if workload.better is None:
        return []
    method, rival = workload.better
    means = {}
    for row in rows:
        if not row["error"]:
            means.setdefault((row["method"], row["budget"]), []).append(float(row["w1_error"]))
    problems = []
    for budget in sorted({b for _, b in means}, key=float):
        ours, theirs = np.mean(means[(method, budget)]), np.mean(means[(rival, budget)])
        if not ours < theirs:
            problems.append(f"B={budget}: mean W1 of {method} ({ours:.4g}) is not below "
                            f"{rival} ({theirs:.4g})")
    return problems


def _moments(x: np.ndarray) -> dict[str, float]:
    return {
        "est_mean": float(np.mean(x)),
        "est_variance": float(np.var(x, ddof=1)),
        "est_skewness": float(scipy.stats.skew(x)),
        "est_kurtosis": float(scipy.stats.kurtosis(x, fisher=False)),
    }


def check_dumped(workload: Workload, timed: list[dict], dump_dir: Path) -> list[str]:
    """Recompute W1 and the moments from the atoms of the --dump-samples pass.

    That pass ran replicate 0 with ``oracle`` appended as the last method, so
    its other rows kept their cell seeds and must equal the timed rows.
    """
    dumped = read_rows(dump_dir)
    samples = dump_dir / "samples"
    timed_r0 = {run_id(r): r for r in timed if r["replicate"] == "0"}
    first_oracle = next(r for r in dumped if r["method"] == "oracle")
    oracle = np.loadtxt(samples / f"{run_id(first_oracle)}.csv")
    oracle_moments = _moments(oracle)
    problems = _check_law(workload, oracle)
    for row in dumped:
        rid = run_id(row)
        if row["method"] == "oracle":
            if row["w1_error"] != "0.0":
                problems.append(f"{rid}: the oracle's W1 to itself is {row['w1_error']}")
            problems += _check_moments(rid, row, oracle_moments)
            continue
        if row != timed_r0.get(rid):
            problems.append(f"{rid}: the --dump-samples row differs from the timed row")
        if row["error"]:
            continue
        atoms = np.loadtxt(samples / f"{rid}.csv", ndmin=1)
        w1 = float(scipy.stats.wasserstein_distance(atoms, oracle))
        if not abs(float(row["w1_error"]) - w1) <= _W1_RTOL * w1:
            problems.append(f"{rid}: w1_error {row['w1_error']} but scipy gives {w1!r}")
        problems += _check_moments(rid, row, _moments(atoms))
    return problems


def _check_moments(rid: str, row: dict, moments: dict[str, float]) -> list[str]:
    return [
        f"{rid}: {key} {row[key]} but numpy/scipy give {value!r}"
        for key, value in moments.items()
        if not _close(float(row[key]), value)
    ]


def _check_law(workload: Workload, oracle: np.ndarray) -> list[str]:
    """The oracle's mean and variance against the law's closed form.

    A table suite's oracle resamples the table, itself a draw from the law,
    so both sample sizes enter the standard errors.
    """
    mean, var = workload.law_moments
    n = oracle.size
    share = 1.0 / n + (1.0 / workload.table_rows if workload.table_rows else 0.0)
    centered = oracle - oracle.mean()
    s2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    z_mean = abs(oracle.mean() - mean) / math.sqrt(s2 * share)
    z_var = abs(np.var(oracle, ddof=1) - var) / math.sqrt((m4 - s2**2) * share)
    if z_mean > _Z_MAX or z_var > _Z_MAX:
        return [f"oracle mean/variance are {z_mean:.2f}/{z_var:.2f} standard errors from "
                f"the law's {mean:.6g}/{var:.6g}"]
    return []
