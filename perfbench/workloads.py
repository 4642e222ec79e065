"""The benchmark's workloads: `mfdist run` configs and the inputs they read.

Every input is made from the workload seed.  The seed is the config's master
seed, and for the table workload it also seeds the generated CSV, so the same
seed gives the same inputs and the same results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ishigami parameters of the `ishigami-perfect` and `ishigami-approx` suites,
# written out so the closed-form moments below do not read them from mfdist.
_A, _B = 5.0, 0.1
_ISHIGAMI_COSTS = {"cost_y": 1.0, "costs": [0.05, 0.001]}
_HETERO_COSTS = {"cost_y": 1.0, "costs": [0.02]}
HETERO_ROWS = 1_000_000
_CSV_CHUNK = 100_000


def _ishigami_moments(c: float, d: float) -> tuple[float, float]:
    """Mean and variance of sin z1 (1 + b z3^4) + a sin^2 z2 + c sin^3 z4 + d sin^4 z5
    for iid z ~ U(-pi, pi).  The four terms are independent, so variances add;
    E sin^2 = 1/2, E sin^4 = 3/8, E sin^6 = 5/16, E sin^8 = 35/128,
    E z^4 = pi^4/5 and E z^8 = pi^8/9."""
    pi = math.pi
    mean = _A / 2.0 + d * 3.0 / 8.0
    var = (
        0.5 * (1.0 + 2.0 * _B * pi**4 / 5.0 + _B**2 * pi**8 / 9.0)
        + _A**2 / 8.0
        + c**2 * 5.0 / 16.0
        + d**2 * (35.0 / 128.0 - 9.0 / 64.0)
    )
    return mean, var


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    law_moments: tuple[float, float] | None  # closed-form mean and variance of Y
    better: tuple[str, str] | None  # (method, rival): method's mean W1 is lower at every budget
    costs: dict  # {"cost_y": c0, "costs": [c1..cn]}, as the suite declares them
    table_rows: int = 0  # rows of the generated CSV; 0 for built-in suites

    @property
    def full_eval(self) -> bool:
        return self.config["eval"] == "full"

    @property
    def cells(self) -> int:
        c = self.config
        return len(c["methods"]) * len(c["budgets"]) * c["replicates"]

    def prepare(self, seed: int, work: Path) -> Path:
        """Write the inputs for ``seed`` under ``work``; return the config path."""
        work.mkdir(parents=True, exist_ok=True)
        config = dict(self.config, seed=seed)
        if self.table_rows:
            table, costs = work / "table.csv", work / "table_costs.json"
            _write_hetero_table(table, seed, self.table_rows)
            costs.write_text(json.dumps(self.costs), encoding="utf-8")
            config["suite"] = dict(config["suite"], path=str(table), costs_path=str(costs))
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return path


def _write_hetero_table(path: Path, seed: int, rows: int) -> None:
    """Draws of Y = X1 (1 + eta), X1 ~ U(0, 2), eta ~ U(-1, 1), in chunks so
    the generator's own memory stays small beside the run it precedes."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x7AB1E)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x1\n")
        for start in range(0, rows, _CSV_CHUNK):
            size = min(_CSV_CHUNK, rows - start)
            x1 = rng.uniform(0.0, 2.0, size)
            y = x1 * (1.0 + rng.uniform(-1.0, 1.0, size))
            fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), x1.tolist())))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="perfect-full",
            config={
                "suite": dict(_ISHIGAMI_COSTS, name="ishigami-perfect"),
                "methods": ["ecdf-y", "aetc-d", "aetc-d-no"],
                "budgets": [1000, 10000, 100000],
                "replicates": 20,
                "oracle_samples": 1_000_000,
                "eval": "full",
            },
            law_moments=_ishigami_moments(c=1.0, d=0.1),
            better=("aetc-d", "ecdf-y"),
            costs=_ISHIGAMI_COSTS,
        ),
        Workload(
            name="approx-sampled",
            config={
                "suite": dict(_ISHIGAMI_COSTS, name="ishigami-approx", expansion="L"),
                "methods": ["ecdf-y", "aetc-d", "aetc-d-no", "fixed-m:50"],
                "fixed_subset": [1],
                "budgets": [100, 1000],
                "replicates": 20,
                "eval_samples": 200,
                "oracle_samples": 1_000_000,
                "eval": "sampled",
            },
            law_moments=None,  # no atoms are dumped under sampled evaluation
            better=None,
            costs=_ISHIGAMI_COSTS,
        ),
        Workload(
            name="hetero-quantile",
            config={
                "suite": {"name": "table"},
                "methods": ["aetc-d", "aetc-d-q"],
                "budgets": [1000, 3000],
                "replicates": 3,
                "oracle_samples": 1_000_000,
                "eval": "full",
            },
            # E Y = E X1 = 1; E Y^2 = E X1^2 E (1 + eta)^2 = 4/3 * 4/3
            law_moments=(1.0, 16.0 / 9.0 - 1.0),
            better=("aetc-d-q", "aetc-d"),
            costs=_HETERO_COSTS,
            table_rows=HETERO_ROWS,
        ),
    )
}
