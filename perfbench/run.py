"""Benchmark of `mfdist run` on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload perfect-full --seed 1 --seconds 15 --trace 0

It writes the workload's inputs from ``--seed`` under ``.perfbench_out/``,
times set-up, then calls ``mfdist.cli.main(["run", ...])`` in this process,
single-threaded, until ``--seconds`` have passed, checks the outputs, and
prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
reports per-layer self times and counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, like --threads 1; numpy is first imported in main()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
# set-up is repeated at least this often and for at least this long; the
# median is reported
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

# (metric, unit, kind, key): kind "s" is the median over traced runs of the
# self time of the spans named key, "total_s" their whole time, and "count" a
# count from one traced run.  The oracle build's own code is a few calls, so
# its metric is the whole span; its draw and sort also count under
# models.draw_s and measures.from_samples_s.
LAYER_METRICS = [
    ("models.draw_s", "s", "s", "models.draw"),
    ("models.draw_rows", "count", "count", "models.draw_rows"),
    ("models.table_parse_s", "s", "s", "models.table_parse"),
    ("measures.wasserstein1_s", "s", "s", "measures.wasserstein1"),
    ("measures.wasserstein1_calls", "count", "count", "measures.wasserstein1"),
    ("measures.wasserstein1_atoms", "count", "count", "measures.wasserstein1_atoms"),
    ("measures.moment_summary_s", "s", "s", "measures.moment_summary"),
    ("measures.from_samples_s", "s", "s", "measures.from_samples"),
    ("measures.from_samples_atoms", "count", "count", "measures.from_samples_atoms"),
    ("measures.j_functionals_s", "s", "s", "measures.j_functionals"),
    ("regress.quantile_fit_s", "s", "s", "regress.quantile_fit"),
    ("regress.lp_solves", "count", "count", "regress.lp"),
    ("regress.lp_s", "s", "s", "regress.lp"),
    ("regress.ols_fit_s", "s", "s", "regress.ols_fit"),
    ("regress.ols_fit_calls", "count", "count", "regress.ols_fit"),
    ("policy.rounds", "count", "count", "policy.round"),
    ("policy.score_subsets_s", "s", "s", "policy.score_subsets"),
    ("policy.explore_rows", "count", "count", "policy.explore_rows"),
    ("policy.exploit_s", "s", "s", "policy.exploit"),
    ("policy.exploit_rows", "count", "count", "policy.exploit_rows"),
    ("bench.oracle_build_s", "s", "total_s", "bench.oracle_build"),
    ("bench.cells", "count", "count", "bench.cells"),
    ("bench.write_s", "s", "s", "bench.write"),
]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's own ``src/`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "mfdist" / "__init__.py").is_file():
        sys.exit(f"error: {src}/mfdist not found; run from the root of an mfdist checkout")
    sys.path.insert(0, str(src))
    import mfdist

    if Path(mfdist.__file__).resolve().parent != (src / "mfdist").resolve():
        sys.exit(f"error: imported mfdist from {mfdist.__file__}, not from {src}")


def _setup_seconds(config_path: Path) -> float:
    """What `mfdist run` does before its first cell, through the same functions."""
    from mfdist.bench import ExperimentConfig, build_oracle_measure

    start = time.perf_counter()
    config = ExperimentConfig.from_json(config_path)
    build_oracle_measure(config, config.build_suite())
    return time.perf_counter() - start


def _run_once(config_path: Path, out_dir: Path, *extra: str) -> float:
    """One `mfdist run` call, timed from call to return."""
    import mfdist.cli

    argv = ["run", "--config", str(config_path), "--out", str(out_dir), "--threads", "1", *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = mfdist.cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"mfdist run exited with code {code}")
    return elapsed


def _digest(out_dir: Path) -> str:
    """Hash of results.csv, summary.csv and the traces, which reruns must reproduce."""
    h = hashlib.sha256()
    files = [out_dir / "results.csv", out_dir / "summary.csv", *sorted((out_dir / "trace").glob("*"))]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _timed_runs(args, config_path: Path, work: Path, tracer=None):
    """Run until ``args.seconds`` have passed; with a tracer, alternate
    untraced and traced runs, starting untraced, and do at least one of each.

    Each run writes to a new directory, as a user's fresh ``--out`` would:
    rewriting existing files waits on the file system's journal (about 70 ms
    a file on the reference disk), which would make ``run_s`` time the disk.
    """
    plain, traced, layers, digests = [], [], [], set()
    start = time.perf_counter()
    index = 0
    while True:
        out_dir = work / f"run-{index}"
        if tracer is not None and index % 2 == 1:
            with tracer.installed(index):
                traced.append(_run_once(config_path, out_dir))
            layers.append(tracer.snapshot())
        else:
            plain.append(_run_once(config_path, out_dir))
        if index == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests.add(_digest(out_dir))
        index += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            return plain, traced, layers, peak_mb, out_dir, len(digests) == 1


def _check(workload, config_path: Path, out_dir: Path, rows: list[dict]) -> list[str]:
    import checks

    try:
        problems = checks.check_rows(workload, out_dir, rows) + checks.check_better(workload, rows)
        if workload.full_eval:
            # untimed pass over replicate 0 that dumps every estimate's atoms
            raw = json.loads(config_path.read_text(encoding="utf-8"))
            raw.update(methods=raw["methods"] + ["oracle"], replicates=1)
            dump_config = config_path.with_name("dump_config.json")
            dump_config.write_text(json.dumps(raw), encoding="utf-8")
            dump_dir = out_dir.with_name("dump")
            _run_once(dump_config, dump_dir, "--dump-samples")
            problems += checks.check_dumped(workload, rows, dump_dir)
            shutil.rmtree(dump_dir)  # the atoms run to hundreds of MB
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        # a missing or malformed output file fails the checks, not the benchmark
        return [f"outputs could not be checked: {exc!r}"]
    return problems


def _layer_metrics(layers: list[dict]) -> tuple[dict, list[str]]:
    counts = [layer["count"] for layer in layers]
    problems = [] if all(c == counts[0] for c in counts) else ["traced runs differ in their counts"]
    metrics = {}
    for name, unit, kind, key in LAYER_METRICS:
        if kind == "count":
            value = counts[0].get(key, 0)
        else:
            value = statistics.median(layer[kind].get(key, 0.0) for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def main() -> int:
    args = _parse_args(sys.argv[1:])
    _import_program()
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    config_path = workload.prepare(args.seed, work / "input")

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced, layers, _, out_dir, same = _timed_runs(args, config_path, work, tracer)
        tracer.write(work / "spans.jsonl")
    else:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            setups.append(_setup_seconds(config_path))
        plain, traced, layers, peak_mb, out_dir, same = _timed_runs(args, config_path, work)
    rows = checks.read_rows(out_dir)
    problems = [] if same else ["reruns of the same config wrote different outputs"]
    problems += _check(workload, config_path, out_dir, rows)

    if args.trace:
        metrics, count_problems = _layer_metrics(layers)
        problems += count_problems
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        adaptive = [float(r["w1_error"]) for r in rows
                    if checks.is_adaptive(r["method"]) and not r["error"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
            "w1_mean": {"value": sum(adaptive) / len(adaptive), "unit": "W1"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("runs_s = " + " ".join(f"{t:.3f}" for t in plain) + " (untraced)"
          + "".join(f" {t:.3f}" for t in traced) + (" (traced)" if traced else ""))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    runs = len(plain) + len(traced)
    print(json.dumps({
        "correct": not problems,
        "attempted": runs * workload.cells,
        "failed": runs * sum(1 for r in rows if r["error"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
