"""Spans and counts around the public functions of each mfdist layer.

The tracer patches each name where the calling module binds it (for example
``mfdist.policy.ols_fit``, which ``_subset_score`` looks up at call time),
so nothing under ``src/`` changes.  A span records its name, start, end and
parent; a layer's self time is its span minus the spans nested inside it.
Spans stay in memory until :meth:`Tracer.write` puts them in a file.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import mfdist.bench
import mfdist.cli
import mfdist.policy
import mfdist.regress
from mfdist.measures import EmpiricalMeasure
from mfdist.models import ModelSuite, SampleTable


def _exploit_work(args, kwargs, result):
    # the state arrives with its exploration rows; the estimate has one atom
    # per exploitation row
    return {"policy.explore_rows": args[0].t, "policy.exploit_rows": result.size}


# (owner, attribute, span name, work counter); `policy.exploit` is bound twice:
# run_aetc_d calls it inside mfdist.policy, run_fixed_m through mfdist.bench
_TARGETS = [
    (mfdist.cli, "main", "cli.main", None),
    (mfdist.cli, "run_experiment", "bench.run_experiment",
     lambda a, k, r: {"bench.cells": len(r[0])}),
    (mfdist.cli, "write_results_csv", "bench.write", None),
    (mfdist.cli, "write_summary_csv", "bench.write", None),
    (mfdist.cli, "write_traces", "bench.write", None),
    (mfdist.bench, "build_oracle_measure", "bench.oracle_build", None),
    (mfdist.bench, "exploit", "policy.exploit", _exploit_work),
    (mfdist.bench, "wasserstein1", "measures.wasserstein1",
     lambda a, k, r: {"measures.wasserstein1_atoms": a[0].size + a[1].size}),
    (mfdist.bench, "moment_summary", "measures.moment_summary", None),
    (mfdist.policy, "aetc_d_step", "policy.round", None),
    (mfdist.policy, "score_subsets", "policy.score_subsets", None),
    (mfdist.policy, "exploit", "policy.exploit", _exploit_work),
    (mfdist.policy, "j_functionals", "measures.j_functionals", None),
    (mfdist.policy, "ols_fit", "regress.ols_fit", None),
    (mfdist.policy, "quantile_fit", "regress.quantile_fit", None),
    (mfdist.regress, "linprog", "regress.lp", None),
    (ModelSuite, "draw", "models.draw", lambda a, k, r: {"models.draw_rows": a[2]}),
    (SampleTable, "from_csv", "models.table_parse", None),
    (EmpiricalMeasure, "from_samples", "measures.from_samples",
     lambda a, k, r: {"measures.from_samples_atoms": r.size}),
]


class Tracer:
    """Collects spans, per-name self and total times and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._round = 0

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.self_s[name] += end - start - frame[1]
                self.total_s[name] += end - start
                self.counts[name] += 1
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start": start, "end": end, "round": self._round})
            if work is not None:
                self.counts.update(work(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, round_index: int):
        """Patch every target for one round and restore the originals after."""
        self._round = round_index
        originals = []
        try:
            for owner, attr, name, work in _TARGETS:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, work))
                else:
                    patched = self._wrap(raw, name, work)
                originals.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def snapshot(self) -> dict[str, dict]:
        """Self times, total times and counts so far; then reset them for the next round."""
        out = {"s": dict(self.self_s), "total_s": dict(self.total_s), "count": dict(self.counts)}
        for counter in (self.self_s, self.total_s, self.counts):
            counter.clear()
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
