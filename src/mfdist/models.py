"""Multifidelity model suites: joint samplers with per-model costs.

A :class:`ModelSuite` bundles a seeded joint sampler of the high-fidelity
output and its low-fidelity surrogates, the declared per-model costs, and a
feature map that turns a surrogate subset into its regression design.  Costs
are declared, never measured: one exploration round (all models) costs
``c_epr``; one exploitation round of subset S costs ``c_ept(S)`` regardless
of any feature expansion.

Draws use numpy's PCG64 generator, a fixed documented algorithm, so a given
seed reproduces the same stream on every platform.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, TableParseError

__all__ = [
    "FeatureMap",
    "ModelSuite",
    "SampleTable",
    "expanded_suite",
    "ishigami_suite",
    "suite_from_config",
    "table_suite",
]

# subset scoring enumerates 2^n - 1 candidates; past this it is a config error
MAX_MODELS = 16

# rows per block of a large draw or exploitation (measured best among powers
# of two): one block's uniforms, scratch rows and design stay in L2 cache
_BLOCK_ROWS = 8192

# a monomial in the low-fidelity outputs: ((model_index, power), ...), 1-based
Monomial = tuple[tuple[int, int], ...]

# (y, x) of one draw or one block of rows; see ModelSuite for the sampler protocol
Drawn = tuple[np.ndarray | None, np.ndarray | None]
Sampler = Callable[[np.random.Generator, int, tuple[int, ...]], Iterable[Drawn]]


def _row_blocks(size: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of _BLOCK_ROWS rows of a ``size``-row draw.
    A lone last row joins the block before it, because numpy takes a one-row
    product as a dot, which rounds otherwise than the one-shot product."""
    start = 0
    while start < size:
        stop = size if size - start <= _BLOCK_ROWS + 1 else start + _BLOCK_ROWS
        yield start, stop
        start = stop


def _indices(rng: np.random.Generator, high: int, size: int) -> np.ndarray:
    """``rng.integers(0, high, size)``, as int32 where ``high`` allows: the
    same values as int64 in half the bytes, leaving the generator where the
    int64 draw would (both take the buffered 32-bit draws below 2**32)."""
    return rng.integers(0, high, size=size, dtype=np.int32 if high <= 2**31 else np.int64)


def all_subsets(n: int) -> list[tuple[int, ...]]:
    """Nonempty subsets of {1..n}, smallest cardinality first, then lexicographic.

    This is the canonical scoring/tie-break order used by the policy.
    """
    return [s for size in range(1, n + 1) for s in combinations(range(1, n + 1), size)]


@dataclass(frozen=True)
class FeatureMap:
    """Maps a surrogate subset to its regression design, intercept included.

    The full design's columns are the intercept, X1..Xn, then the ``extra``
    monomials in declaration order.  A subset gets the intercept, its own
    models, and each extra monomial whose models all belong to it, which
    realizes per-subset feature spans like {X1, X1^2, X1^3} without changing
    exploitation costs.
    """

    n: int
    extra: tuple[Monomial, ...] = ()

    def __post_init__(self) -> None:
        for mono in self.extra:
            for idx, power in mono:
                if not 1 <= idx <= self.n:
                    raise ConfigError(
                        f"feature transform references model {idx}, "
                        f"but the suite has models 1..{self.n}"
                    )
                if power < 1:
                    raise ConfigError(f"monomial power must be >= 1, got {power}")

    def columns(self, subset: tuple[int, ...]) -> list[int]:
        """Positions of the subset's columns in the full design: 0, then its
        models i, then n + 1 + j for each extra monomial j it spans."""
        members = set(subset)
        spanned = [j for j, mono in enumerate(self.extra) if all(i in members for i, _ in mono)]
        return [0, *subset, *(self.n + 1 + j for j in spanned)]

    def design(self, x: np.ndarray, subset: tuple[int, ...] | None = None) -> np.ndarray:
        """The (rows, 1 + k) design of ``subset`` (default: the full design) from
        draws x of shape (rows, n), reading only the subset's columns of x."""
        x = np.atleast_2d(x)
        terms = [(), *(((i, 1),) for i in range(1, self.n + 1)), *self.extra]
        if subset is not None:
            terms = [terms[c] for c in self.columns(subset)]
        Z = np.ones((x.shape[0], len(terms)))
        # repeated products, not libm pow: x**3 costs ~30x (x*x)*x
        for col, mono in zip(Z.T, terms):
            for idx, power in mono:
                for _ in range(power):
                    col *= x[:, idx - 1]
        return Z


def cubic_expansion(n: int) -> FeatureMap:
    """Adds squares and cubes of every surrogate (the enlarged feature span)."""
    return FeatureMap(n=n, extra=tuple(((i, p),) for i in range(1, n + 1) for p in (2, 3)))


def quadratic_interaction_expansion(n: int) -> FeatureMap:
    """Adds squares and pairwise products of the surrogates."""
    extra: list[Monomial] = [((i, 2),) for i in range(1, n + 1)]
    extra.extend(((i, 1), (j, 1)) for i, j in combinations(range(1, n + 1), 2))
    return FeatureMap(n=n, extra=tuple(extra))


_EXPANSIONS: dict[str, Callable[[int], FeatureMap]] = {
    "none": FeatureMap,
    "L": cubic_expansion,
    "quadratic-interactions": quadratic_interaction_expansion,
}


@dataclass(frozen=True)
class ModelSuite:
    """Joint sampler of (Y, X1..Xn) plus cost and feature metadata.

    ``sampler(rng, size, models)`` draws ``size`` joint rows of the models
    in ``models``, a sorted tuple of indices (0 for Y, i for Xi), and returns
    an iterable of row blocks in order, each ``(y, x)`` with y of shape
    (rows,) if 0 is asked for and x of shape (rows, n) if a surrogate is.
    Whatever a block holds for a model not asked for goes unused; the
    built-in samplers do not compute it (None for y, NaN columns in x).
    Together the blocks must use the generator exactly as one joint draw
    does, whatever is asked, so a request returns the joint draw's columns
    bit for bit and leaves the stream where the joint draw would.  The
    Ishigami samplers draw each block's own uniforms, because PCG64 spends
    one 64-bit output on each uniform double; the table sampler draws all
    its row indices in one call, because ``rng.integers`` below 2**32 takes
    buffered 32-bit draws, which split calls would shift.  Both yield fresh
    arrays, so a consumer may keep a block, of at most _BLOCK_ROWS + 1 rows.
    Draws across calls are iid continuations of the generator's stream.  A
    single generator must not be shared across threads; spawn independent
    streams per worker instead.
    """

    name: str
    cost_y: float
    costs: tuple[float, ...]
    sampler: Sampler = field(repr=False)
    feature_map: FeatureMap | None = None

    def __post_init__(self) -> None:
        if not all(0.0 < c < np.inf for c in (self.cost_y, *self.costs)):
            raise ConfigError(
                f"model costs must be positive and finite, got cost_y={self.cost_y!r} "
                f"and costs={list(self.costs)!r}"
            )
        if len(self.costs) == 0:
            raise ConfigError("a suite needs at least one low-fidelity model")
        if len(self.costs) > MAX_MODELS:
            raise ConfigError(
                f"{len(self.costs)} low-fidelity models exceed the cap of {MAX_MODELS} "
                "(subset enumeration is exponential)"
            )
        if self.feature_map is None:
            object.__setattr__(self, "feature_map", FeatureMap(len(self.costs)))
        elif self.feature_map.n != len(self.costs):
            raise ConfigError("feature map and cost vector disagree on model count")

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def c_epr(self) -> float:
        """Cost of one exploration round: sample every model jointly."""
        return self.cost_y + float(sum(self.costs))

    def c_ept(self, subset: tuple[int, ...]) -> float:
        """Cost of one exploitation round of a subset (feature expansion is free)."""
        return float(sum(self.costs[i - 1] for i in subset))

    def blocks(
        self, rng: np.random.Generator, size: int, models: tuple[int, ...] | None = None
    ) -> Iterator[Drawn]:
        """``size`` joint rows of the ``models`` asked for (default: all), as
        the sampler's row blocks in order.

        Each block is ``(y, x)`` as :meth:`draw` returns them; ValueError if a
        block's shapes or the total row count differ from what was asked.
        """
        models = self._asked(models)
        return _checked_blocks(self.sampler(rng, size, models), size, models, self.n)

    def draw(
        self, rng: np.random.Generator, size: int, models: tuple[int, ...] | None = None
    ) -> Drawn:
        """``size`` joint rows of the ``models`` asked for (default: all).

        Returns ``(y, x)`` joined from :meth:`blocks`, with y None unless 0 is
        asked for and x None unless a surrogate is.
        """
        models = self._asked(models)
        y = np.empty(size) if models[0] == 0 else None
        x = np.empty((size, self.n)) if models[-1] > 0 else None
        start = 0
        for y_rows, x_rows in self.blocks(rng, size, models):
            stop = start + len(x_rows if y is None else y_rows)
            if y is not None:
                y[start:stop] = y_rows
            if x is not None:
                x[start:stop] = x_rows
            start = stop
            del y_rows, x_rows  # before the sampler makes the next block
        return y, x

    def _asked(self, models: tuple[int, ...] | None) -> tuple[int, ...]:
        models = tuple(range(self.n + 1)) if models is None else tuple(sorted(set(models)))
        if not models or models[0] < 0 or models[-1] > self.n:
            raise ValueError(f"models must be a nonempty subset of 0..{self.n}, got {models}")
        return models

    def subsets(self) -> list[tuple[int, ...]]:
        return all_subsets(self.n)


def _checked_blocks(
    blocks: Iterable[Drawn], size: int, models: tuple[int, ...], n: int
) -> Iterator[Drawn]:
    done = 0
    for y, x in blocks:
        y = np.asarray(y, dtype=np.float64) if models[0] == 0 else None
        x = np.asarray(x, dtype=np.float64) if models[-1] > 0 else None
        rows = len(x if y is None else y)
        if y is not None and y.shape != (rows,):
            raise ValueError(f"sampler yielded y of shape {y.shape}; expected ({rows},)")
        if x is not None and x.shape != (rows, n):
            raise ValueError(f"sampler yielded x of shape {x.shape}; expected ({rows}, {n})")
        done += rows
        if done > size:
            raise ValueError(f"sampler yielded more than the {size} rows asked for")
        yield y, x
        del y, x  # the consumer owns the block; hold it no longer
    if done != size:
        raise ValueError(f"sampler yielded {done} rows; expected {size}")


# ---------------------------------------------------------------------------
# Built-in suites
# ---------------------------------------------------------------------------


def _blank_unasked(x: np.ndarray, models: tuple[int, ...]) -> np.ndarray:
    """Fill the columns of the surrogates not asked for with NaN, in place."""
    x[:, [i for i in range(x.shape[1]) if i + 1 not in models]] = np.nan
    return x


def _ishigami_sampler(variant: str, a: float, b: float, c: float, d: float) -> Sampler:
    # A draw yields blocks of _BLOCK_ROWS rows (see _row_blocks), each drawing
    # its own (rows, 5) uniforms into fresh outputs.  PCG64 spends one 64-bit
    # output on each uniform double and all later work is elementwise, so the
    # blocks draw the one-shot draw's values bit for bit and leave the
    # generator where it would.  Beside the block it yields, a draw holds
    # three scratch rows and, while it computes, the block's uniforms.  Powers
    # are products (z^4 = (z*z)^2, sin^3 = (s*s)*s), not libm pow, built with
    # in-place ufuncs.  Y is one chain of partial sums,
    #   Y = a s2^2 + s1 + b z3^4 s1 + c s4^3 + d s5^4,
    # which the perfect variant's X2 and X1 copy out of; the approx variant
    # builds its two heads k s2^2 + s1 + t apart.  The chain stops at the last
    # output asked for, and swapping the operands of one add or multiply is
    # exact, so every request computes the joint draw's values bit for bit.
    # A term with coefficient 0 is skipped, moving at most an exact zero's sign.
    perfect = variant == "perfect"

    def block(z, scratch, models) -> Drawn:
        y = np.empty(len(z)) if models[0] == 0 else None
        x = _blank_unasked(np.empty((len(z), 2)), models) if models[-1] > 0 else None
        s1, s2sq, term = scratch[:, :len(z)]
        np.sin(z[:, 0], out=s1)
        np.sin(z[:, 1], out=s2sq)
        s2sq *= s2sq

        def head(k: float, out: np.ndarray) -> np.ndarray:  # k s2^2 + s1 + term
            np.multiply(s2sq, k, out=out)
            out += s1
            out += term
            return out

        if not perfect and 2 in models:  # t = 9b z3^2 s1
            np.multiply(z[:, 2], z[:, 2], out=term)
            term *= 9.0 * b
            term *= s1
            head(0.6 * a, x[:, 1])
        if not perfect and models[0] > 1:
            return y, x
        np.multiply(z[:, 2], z[:, 2], out=term)  # t = b z3^4 s1, in Y and approx's X1
        term *= term
        term *= b
        term *= s1
        if not perfect and 1 in models:
            head(0.95 * a, x[:, 0])
        if not perfect and models[0] > 0:
            return y, x
        part = head(a, s2sq if y is None else y)
        if perfect and 2 in models:
            x[:, 1] = part
        if models[0] > 1:
            return y, x
        if c != 0.0:
            np.sin(z[:, 3], out=term)
            cube = np.multiply(term, term, out=s1)
            cube *= term
            cube *= c
            part += cube
        if perfect and 1 in models:
            x[:, 0] = part
        if models[0] > 0:
            return y, x
        if d != 0.0:
            np.sin(z[:, 4], out=term)
            term *= term
            term *= term
            term *= d
            part += term
        return y, x

    def sample(rng: np.random.Generator, size: int, models: tuple[int, ...]) -> Iterator[Drawn]:
        scratch = np.empty((3, min(size, _BLOCK_ROWS + 1)))
        for start, stop in _row_blocks(size):
            yield block(rng.uniform(-np.pi, np.pi, size=(stop - start, 5)), scratch, models)

    return sample


def ishigami_suite(
    variant: str = "perfect",
    a: float = 5.0,
    b: float = 0.1,
    c: float | None = None,
    d: float | None = None,
    cost_y: float = 1.0,
    costs: tuple[float, float] = (0.05, 0.001),
) -> ModelSuite:
    """Two-surrogate algebraic benchmark suite.

    The high-fidelity output is a five-input oscillatory function of iid
    Unif(-pi, pi) variables.  The ``perfect`` variant's surrogates are exact
    partial sums of it, so the linear conditional-mean assumption holds; the
    ``approx`` variant perturbs the surrogate coefficients so it only holds
    approximately.  Unspecified c, d default to (1, 0.1) for ``perfect`` and
    (0, 0) for ``approx``, the settings of the two benchmark studies.  Draws lie in
    [lo, hi] = [min(a, 0) - s + min(d, 0), max(a, 0) + s + max(d, 0)], s = 1 + pi^4 |b| + |c|:
    ConfigError if lo or hi, widened for rounding, is not finite or ``costs`` has not 2 entries.
    """
    if variant not in ("perfect", "approx"):
        raise ConfigError(f"unknown variant {variant!r}; expected 'perfect' or 'approx'")
    if len(costs) != 2:
        raise ConfigError(f"Ishigami costs need 2 entries, one per surrogate, got {list(costs)}")
    if c is None:
        c = 1.0 if variant == "perfect" else 0.0
    if d is None:
        d = 0.1 if variant == "perfect" else 0.0
    spread = 1.0 + np.pi**4 * abs(b) + abs(c)
    lo, hi = min(a, 0.0) - spread + min(d, 0.0), max(a, 0.0) + spread + max(d, 0.0)
    # approx's 9b z3^2 s1 lies in +-pi^4 |b| (9 pi^2 < pi^4).  A value takes at most 8 roundings
    # (5 in b z3^4 s1, 3 additions), lo or hi 6: (1 + 2^-53)^8 / (1 - 2^-53)^6 < 1 + 2^-49
    if not all(math.isfinite(v * (1.0 + 2.0**-49)) for v in (lo, hi)):
        raise ConfigError(f"Ishigami parameters must be finite, got a={a}, b={b}, c={c}, d={d}, "
                          f"and keep their draws' range [{lo:.6g}, {hi:.6g}] off float64's limit")
    return ModelSuite(
        name=f"ishigami-{variant}",
        cost_y=cost_y,
        costs=tuple(costs),
        sampler=_ishigami_sampler(variant, a, b, c, d),
    )


def expanded_suite(base: ModelSuite, expansion: FeatureMap | str) -> ModelSuite:
    """Same joint law and costs as ``base``, with a richer per-subset feature
    span; anything but a FeatureMap is read as the name of an expansion."""
    if not isinstance(expansion, FeatureMap):
        try:
            expansion = _EXPANSIONS[expansion](base.n)
        except (KeyError, TypeError):
            raise ConfigError(
                f"unknown expansion {expansion!r}; expected one of {sorted(_EXPANSIONS)}"
            ) from None
    return replace(
        base, name=f"{base.name}+{len(expansion.extra)}feat", feature_map=expansion
    )


# ---------------------------------------------------------------------------
# Tabulated samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleTable:
    """Precomputed joint draws loaded from disk.

    Sampling from a table is uniform with replacement, i.e. a bootstrap
    approximation of the original joint law, so independent-draw reasoning
    holds only up to the table's own sampling error.
    """

    y: np.ndarray
    x: np.ndarray
    cost_y: float
    costs: tuple[float, ...]

    @property
    def rows(self) -> int:
        return int(self.y.size)

    @classmethod
    def from_csv(cls, path: str | Path, costs_path: str | Path) -> "SampleTable":
        """Load a table: a header ``y,x1,...,xn`` (n from the costs' length),
        then one row of n + 1 Python ``float`` spellings per line.

        numpy's C reader parses the rows.  A file it refuses, or might read
        otherwise, goes through the line loop, which parses every spelling
        ``float()`` takes and names the line of the first malformed row; a
        value that is not finite is malformed, and its column is named.  A
        byte that is not UTF-8 is decoded as a lone surrogate, which no row
        parses, so the first malformed row is found even when it lies before
        the first such byte.
        """
        path = Path(path)
        cost_y, costs = _read_costs(costs_path)
        n = len(costs)
        expected_header = ["y"] + [f"x{i}" for i in range(1, n + 1)]
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            try:
                header = next(csv.reader(fh), None)
            except csv.Error as exc:
                raise TableParseError(f"{path}: line 1: {exc}") from None
            if header != expected_header:
                raise _row_error(
                    path, 1, header or [],
                    f"expected header {','.join(expected_header)!r}, got {header!r}",
                )
            data = _loadtxt_rows(fh, path, n + 1)
        if data is not None:
            finite = np.isfinite(data)
            if not finite.all():  # loadtxt read one row per line, from line 2 on
                row, col = np.argwhere(~finite)[0]
                problem = _not_finite(expected_header[col], data[row, col])
                raise _row_error(path, row + 2, [], problem)
            return cls(y=data[:, 0].copy(), x=data[:, 1:].copy(), cost_y=cost_y, costs=costs)
        y_rows: list[float] = []
        x_rows: list[list[float]] = []
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            next(reader)
            row: list[str] = []
            try:
                for row in reader:
                    if len(row) != n + 1:
                        raise ValueError(f"expected {n + 1} fields, got {len(row)}")
                    values = [float(v) for v in row]
                    for name, value in zip(expected_header, values):
                        if not math.isfinite(value):
                            raise ValueError(_not_finite(name, value))
                    y_rows.append(values[0])
                    x_rows.append(values[1:])
            # csv.Error: e.g. a field over csv's size limit; line_num is the
            # physical line the record ends on, past any quoted newline
            except (ValueError, csv.Error) as exc:
                raise _row_error(path, reader.line_num, row, exc) from None
        if not y_rows:
            raise TableParseError(f"{path}: table has a header but no data rows")
        return cls(
            y=np.asarray(y_rows), x=np.asarray(x_rows), cost_y=cost_y, costs=costs
        )


def load_json_object(path: str | Path) -> dict:
    """The JSON object in the file at ``path``.

    Invalid JSON and any other JSON value raise ConfigError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def json_array(value) -> list:
    """``value`` if it is a JSON array; TypeError for anything else, such as
    a string, whose characters would otherwise pass for its items."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {value!r}")
    return value


def json_number(value) -> float:
    """``float(value)``, refusing a JSON boolean; a string such as "inf" passes."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _read_costs(costs_path: str | Path) -> tuple[float, tuple[float, ...]]:
    """``cost_y`` and ``costs`` from a table's cost metadata file."""
    meta = load_json_object(costs_path)
    if set(meta) != {"cost_y", "costs"}:
        raise ConfigError(
            f"{costs_path}: cost metadata needs exactly the keys 'cost_y' and 'costs', "
            f"got {sorted(meta)}"
        )
    try:
        return json_number(meta["cost_y"]), tuple(map(json_number, json_array(meta["costs"])))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{costs_path}: cost_y must be a number and costs a list of numbers, "
            f"got {meta['cost_y']!r} and {meta['costs']!r}"
        ) from None


# ASCII separators 0x1c-0x1f: numpy's float parser strips them as whitespace
# where float() refuses them, so a file holding one goes to the line loop
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _count_lines(path: Path) -> int | None:
    """Lines as text iteration with ``newline=""`` splits the file (at \\n,
    \\r\\n and \\r), counted in 1 MiB binary chunks; None if the file holds a
    byte of _NUMPY_ONLY_SPACE.  In UTF-8 these bytes occur only as the
    characters they encode."""
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if any(sep in chunk for sep in _NUMPY_ONLY_SPACE):
                return None
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # most tables have none: skip two counting passes
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a \r\n split across two chunks
            last = chunk[-1:]
    if last not in (b"\n", b"\r"):
        lines += 1
    return lines


def not_utf8_message(path: str | Path) -> str:
    """Why the file at ``path`` does not decode as UTF-8: its first bad byte
    and that byte's line, split as csv splits lines (at \\n, \\r\\n and \\r).
    Read only after a decode error, so a valid file pays nothing."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8"
    return f"{path}: not UTF-8"  # the file changed since it was read


def _row_error(path: Path, line: int, row: list[str], problem) -> TableParseError:
    """The error for the table's first malformed row: its first byte that is
    not UTF-8, if the row holds one (decoded by errors="surrogateescape" as
    U+DC80..U+DCFF), else ``problem`` at ``line``."""
    if re.search("[\udc80-\udcff]", ",".join(row)):
        return TableParseError(not_utf8_message(path))
    return TableParseError(f"{path}: line {line}: {problem}")


def _not_finite(column: str, value: float) -> str:
    return f"column {column} is {value}, not a finite number"


def _loadtxt_rows(fh, path: Path, width: int) -> np.ndarray | None:
    """The rest of the open table ``fh``, just past its header, parsed by
    numpy's C reader: an array of one row per line, or None if the reader
    refuses the file or may have read it otherwise than the line loop.

    ``loadtxt`` streams ``fh`` line by line.  It silently skips blank lines
    and takes its width from the first row, so its result counts only if it
    has one row per data line and ``width`` columns.
    """
    lines = _count_lines(path)
    if lines is None or lines == 1:  # header only: loadtxt would warn of no data
        return None
    try:
        with warnings.catch_warnings():
            # a file of blank lines warns of no data; the shape check refuses it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (lines - 1, width) else None


def table_suite(table: SampleTable) -> ModelSuite:
    """Suite whose sampler bootstraps rows of a precomputed table."""
    if table.rows == 0:
        raise TableParseError("cannot build a suite from an empty table")

    def sample(rng: np.random.Generator, size: int, models: tuple[int, ...]) -> Iterator[Drawn]:
        idx = _indices(rng, table.rows, size)
        for start, stop in _row_blocks(size):
            rows = idx[start:stop]
            yield (table.y[rows] if models[0] == 0 else None,
                   _blank_unasked(table.x[rows], models) if models[-1] > 0 else None)

    return ModelSuite(name="table", cost_y=table.cost_y, costs=table.costs, sampler=sample)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_ISHIGAMI_KEYS = {"name", "expansion", "a", "b", "c", "d", "cost_y", "costs"}
# suite name -> the keys its config may hold
_SUITE_KEYS = {
    "ishigami-perfect": _ISHIGAMI_KEYS,
    "ishigami-approx": _ISHIGAMI_KEYS,
    "table": {"name", "expansion", "path", "costs_path"},
}


def suite_from_config(spec: dict) -> ModelSuite:
    """Build a suite from its JSON description (strict: unknown keys rejected)."""
    if not isinstance(spec, dict):
        raise ConfigError("suite config must be a JSON object")
    name = spec.get("name")
    if not isinstance(name, str) or name not in _SUITE_KEYS:
        raise ConfigError(f"unknown suite name {name!r}; expected one of {sorted(_SUITE_KEYS)}")
    unknown = set(spec) - _SUITE_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown suite config keys: {sorted(unknown)}")
    if name == "table":
        if "path" not in spec or "costs_path" not in spec:
            raise ConfigError("table suites need 'path' and 'costs_path'")
        suite = table_suite(SampleTable.from_csv(spec["path"], spec["costs_path"]))
    else:
        try:
            kwargs = {k: json_number(v) for k, v in spec.items() if k not in ("name", "expansion", "costs")}
            if "costs" in spec:
                kwargs["costs"] = tuple(map(json_number, json_array(spec["costs"])))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"suite config values must be numbers and 'costs' an array of them, got {spec!r}"
            ) from None
        suite = ishigami_suite(variant=name.split("-")[1], **kwargs)
    expansion = spec.get("expansion", "none")
    if expansion != "none":
        suite = expanded_suite(suite, expansion)
    return suite
