"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the package's own computational paths:
brute-force enumeration, closed forms, quadrature, and high-precision
arithmetic stand on their own so agreement is meaningful.  The exception is
``basis_walk_reference``, an earlier version of the package's quantile walk
kept for a differential test.  The last three helpers serve the tests
themselves: a design with an intercept, a table on disk, and a tracemalloc
measurement of a block's memory.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def w1_bruteforce_assignment(a, b) -> float:
    """Min-cost assignment between two equal-size uniform atom lists.

    Exhaustive search over permutations; feasible for <= ~8 atoms.
    """
    a = list(map(float, a))
    b = list(map(float, b))
    assert len(a) == len(b) <= 8
    n = len(a)
    return min(
        sum(abs(x - y) for x, y in zip(a, perm)) / n for perm in permutations(b)
    )


def w1_quantile_grid(measure_a, measure_b) -> float:
    """Quantile-representation integral on the merged grid of levels i/N.

    The grid is both measures' levels i/N, built here from their sizes, so
    each piece's quantiles are looked up on the levels that define them.
    """
    from mfdist.measures import sample_inverse_transform

    grid = np.union1d(*(np.arange(m.size + 1.0) / m.size for m in (measure_a, measure_b)))
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        if hi <= lo:
            continue
        total += (hi - lo) * abs(
            sample_inverse_transform(measure_a, hi) - sample_inverse_transform(measure_b, hi)
        )
    return total


def w1_uniform_exact(x, y) -> Fraction:
    """Exact W1 of the ideal uniform measures (weights exactly 1/n, 1/m).

    Both quantile functions are steps on the rational grids i/n and j/m; a
    two-pointer merge walks the pieces between consecutive breakpoints, in
    units of 1/(n m), and sums |x_i - y_j| times each length in rationals.
    """
    xs = sorted(Fraction(float(v)) for v in x)
    ys = sorted(Fraction(float(v)) for v in y)
    n, m = len(xs), len(ys)
    total, i, j, pos = Fraction(0), 0, 0, 0
    while pos < n * m:
        end = min((i + 1) * m, (j + 1) * n)
        total += (end - pos) * abs(xs[i] - ys[j])
        pos = end
        i += end == (i + 1) * m
        j += end == (j + 1) * n
    return total / (n * m)


def kolmogorov_bruteforce(measure_a, measure_b) -> float:
    """Sup-distance between two CDFs from both one-sided limits at every atom.

    At each atom x of either measure, F(x) and F(x-) of each measure come
    from their own ``searchsorted`` calls (right and left) on the measure's
    atoms, as the count of atoms below over N; the sup is the largest gap of
    either kind.
    """
    grid = np.concatenate([measure_a.atoms, measure_b.atoms])
    gaps = []
    for side in ("right", "left"):
        values = [
            np.searchsorted(m.atoms, grid, side=side) / m.size
            for m in (measure_a, measure_b)
        ]
        gaps.append(np.abs(values[0] - values[1]).max())
    return float(max(gaps))


def w1_exact_vs_uniform01(samples) -> float:
    """Exact L1 distance between a sample ECDF and the Unif(0,1) CDF.

    Piecewise integration of |F_N(x) - x| on [0,1]; each plateau of F_N may
    cross the diagonal, handled in closed form.
    """
    atoms = np.sort(np.asarray(samples, dtype=np.float64))
    assert atoms.min() >= 0.0 and atoms.max() <= 1.0
    n = atoms.size
    points = np.concatenate(([0.0], atoms, [1.0]))
    total = 0.0
    for k in range(points.size - 1):
        p, q = points[k], points[k + 1]
        if q <= p:
            continue
        c = k / n  # ECDF plateau value on [p, q)
        if c <= p:
            total += (q - p) * ((p + q) / 2.0 - c)
        elif c >= q:
            total += (q - p) * (c - (p + q) / 2.0)
        else:
            total += ((c - p) ** 2 + (q - c) ** 2) / 2.0
    return total


def w1_aligned_uniform(
    sample_sorted: np.ndarray,
    ref_sorted: np.ndarray,
    ref_prefix: np.ndarray | None = None,
) -> float:
    """W1 between two uniform ECDFs whose sizes divide evenly.

    When len(ref) is a multiple k of len(sample) the two quantile functions
    are constant on a common grid, so the integral is the mean of
    |sample_i - ref_j| with each sample atom paired against its block of k
    reference atoms.  Computed blockwise with prefix sums, O(N log |ref|).
    ``ref_prefix`` (cumsum of ref with leading 0) can be passed to amortize
    repeated calls against one reference.
    """
    n = sample_sorted.size
    k, rem = divmod(ref_sorted.size, n)
    assert rem == 0
    if ref_prefix is None:
        ref_prefix = np.concatenate(([0.0], np.cumsum(ref_sorted)))
    lo = np.arange(n) * k
    hi = lo + k
    cut = np.clip(np.searchsorted(ref_sorted, sample_sorted), lo, hi)
    below_cnt = cut - lo
    below_sum = ref_prefix[cut] - ref_prefix[lo]
    above_cnt = hi - cut
    above_sum = ref_prefix[hi] - ref_prefix[cut]
    total = (
        sample_sorted @ below_cnt
        - below_sum.sum()
        + above_sum.sum()
        - sample_sorted @ above_cnt
    )
    return float(total / ref_sorted.size)


def moments_float_powers(atoms, weights) -> tuple[float, float, float, float]:
    """Mean, unbiased variance, skewness and kurtosis from float powers.

    :func:`moments_full_array` with weights and ``**`` in place of products.
    """
    w = np.asarray(weights, dtype=np.float64)
    mean = float(w @ atoms)
    centered = np.asarray(atoms, dtype=np.float64) - mean
    shift = float(w @ centered)
    centered -= shift
    mean += shift
    m2 = float(w @ centered**2)
    m3 = float(w @ centered**3)
    m4 = float(w @ centered**4)
    return mean, m2 / (1.0 - float(w @ w)), m3 / m2**1.5, m4 / m2**2


def moments_full_array(atoms) -> tuple[float, float, float, float]:
    """Mean, unbiased variance, skewness and kurtosis by the full-array
    formula that ``moment_summary`` used before it summed by blocks: one dot
    product against 1/N over all atoms per sum, two centrings, powers as
    products, and N-float temporaries."""
    w = np.full(atoms.size, 1.0 / atoms.size)
    mean = float(w @ atoms)
    dev = atoms - mean
    shift = float(w @ dev)
    dev -= shift
    mean += shift
    sq = dev * dev
    m2 = float(w @ sq)
    dev *= sq
    m3 = float(w @ dev)
    sq *= sq
    m4 = float(w @ sq)
    return mean, m2 / (1.0 - float(w @ w)), m3 / m2**1.5, m4 / m2**2


def moments_exact(atoms) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The mean and the second to fourth central moments (divided by N) in
    exact rationals, each float read as the binary fraction it is: power
    sums of integers over one power of two."""
    ints, e = _dyadic(atoms)
    n = len(ints)
    s1, s2, s3, s4 = (Fraction(sum(v**p for v in ints), n) for p in (1, 2, 3, 4))
    c2 = s2 - s1**2
    c3 = s3 - 3 * s1 * s2 + 2 * s1**3
    c4 = s4 - 4 * s1 * s3 + 6 * s1**2 * s2 - 3 * s1**4
    unit = Fraction(2) ** e
    return s1 * unit, c2 * unit**2, c3 * unit**3, c4 * unit**4


def ishigami_terms_float_powers(z, variant, a, b, c, d) -> dict[int, list[np.ndarray]]:
    """Terms of Y, X1 and X2 of the Ishigami suites, powers taken with ``**``.

    ``z`` is the (size, 5) Unif(-pi, pi) draw.  Returns ``{model: terms}``
    (0 for Y, i for Xi) with each output's terms in the order the samplers
    sum them.  Summed left to right they give the formula with libm ``pow``
    for ``z**4``, ``sin**3`` and ``sin**4``, which the samplers replace by
    products.
    """
    s1 = np.sin(z[:, 0])
    s2sq = np.sin(z[:, 1]) ** 2
    t3 = b * z[:, 2] ** 4 * s1
    t4 = c * np.sin(z[:, 3]) ** 3
    t5 = d * np.sin(z[:, 4]) ** 4
    if variant == "perfect":
        return {0: [s1, a * s2sq, t3, t4, t5], 1: [s1, a * s2sq, t3, t4], 2: [s1, a * s2sq, t3]}
    return {
        0: [s1, a * s2sq, t3, t4, t5],
        1: [s1, 0.95 * a * s2sq, t3],
        2: [s1, 0.6 * a * s2sq, 9.0 * b * z[:, 2] ** 2 * s1],
    }


def ishigami_y_products(z, a, b, c, d) -> np.ndarray:
    """Y of the Ishigami suites from the (size, 5) Unif(-pi, pi) draw ``z``,
    with all four terms, a zero coefficient's included, each power a product
    and the sum taken in the samplers' order:
    a s2^2 + s1 + b (z3^2)^2 s1 + c s4^3 + d (s5^2)^2."""
    s1, s2, s4, s5 = (np.sin(z[:, k]) for k in (0, 1, 3, 4))
    z3sq = z[:, 2] * z[:, 2]
    t1 = ((z3sq * z3sq) * b) * s1
    t3 = ((s4 * s4) * s4) * c
    t4 = ((s5 * s5) * (s5 * s5)) * d
    return ((((s2 * s2) * a + s1) + t1) + t3) + t4


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section search for the minimizer of a unimodal function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def ols_normal_equations_mp(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via the normal equations in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        Zm = mpmath.matrix(Z.tolist())
        ym = mpmath.matrix([[float(v)] for v in y])
        gram = Zm.T * Zm
        rhs = Zm.T * ym
        beta = mpmath.lu_solve(gram, rhs)
        return np.array([float(beta[i]) for i in range(Z.shape[1])])


def pinball_primal_lp(Z: np.ndarray, y: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Pinball regression as its primal LP, solved by HiGHS.

    Minimize tau/m * sum(u) + (1 - tau)/m * sum(v) over (beta, u, v) subject
    to Z beta + u - v = y and u, v >= 0, in dense form.  Returns beta and the
    mean pinball loss evaluated at beta (not the LP's own objective, which
    HiGHS meets only to its feasibility tolerance).
    """
    from scipy.optimize import linprog

    m, p = Z.shape
    res = linprog(
        c=np.concatenate([np.zeros(p), np.full(m, tau / m), np.full(m, (1.0 - tau) / m)]),
        A_eq=np.hstack([Z, np.eye(m), -np.eye(m)]),
        b_eq=y,
        bounds=[(None, None)] * p + [(0.0, None)] * (2 * m),
        method="highs",
    )
    assert res.status == 0, res.message
    beta = res.x[:p]
    r = y - Z @ beta
    return beta, float(np.mean(np.where(r < 0.0, (tau - 1.0) * r, tau * r)))


def pinball_loss(x, tau: float):
    """Asymmetric absolute loss x * (tau - 1[x < 0]); its minimizer in location
    problems is the tau-quantile."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    x_arr = np.asarray(x, dtype=np.float64)
    out = x_arr * (tau - (x_arr < 0.0))
    return float(out) if np.isscalar(x) else out


def pinball_subgradient_margin(Z: np.ndarray, y: np.ndarray, tau: float, beta: np.ndarray) -> float:
    """Smallest one-sided directional derivative of the mean pinball loss at
    ``beta`` over the signed coordinate directions.

    A nonnegative return certifies (coordinate-wise) first-order optimality;
    a return of ~0 with optimality indicates a flat edge, i.e. a tied argmin.
    Residuals within 1e-9 * max(1, max|y|) of zero count as zero.
    """
    r = y - Z @ beta
    band = 1e-9 * max(1.0, float(np.max(np.abs(y))))
    pos = r > band
    neg = r < -band
    zero = ~(pos | neg)
    m = y.size
    margins = []
    for j in range(Z.shape[1]):
        for sign in (1.0, -1.0):
            a = sign * Z[:, j]
            g = -tau * a[pos].sum() + (1.0 - tau) * a[neg].sum()
            g += tau * np.maximum(-a[zero], 0.0).sum()
            g += (1.0 - tau) * np.maximum(a[zero], 0.0).sum()
            margins.append(g / m)
    return float(min(margins))


def _dyadic(a) -> tuple[list[int], int]:
    """Integers n and one exponent e with a == n * 2**e exactly, entry by
    entry, for a float array read in row-major order."""
    mantissa, exponent = np.frexp(np.asarray(a, dtype=np.float64).ravel())
    ints = (mantissa * 2.0**53).astype(np.int64).tolist()
    exponent = (exponent.astype(np.int64) - 53).tolist()
    e = min(exponent)
    return [n << (x - e) for n, x in zip(ints, exponent)], e


def pinball_loss_exact(Z, y, tau, beta) -> Fraction:
    """Mean pinball loss of ``beta`` in exact rationals, each float read as
    the binary fraction it is.

    Every float is an integer times a power of two, so every residual is
    formed in integers over one common power of two, with no rounding.
    """
    m, p = np.shape(Z)
    zi, ez = _dyadic(Z)
    bi, eb = _dyadic(beta)
    yi, ey = _dyadic(y)
    e = min(ez + eb, ey)
    above = below = 0
    for i in range(m):
        r = (yi[i] << (ey - e)) - (sum(zi[i * p + j] * bi[j] for j in range(p)) << (ez + eb - e))
        if r > 0:
            above += r
        else:
            below -= r
    tau = Fraction(tau)
    return (tau * above + (1 - tau) * below) * Fraction(2) ** e / m


def _solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """x with A x = b by Gauss-Jordan elimination in rationals; None if A is
    singular."""
    n = len(b)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if M[i][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [a - f * c for a, c in zip(M[i], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def pinball_lexmin_bruteforce(Z, y, taus) -> list[list[Fraction]]:
    """Lexicographically smallest pinball minimizer per level, in rationals.

    Every optimum set of a pinball regression with a full-rank design is a
    polytope whose vertices fit ``cols`` rows exactly, and its
    lexicographically smallest point is one of them.  So enumerating every
    nonsingular basis, with each float entry and level read exactly as a
    ``Fraction``, finds the exact minimum loss and, among the bases reaching
    it, the smallest coefficient vector.  Feasible for about a dozen rows.
    """
    Zq = [[Fraction(float(v)) for v in row] for row in np.asarray(Z)]
    yq = [Fraction(float(v)) for v in y]
    taus = [Fraction(t) for t in taus]
    # scaling Z and y by one integer keeps every beta and scales every loss
    scale = lcm(*(v.denominator for row in Zq for v in row), *(v.denominator for v in yq))
    Zi = [[int(v * scale) for v in row] for row in Zq]
    yi = [int(v * scale) for v in yq]
    best: list[tuple[Fraction, list[Fraction]] | None] = [None] * len(taus)
    for h in combinations(range(len(yq)), len(Zq[0])):
        beta = _solve_exact([Zq[i] for i in h], [yq[i] for i in h])
        if beta is None:
            continue
        # residuals times the common denominator d of beta, in integers
        d = lcm(*(b.denominator for b in beta))
        num = [b.numerator * (d // b.denominator) for b in beta]
        r = [v * d - sum(z * n for z, n in zip(row, num)) for row, v in zip(Zi, yi)]
        above = Fraction(sum(v for v in r if v > 0), d)
        below = Fraction(-sum(v for v in r if v < 0), d)
        for k, tau in enumerate(taus):
            candidate = (tau * above + (1 - tau) * below, beta)
            if best[k] is None or candidate < best[k]:
                best[k] = candidate
    return [b[1] for b in best]


def basis_walk_reference(Z: np.ndarray, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``mfdist.regress._basis_walk`` as it was when its ratio test ordered
    every crossing row with one full ``np.lexsort`` at each pivot; the body
    is unchanged from that version.  The current walk orders only the
    crossings up to its step, a prefix of the same order, so it must return
    these betas bit for bit and raise the same errors."""
    from scipy.linalg import qr

    from mfdist.errors import QuantileSolverError
    from mfdist.regress import _lex_descent_edge

    m, p = Z.shape
    h = np.sort(qr(Z.T, mode="r", pivoting=True)[1][:p])
    Q = qr(Z, mode="economic")[0]
    q_norm = np.abs(Q).sum(axis=1)
    u = np.random.default_rng(0).uniform(1.0, 2.0, m)
    betas = np.empty((taus.size, p))
    max_pivots = 10 * (m + taus.size)
    pivots = 0

    def vertex(h):
        Qh_inv = np.linalg.inv(Q[h])
        W = Q @ Qh_inv
        # rates and residuals below rounding level are zero
        W[np.abs(W) <= 1e-12 * np.max(np.abs(Qh_inv)) * q_norm[:, None]] = 0.0
        gamma = np.linalg.solve(Q[h], y[h])
        r = y - Q @ gamma
        r[np.abs(r) <= 1e-12 * (np.abs(y) + q_norm * np.max(np.abs(gamma)))] = 0.0
        r[h] = 0.0
        e = u - W @ u[h]  # the perturbation's residuals
        sign = np.where(r == 0.0, np.sign(e), np.sign(r))
        sign[h] = 0.0
        return W, r, e, sign

    W, r, e, sign = vertex(h)
    for i, tau in enumerate(taus):
        while True:
            # derivatives along the edges that raise (up) or lower (down)
            # each basis row's residual
            g = np.where(sign > 0.0, tau, np.where(sign < 0.0, tau - 1.0, 0.0)) @ W
            slopes = np.concatenate([g + tau, (1.0 - tau) - g])
            edge = int(np.argmin(slopes))
            k = edge % p
            descent = -slopes[edge]
            tol = 1e-12 * np.abs(W[:, k]).sum()
            if descent <= tol:
                # optimal; past a flat edge the argmin is a face
                edge = None
                if descent >= -tol:
                    edge = _lex_descent_edge(slopes, W, np.linalg.inv(Z[h]))
                if edge is None:
                    break
                k, descent = edge % p, 0.0
            pivots += 1
            if pivots > max_pivots:
                raise QuantileSolverError(
                    f"pinball basis walk exceeded {max_pivots} pivots at tau={tau}"
                )
            a = W[:, k] if edge < p else -W[:, k]
            crossing = np.flatnonzero(sign * a < 0.0)
            a_c = a[crossing]
            # order by the perturbed crossing times t + eps * t_eps
            t = -r[crossing] / a_c
            if descent == 0.0 and t.size:
                # a flat edge ends at its first crossing, where times equal up
                # to rounding must tie for the perturbation to order them
                t[t <= t.min() * (1.0 + 1e-12)] = t.min()
            order = np.lexsort((-e[crossing] / a_c, t))
            rise = np.cumsum(np.abs(a_c)[order])
            j = int(np.searchsorted(rise, descent))
            if j == order.size:
                raise QuantileSolverError(f"pinball objective unbounded at tau={tau}")
            h[k] = crossing[order[j]]
            h.sort()
            W, r, e, sign = vertex(h)
        betas[i] = np.linalg.solve(Z[h], y[h])
    return betas


def table_rows_line_loop(path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a table CSV that ``SampleTable.from_csv`` accepts, read
    one line and one ``float()`` at a time.

    Text mode ends lines at \\n, \\r\\n and \\r.  The header is assumed
    checked; returns (y, x) with x of shape (rows, n).
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines if line]
    data = np.array(rows).reshape(-1, n + 1)
    return data[:, 0].copy(), data[:, 1:].copy()


def with_intercept(features) -> np.ndarray:
    """The (rows, 1 + s) design of a (rows, s) feature block: a column of
    ones, then the block; a 1-d input is one feature column."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return np.hstack([np.ones((features.shape[0], 1)), features])


def write_table(table, path, costs_path) -> None:
    """Write a ``SampleTable`` as the CSV and cost JSON that
    ``SampleTable.from_csv`` reads, every value spelled by ``repr``."""
    import csv
    import json

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{i}" for i in range(1, len(table.costs) + 1)])
        for yi, xi in zip(table.y, table.x):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in xi])
    with open(costs_path, "w", encoding="utf-8") as fh:
        json.dump({"cost_y": table.cost_y, "costs": list(table.costs)}, fh)


@contextmanager
def traced_peak():
    """Trace the allocations of the ``with`` block.  On exit the yielded
    namespace holds ``peak``, the most bytes the block held at once beyond
    what was traced at its start, and ``held``, the bytes it still holds."""
    traced = SimpleNamespace(peak=0, held=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield traced
        current, peak = tracemalloc.get_traced_memory()
        traced.peak, traced.held = peak - before, current - before
    finally:
        tracemalloc.stop()
