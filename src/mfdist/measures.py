"""One-dimensional empirical measures and the metrics computed on them.

An :class:`EmpiricalMeasure` is the uniform law on a finite, sorted sample of
real atoms, weight 1/N per atom.  The 1-Wasserstein distance and the
CDF-variation integrals used by the budget-allocation policy are computed
exactly from the piecewise-constant CDF; nothing here is estimated
by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSampleError
from .models import _BLOCK_ROWS

__all__ = [
    "EmpiricalMeasure",
    "MomentSummary",
    "cdf_at",
    "wasserstein1",
    "j_functionals",
    "moment_summary",
    "sample_inverse_transform",
]

# two measures whose sizes differ by at most this factor are compared
# piece by piece, in O(M); a larger ratio leaves the O(n log M) search path
# against the larger measure's cached prefix sums cheaper
_UNIFORM_RATIO = 16
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform empirical measure on the real line: weight 1/N on each atom.

    ``atoms`` must be sorted non-decreasing and finite.  Duplicate atoms are
    retained and carry their multiplicity, so a measure with rational weights
    k/K is the measure on its atoms repeated k times.  Levels are not stored:
    each reader computes the i/N it needs, correctly rounded, so a sample and
    its k-fold repetition are the same measure.  Instances are immutable
    (``atoms`` is frozen) and safe to share across threads.
    """

    atoms: np.ndarray
    _prefix: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 1:
            raise ValueError("atoms must be one-dimensional")
        if atoms.size == 0:
            raise ValueError("an empirical measure needs at least one atom")
        # checked over slices of _BLOCK_ROWS atoms, each overlapping the next by
        # one atom, so no check builds an N-byte boolean array
        parts = [atoms[i:i + _BLOCK_ROWS + 1] for i in range(0, atoms.size, _BLOCK_ROWS)]
        if not all(np.isfinite(part).all() for part in parts):
            raise ValueError("atoms must be finite")
        if any((part[1:] < part[:-1]).any() for part in parts):
            raise ValueError("atoms must be sorted non-decreasing")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalMeasure":
        """Uniform measure with weight 1/N on each of N raw samples (sorted)."""
        return cls(np.sort(np.asarray(samples, dtype=np.float64)))

    @property
    def size(self) -> int:
        return int(self.atoms.size)

    def _prefix_sums(self) -> tuple[float, np.ndarray]:
        """(shift, [0, cumsum((atoms - shift) / N)]); entry k integrates Q - shift to k/N.

        Built on first use and frozen like ``atoms``.  ``shift`` is the mean,
        so the second prefix sum stays of the order of the spread instead of
        cancelling at the order of the atoms; it is accumulated in extended
        precision and rounded once, so its error does not grow with the size.
        Threads racing on a shared measure build identical arrays, so
        whichever store lands is correct.
        """
        if self._prefix is None:
            # a dot product against 1/N, not a mean: the two round differently
            shift = float(np.full(self.size, 1.0 / self.size) @ self.atoms)
            integral = np.zeros(self.size + 1)
            np.subtract(self.atoms, shift, out=integral[1:])
            integral[1:] *= 1.0 / self.size
            carry = np.longdouble(0.0)
            for start in range(1, self.size + 1, _CHUNK):
                part = np.cumsum(integral[start:start + _CHUNK], dtype=np.longdouble)
                part += carry
                carry = part[-1]
                integral[start:start + _CHUNK] = part
            integral.flags.writeable = False
            object.__setattr__(self, "_prefix", (shift, integral))
        return self._prefix


@dataclass(frozen=True)
class MomentSummary:
    """Sample moments of an empirical measure.

    ``variance`` carries the unbiased correction; ``skewness`` and
    ``kurtosis`` are the biased standardized central moments.  ``kurtosis``
    is non-excess (a large normal sample gives ~3, not ~0).
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float


def cdf_at(m: EmpiricalMeasure, x):
    """Right-continuous CDF F(x), the share of atoms <= x: a float, or an array for an array x."""
    cdf = np.searchsorted(m.atoms, x, side="right") / m.size
    return float(cdf) if np.ndim(cdf) == 0 else cdf


def _rank(n: int, u):
    """Least j with j/n >= u in floats: for u in [0, 1], the index that
    ``np.searchsorted`` (side "left") finds for u among the levels i/n.
    ceil(u * n) is at most one off, as the product rounds."""
    j = np.ceil(u * n)
    j -= (j - 1.0) / n >= u
    j += j / n < u
    return j.astype(np.intp)


def _w1_uniform(small: EmpiricalMeasure, large: EmpiricalMeasure) -> float:
    """W1 of two uniform measures, n = small.size <= M = large.size.

    In units of 1/(nM) the larger measure's quantile block j is [jn, (j+1)n).
    It meets the smaller measure's blocks i = floor(jn/M) and i + 1 only, for
    integer lengths h = min((i+1)M - jn, n) and n - h.  So the integral is a
    sum of integer-weighted |differences| with no search and no prefix sum,
    taken over fixed chunks of j so temporaries stay O(chunk).
    """
    n, m = small.size, large.size
    x = small.atoms
    total = 0.0
    for start in range(0, m, _CHUNK):
        y = large.atoms[start:start + _CHUNK]
        jn = np.arange(start * n, (start + y.size) * n, n)
        i = jn // m
        h = (i + 1) * m - jn
        np.minimum(h, n, out=h)
        near = np.abs(x[i] - y)
        near *= h
        np.minimum(i + 1, n - 1, out=i)
        far = np.abs(x[i] - y)
        far *= n - h
        total += float(near.sum()) + float(far.sum())
    return total / (n * m)


def wasserstein1(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance: the L1 distance between the two CDFs.

    Two measures whose sizes differ by at most a factor 16 integrate
    |Q_a - Q_b| over integer-length quantile pieces, in O(n + M) arithmetic.
    Otherwise the distance is integrated over the smaller measure's blocks
    ((i-1)/n, i/n] of constant quantile x: the larger measure's quantile
    crosses x once, at u* = clip(F(x), lo, hi), and both one-signed pieces
    come from its cached prefix sums.  That costs O(n log M) with n < M and
    sorts nothing.  No sampling, no approximation.
    """
    small, large = (a, b) if a.size <= b.size else (b, a)
    if large.size <= _UNIFORM_RATIO * small.size:
        return _w1_uniform(small, large)
    shift, integral = large._prefix_sums()

    def integral_to(u: np.ndarray) -> np.ndarray:
        # integral of Q_large - shift over (0, u]; piecewise linear in u
        k = np.clip(_rank(large.size, u) - 1, 0, large.size - 1)
        return integral[k] + (u - k / large.size) * (large.atoms[k] - shift)

    x = small.atoms - shift
    edges = np.arange(small.size + 1.0) / small.size
    lo, hi = edges[:-1], edges[1:]
    cross = np.clip(cdf_at(large, small.atoms), lo, hi)
    at_edges, at_cross = integral_to(edges), integral_to(cross)
    below = x * (cross - lo) - (at_cross - at_edges[:-1])
    above = (at_edges[1:] - at_cross) - x * (hi - cross)
    # each piece is non-negative exactly; clamp the roundoff of the differences
    return float(np.maximum(below, 0.0).sum() + np.maximum(above, 0.0).sum())


def j_functionals(m: EmpiricalMeasure) -> tuple[float, float]:
    """Integrals of F(1-F) and sqrt(F(1-F)) over the support.

    These two CDF-variation integrals bound the expected 1-Wasserstein error
    of an N-sample empirical measure from below and above (both scale as
    1/sqrt(N)).  Exact for the piecewise-constant CDF; both are 0 for a
    point mass.
    """
    v = _cdf_variation(m.size)
    return float(v @ np.diff(m.atoms)), _j1(m.atoms, np.sqrt(v))


def _cdf_variation(n: int) -> np.ndarray:
    """F(1 - F) >= 0 at the levels i/n, i = 1..n-1, of an n-atom measure."""
    f = np.arange(1.0, n) / n
    return f * (1.0 - f)


def _j1(values: np.ndarray, root_variation: np.ndarray) -> float:
    """J1 of sorted ``values``, given sqrt(_cdf_variation(values.size))."""
    return float(root_variation @ (values[1:] - values[:-1]))  # np.diff, less overhead


def moment_summary(m: EmpiricalMeasure) -> MomentSummary:
    """Mean, unbiased variance, and biased standardized skewness/kurtosis.

    Requires at least 2 atoms for the variance, 3 for the skewness, and 4 for
    the kurtosis; since all four statistics are returned, fewer than 4 atoms
    is an error.  The unbiased variance is the second central moment times
    N/(N - 1).
    """
    for threshold, name in ((2, "variance"), (3, "skewness"), (4, "kurtosis")):
        if m.size < threshold:
            raise InsufficientSampleError(
                f"{name} needs at least {threshold} atoms, measure has {m.size}"
            )
    # dot products against 1/N, not means: the two round differently.  They
    # run over blocks of atoms, so temporaries stay O(block); fsum adds blocks
    w = np.full(min(m.size, _BLOCK_ROWS), 1.0 / m.size)
    blocks = [m.atoms[start:start + _BLOCK_ROWS] for start in range(0, m.size, _BLOCK_ROWS)]
    mean = math.fsum(w[:a.size] @ a for a in blocks)
    # a second centring takes out the rounding of the first mean
    shift = math.fsum(w[:a.size] @ (a - mean) for a in blocks)
    parts = []
    for a in blocks:
        dev = a - mean - shift
        sq = dev * dev  # products, not float powers: x**3 or x**4 is a libm pow call
        parts.append([w[:a.size] @ power for power in (sq, sq * dev, sq * sq)])
    m2, m3, m4 = (math.fsum(column) for column in zip(*parts))
    if m2 == 0.0:
        raise InsufficientSampleError("degenerate sample: all atoms identical")
    return MomentSummary(mean + shift, m2 * m.size / (m.size - 1), m3 / m2**1.5, m4 / m2**2)


def sample_inverse_transform(m: EmpiricalMeasure, u):
    """Inverse-transform sampling: evaluate the quantile function at u, the
    smallest atom whose CDF value j/N reaches u (left-continuous in u).

    Accepts a scalar in (0, 1] or an array of such values; feeding uniform
    draws reproduces the measure in distribution.  NaN is rejected.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all((u_arr > 0.0) & (u_arr <= 1.0)):
        raise ValueError(f"quantile levels must lie in (0, 1], got {u!r}")
    # 0 < u <= 1, so the rank lands in [1, N]
    out = m.atoms[_rank(m.size, u_arr) - 1]
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out
