"""Least-squares and quantile-regression fits on exploration data.

Both fitters operate on an explicit design matrix whose first column is the
intercept (see :meth:`mfdist.models.FeatureMap.design`).  The least-squares
path uses an SVD-based solve, never the normal equations; the quantile path
walks the vertices of the pinball objective's linear program exactly, by
simplex pivots shared across the quantile levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linprog  # noqa: F401  (unused; perfbench/spans.py patches this name)

from .errors import InsufficientSampleError, QuantileSolverError

__all__ = [
    "FitResult",
    "QuantileFit",
    "ols_fit",
    "quantile_fit",
]

@dataclass(frozen=True)
class FitResult:
    """Output of an ordinary least-squares fit.

    ``sigma2_hat`` is ||residuals||^2 / (rows - cols), i.e. the model-variance
    estimate with the degrees-of-freedom correction.  ``rank_ok`` is False
    when the design was numerically rank-deficient and ``beta_hat`` is the
    minimum-norm solution.
    """

    beta_hat: np.ndarray
    residuals: np.ndarray
    sigma2_hat: float
    rank_ok: bool


@dataclass(frozen=True)
class QuantileFit:
    """Per-level quantile-regression coefficients on a fixed grid of levels."""

    taus: np.ndarray
    betas: np.ndarray  # shape (len(taus), cols)

    def predict(self, features_with_intercept: np.ndarray, level_idx) -> np.ndarray:
        """Evaluate x^T beta(tau) rowwise, with a level index per row."""
        return np.einsum(
            "ij,ij->i", features_with_intercept, self.betas[level_idx]
        )


def _check_design(Z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or y.ndim != 1:
        raise ValueError("expected a 2-d design and a 1-d response")
    rows, cols = Z.shape
    if y.size != rows:
        raise ValueError(f"response length {y.size} does not match {rows} design rows")
    if rows <= cols:
        raise InsufficientSampleError(
            f"need strictly more rows than columns, got {rows} rows x {cols} cols"
        )
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(y))):
        raise ValueError("design and response must be finite")
    return Z, y


def ols_fit(Z: np.ndarray, y: np.ndarray) -> FitResult:
    """Least-squares fit via SVD; minimum-norm solution on rank deficiency.

    The rank test compares the smallest singular value against
    rows * machine-epsilon * largest singular value.
    """
    return _ols(*_check_design(Z, y))


def _ols(Z: np.ndarray, y: np.ndarray) -> FitResult:
    """:func:`ols_fit` on a design and response that passed _check_design."""
    rows, cols = Z.shape
    rcond = rows * np.finfo(np.float64).eps
    beta, _, rank, _ = np.linalg.lstsq(Z, y, rcond=rcond)
    residuals = y - Z @ beta
    sigma2 = float(residuals @ residuals) / (rows - cols)
    return FitResult(beta, residuals, sigma2, rank_ok=bool(rank == cols))


def _lex_descent_edge(slopes: np.ndarray, W: np.ndarray, Zh_inv: np.ndarray) -> int | None:
    """A flat edge along which beta's first changing coefficient falls, the
    earliest such coefficient first; None at the face's lexicographically
    smallest vertex.  Along the edges raising and lowering basis row k's
    residual, beta moves by -inv(Z_h)[:, k] and +inv(Z_h)[:, k]."""
    p = Zh_inv.shape[0]
    flat = np.flatnonzero(slopes <= np.tile(1e-12 * np.abs(W).sum(axis=0), 2))
    moves = np.hstack([-Zh_inv, Zh_inv])[:, flat]
    moves[np.abs(moves) <= 1e-12 * np.max(np.abs(Zh_inv))] = 0.0
    first = np.argmax(moves != 0.0, axis=0)
    lead = np.where(moves[first, np.arange(flat.size)] < 0.0, first, p)
    return int(flat[np.argmin(lead)]) if np.any(lead < p) else None


def _basis_walk(Z: np.ndarray, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Exact minimizers of sum_i pinball(y_i - z_i^T beta, tau), level by
    level, for a design of full column rank.

    A Barrodale-Roberts simplex walk over vertices, i.e. coefficient vectors
    that fit ``cols`` basis rows exactly, warm-started at each level from the
    previous level's optimal basis (the parametric path of Koenker and
    d'Orey, AS 229).  From a vertex, the 2 * cols edges free one basis row's
    residual upwards or downwards while the others stay at zero; along the
    edge freeing row k, the residuals change at the rate +-W[:, k] with
    W = Z inv(Z_h).  The steepest descending edge is followed up to the
    weighted median of its residual sign changes, and the row crossing zero
    there replaces row k.

    Vertices, edges and W do not change when the coefficients change
    coordinates, so the walk takes W = Q inv(Q_h) and the residuals from the
    orthonormal factor Q of Z = QR, whose rounding does not grow with
    cond(Z); each level's beta is solved from Z's basis rows.  The walk stops
    at a basis none of whose edges descends: that test, recomputed from
    scratch at the final basis, is the dual feasibility of the pinball LP
    (Koenker, *Quantile Regression*, 2005, sec. 2.2), so it is the level's
    optimality certificate.

    A residual off the basis that is zero up to rounding takes its sign from
    a fixed symbolic perturbation y + eps * u of the response (Charnes'
    perturbation), so every vertex is nondegenerate: the edge test is then a
    complete optimality test, a zero row can enter the basis by a step of
    length zero, and the perturbed objective falls at every pivot.

    When the walk stops on an edge of slope zero, the argmin may be a face.
    The walk then minimizes beta lexicographically on it: it follows flat
    edges along which beta's first changing coefficient falls, each to its
    first crossing, until none is left.  The objective (loss, beta_1, ...,
    beta_cols) then falls lexicographically at every pivot, so the walk
    cannot cycle, and it stops at the face's lexicographically smallest
    vertex (Dantzig, Orden and Wolfe 1955).
    """
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


def _pinball_path(Z: np.ndarray, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Exact pinball minimizers at every level, by one basis walk on the
    orthonormal factor of the design, whose stop test certifies each level.

    A rank-deficient design is reduced to the independent columns picked by
    a pivoted QR; the other coefficients are zero, which leaves the fitted
    values, and so the loss, those of an optimum.
    """
    R, cols = qr(Z, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(Z.shape) * np.finfo(np.float64).eps))
    cols = np.sort(cols[:rank])
    betas = np.zeros((taus.size, Z.shape[1]))
    if rank:
        betas[:, cols] = _basis_walk(Z[:, cols], y, taus)
    return betas


def quantile_fit(Z: np.ndarray, y: np.ndarray, taus) -> QuantileFit:
    """Fit one pinball-loss minimizer per level of a strictly increasing grid.

    The levels are solved exactly by one simplex walk over the vertices of
    the pinball objective (:func:`_basis_walk`), each level starting from the
    previous level's optimal basis.  The walk runs on the orthonormal factor
    of the design, and its stop test, dual feasibility of the final basis, is
    each level's optimality certificate; a walk that exceeds its pivot cap or
    finds the objective unbounded raises :class:`QuantileSolverError`.  When
    the argmin is a face rather than a vertex, the walk returns its
    lexicographically smallest point, so e.g. an even-sample median resolves
    to the lower middle order statistic (on a rank-deficient design, among
    the points zero off the columns kept).
    """
    Z, y = _check_design(Z, y)
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1 or np.any(np.diff(taus) <= 0.0):
        raise ValueError("quantile levels must form a strictly increasing 1-d grid")
    bad = ~((taus > 0.0) & (taus < 1.0))
    if np.any(bad):
        raise ValueError(f"tau must lie in (0, 1), got {taus[bad][0]!r}")
    return QuantileFit(taus=taus, betas=_pinball_path(Z, y, taus))
