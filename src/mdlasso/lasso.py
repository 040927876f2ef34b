"""Weighted-l1 lasso via proximal gradient descent.

Objective (per-sample normalization, the constant mu2 excluded since it does
not move the argmin):

    F(theta) = ||Y - X theta||^2 / (2 n sigma2) + mu1 sum_j w_j |theta_j|,

with the empirical column weights w_j = sqrt((1/n) sum_i x_ij^2). The solver
is plain ISTA from theta = 0 with step 1/L, where L estimates
lambda_max(X^T X) / (n sigma2) by at most 100 power-iteration steps and is
inflated by a relative headroom of 1e-6. The power iteration can stop short
of lambda_max and underestimate it by more than that headroom, so a step is
not guaranteed to descend; ``objective_trace`` records every iterate's value
so descent can be checked. When theta = 0 already meets the KKT conditions
ISTA returns it without estimating L. Optimality is certified by the
subgradient (KKT) residual, so "converged" is a checkable statement about
the returned point rather than about step sizes.

Both iterations write their length-n and length-p vectors into arrays
allocated once per call, with the same floating-point operations in the
same order as the plain expressions. Their ``np.dot`` products give the
bits of ``X @ v`` for a C- or Fortran-contiguous X, as every drawn design
is (other strides may differ in the last bits), so the iterates are those
expressions' bits. ISTA's first residual is Y, which Y - X @ 0 is.

Each iteration first tests a lower bound on the KKT residual: |g_j| -
mu1 w_j at the coordinate j that last maximized it, then, if that is not
above tol, the maximum of |g| - mu1 w over all coordinates. Rounding is
monotone, so each term is at most the exact residual's term j; a bound
above tol rules the stop out, and only when it does not (or the budget is
spent) is the exact residual computed. The stop decisions, and so the
iterates, are those of computing it every time, and the reported
``kkt_residual`` is always the exact one. Only the exact residual
allocates, arrays the size of the nonzero set.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .penalty import PenaltyCoefficients, column_mean_squares, weighted_l1

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
_POWER_ITERATIONS = 100
_POWER_TOL = 1e-10
_STEP_HEADROOM = 1e-6  # guards against power-iteration underestimating L


@dataclass(frozen=True, eq=False)
class LassoProblem:
    """Design, response, noise variance, and penalty coefficients.

    ``mean_sq`` holds the design's column mean squares and ``w`` their
    square roots, the penalty weights; ``is_typical`` can reuse the former.
    ``X`` is a read-only view of the caller's float64 design, not a copy:
    the caller's array stays writeable, and writing it afterwards changes
    ``X`` but not ``mean_sq`` or ``w``. ``Y`` is contiguous: a strided
    response is copied, so that ``solve`` reads it as its first residual.
    """

    X: np.ndarray
    Y: np.ndarray
    sigma2: float
    coeffs: PenaltyCoefficients
    mean_sq: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64).view()
        Y = np.ascontiguousarray(self.Y, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if Y.shape[0] != X.shape[0]:
            raise ValueError(
                f"Y has {Y.shape[0]} entries but X has {X.shape[0]} rows")
        if not np.isfinite(Y).all():
            raise ValueError("Y must be finite")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(
                f"sigma2 must be positive and finite, got {self.sigma2}")
        mean_sq = column_mean_squares(X)  # rejects zero or non-finite columns
        for name, val in (("X", X), ("Y", Y), ("mean_sq", mean_sq),
                          ("w", np.sqrt(mean_sq))):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output with its optimality certificate.

    ``converged`` is True iff ``kkt_residual <= tol`` was reached within the
    iteration budget. ``objective_trace`` holds the objective at the start
    of every iteration plus the final value: two equal entries when
    theta = 0 is returned after 0 iterations. It is non-increasing whenever
    the estimated step is at most 1/lambda_max (see the module docstring).
    """

    theta_hat: np.ndarray
    objective_value: float
    iterations: int
    kkt_residual: float
    converged: bool
    objective_trace: np.ndarray


def objective(prob: LassoProblem, theta: np.ndarray) -> float:
    """F(theta); the additive constant mu2 is excluded. At theta = 0 the
    fit ||Y||^2 / (2 n sigma2) is returned: the same bits, no product."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != prob.p:
        raise ValueError(f"theta has {theta.shape[0]} entries, expected {prob.p}")
    with np.errstate(over="ignore"):  # an overflow returns inf, unwarned
        if not np.count_nonzero(theta):
            return float(prob.Y @ prob.Y) / (2.0 * prob.n * prob.sigma2)
        resid = prob.Y - prob.X @ theta
        fit = float(resid @ resid) / (2.0 * prob.n * prob.sigma2)
    return fit + prob.coeffs.mu1 * weighted_l1(theta, prob.w)


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0); elementwise on arrays."""
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("threshold must be non-negative")
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kkt(theta: np.ndarray, g: np.ndarray, level: np.ndarray,
         out: np.ndarray) -> float:
    """``kkt_residual`` at theta from its gradient g, worked in ``out``
    (shaped like g, overwritten): |g| - level at every coordinate, the
    nonzero ones recomputed, and the maximum clamped at 0, which clamps
    each zero coordinate's term."""
    np.abs(g, out=out)
    np.subtract(out, level, out=out)
    active = theta.nonzero()[0]
    if active.size:
        out[active] = np.abs(g[active] + level[active] * np.sign(theta[active]))
    return max(float(out.max()), 0.0)


def kkt_residual(prob: LassoProblem, theta: np.ndarray) -> float:
    """Max-norm violation of the subgradient optimality conditions.

    For active coordinates, |g_j + mu1 w_j sign(theta_j)|; for zero
    coordinates, max(|g_j| - mu1 w_j, 0). Zero exactly at a minimizer.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != prob.p:
        raise ValueError(f"theta has {theta.shape[0]} entries, expected {prob.p}")
    g = -(prob.X.T @ (prob.Y - prob.X @ theta)) / (prob.n * prob.sigma2)
    return _kkt(theta, g, prob.coeffs.mu1 * prob.w, np.empty_like(g))


def _lipschitz(prob: LassoProblem) -> float:
    """Power-iteration estimate of lambda_max(X^T X) / (n sigma2)."""
    rng = np.random.default_rng(0)  # fixed: the estimate is deterministic
    v = rng.standard_normal(prob.p)
    v /= math.sqrt(v @ v)
    X, XT, dot = prob.X, prob.X.T, np.dot
    Xv = np.empty(prob.n)
    u = np.empty(prob.p)
    rho_prev = 0.0
    rho = 0.0
    for _ in range(_POWER_ITERATIONS):
        dot(X, v, out=Xv)
        dot(XT, Xv, out=u)
        rho = float(v @ u)
        norm_u = math.sqrt(u @ u)
        if norm_u == 0.0:
            break
        np.divide(u, norm_u, out=v)
        if abs(rho - rho_prev) <= _POWER_TOL * max(1.0, abs(rho)):
            break
        rho_prev = rho
    return max(rho, 1e-300) / (prob.n * prob.sigma2)


def solve(prob: LassoProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Minimize the objective from theta = 0 until the KKT residual <= tol.

    The gradient at theta = 0 is computed first, from the residual Y; if
    theta = 0 already meets the KKT conditions it is returned after 0
    iterations, the step size is never estimated, and its objective value
    takes no product. Otherwise the step is estimated once and that
    gradient serves as the first iteration's.
    An iteration computes the exact KKT residual only when its lower bound
    (see the module docstring) is not above tol, or when the budget is
    spent, so the reported ``kkt_residual`` is always the exact residual
    at ``theta_hat``, never the bound.
    Non-convergence within ``max_iter`` is reported via the ``converged``
    flag, not raised.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X, Y, w = prob.X, prob.Y, prob.w
    XT, dot = X.T, np.dot
    mu1 = prob.coeffs.mu1
    scale = prob.n * prob.sigma2
    kkt_level = mu1 * w
    step = level = None
    theta = np.zeros(prob.p)
    mag = np.zeros(prob.p)  # |theta|: the shrink's max(|x| - level, 0)
    resid = Y  # Y - X @ 0; later iterates' residuals go to ``fit``
    fit = np.empty(prob.n)
    g = np.empty(prob.p)
    work = np.empty(prob.p)
    trace = []
    iterations = 0
    worst = 0  # the coordinate of the last vector bound's maximum
    # Each expression keeps its association order, e.g. (step * mu1) * w:
    # the iterates are pinned bit for bit (TestFastPathOracle).
    # ||resid||^2 may overflow to inf (sigma2 near the float64 maximum); the
    # trace then carries it, and regret_certificate refuses the main term
    with np.errstate(over="ignore"):
        while True:
            dot(XT, resid, out=g)
            np.divide(g, -scale, out=g)  # -(X^T resid) / scale, to the bit
            # |g_j| - level_j rounds to at most _kkt's term j, so a bound
            # > tol decides "no stop" alone; a NaN fails > and falls through
            kkt = abs(g[worst]) - kkt_level[worst]
            if not kkt > tol:
                np.abs(g, out=work)
                np.subtract(work, kkt_level, out=work)
                worst = int(work.argmax())
                kkt = work[worst]
            if not kkt > tol or iterations == max_iter:
                kkt = _kkt(theta, g, kkt_level, work)
            if iterations == max_iter:
                break
            np.multiply(w, mag, out=work)
            trace.append(float(resid @ resid) / (2.0 * scale)
                         + mu1 * float(work.sum()))
            if kkt <= tol:
                break
            if step is None:
                step = 1.0 / (_lipschitz(prob) * (1.0 + _STEP_HEADROOM))
                level = step * mu1 * w
            # theta <- sign(x) * max(|x| - level, 0) at x = theta - step * g
            np.multiply(g, step, out=work)
            np.subtract(theta, work, out=work)
            np.abs(work, out=mag)
            np.subtract(mag, level, out=mag)
            np.maximum(mag, 0.0, out=mag)
            np.sign(work, out=work)
            np.multiply(work, mag, out=theta)
            iterations += 1
            dot(X, theta, out=fit)
            resid = np.subtract(Y, fit, out=fit)
    obj = objective(prob, theta)
    trace.append(obj)
    return SolveReport(
        theta_hat=theta,
        objective_value=obj,
        iterations=iterations,
        kkt_residual=kkt,
        converged=kkt <= tol,
        objective_trace=np.asarray(trace),
    )
