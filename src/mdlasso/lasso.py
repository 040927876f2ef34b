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
allocated once per call, by bound ``ndarray.dot`` methods (``np.dot``
less its dispatch step) and ufuncs given the output array (ISTA's scalar
operands as 0-d arrays), in the plain expressions' order of operations.
For a C- or Fortran-contiguous X, as every drawn design is, ``X.dot(v)``
has the bits of ``X @ v`` (other strides may differ in the last bits); on
1-D arrays both call the BLAS ``ddot``, and ``np.add.reduce`` is ``sum``'s
pairwise sum. ``TestFastPathOracle`` shows the iterates, trace and
residual equal to the plain expressions' bit for bit.

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
import operator
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
    Xv, u = np.empty(prob.n), np.empty(prob.p)
    Xdot, XTdot, vdot, udot = prob.X.dot, prob.X.T.dot, v.dot, u.dot
    divide, sqrt = np.divide, math.sqrt
    rho_prev = rho = 0.0
    for _ in range(_POWER_ITERATIONS):
        Xdot(v, Xv)
        XTdot(Xv, u)
        rho = float(vdot(u))
        norm_u = sqrt(udot(u))
        if norm_u == 0.0:
            break
        divide(u, norm_u, v)
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
    The reported ``kkt_residual`` is exact at ``theta_hat``, never the lower
    bound. Non-convergence within ``max_iter``, an integer >= 1, is reported
    via the ``converged`` flag, not raised.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    max_iter = operator.index(max_iter)  # a float budget is never met
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X, Y, w = prob.X, prob.Y, prob.w
    Xdot, XTdot, add_reduce = X.dot, X.T.dot, np.add.reduce
    abs_, sign, maximum = np.abs, np.sign, np.maximum
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    mu1, scale = prob.coeffs.mu1, prob.n * prob.sigma2
    # a ufunc takes a 0-d array operand faster than a Python float
    neg_scale, two_scale, zero = np.array(-scale), 2.0 * scale, np.zeros(())
    kkt_level = mu1 * w
    step = level = None
    theta = np.zeros(prob.p)
    mag = np.zeros(prob.p)  # |theta|: the shrink's max(|x| - level, 0)
    resid = Y  # Y - X @ 0; later iterates' residuals go to ``fit``
    fit, g, work = np.empty(prob.n), np.empty(prob.p), np.empty(prob.p)
    trace, iterations = [], 0
    worst = 0  # the coordinate of the last vector bound's maximum
    # ||resid||^2 may overflow to inf (sigma2 near the float64 maximum); the
    # trace then carries it, and regret_certificate refuses the main term
    with np.errstate(over="ignore"):
        while True:
            XTdot(resid, g)
            divide(g, neg_scale, g)  # -(X^T resid) / scale, to the bit
            # |g_j| - level_j rounds to at most _kkt's term j, so a bound
            # > tol decides "no stop" alone; a NaN fails > and falls through
            kkt = abs(g.item(worst)) - kkt_level.item(worst)
            if not kkt > tol:
                abs_(g, work)
                subtract(work, kkt_level, work)
                worst = work.argmax()
                kkt = work.item(worst)
            if not kkt > tol or iterations == max_iter:
                kkt = _kkt(theta, g, kkt_level, work)
            if iterations == max_iter:
                break
            multiply(w, mag, work)
            trace.append(float(resid.dot(resid)) / two_scale
                         + mu1 * float(add_reduce(work)))
            if kkt <= tol:
                break
            if step is None:
                step = 1.0 / (_lipschitz(prob) * (1.0 + _STEP_HEADROOM))
                step, level = np.array(step), step * mu1 * w  # 0-d step
            # theta <- sign(x) * max(|x| - level, 0) at x = theta - step * g
            # (at x = -0.0 copysign gives -0.0, sign(x) * 0.0 gives +0.0)
            multiply(g, step, work)
            subtract(theta, work, work)
            abs_(work, mag)
            subtract(mag, level, mag)
            maximum(mag, zero, out=mag)  # a positional out is deprecated
            sign(work, work)
            multiply(work, mag, theta)
            iterations += 1
            Xdot(theta, fit)
            resid = subtract(Y, fit, fit)
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
