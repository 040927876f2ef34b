"""Weighted-l1 penalty construction and its prefix-code certificates.

The penalty mu1 ||theta||_{w,1} + mu2 with column-normalizing weights
w_j = sqrt((1/n) sum_i x_ij^2) is the one penalty family this package
builds bounds for. ``min_coefficients`` returns the smallest (mu1, mu2)
for which the random-design risk/regret bounds of the ``bounds`` module
hold (per-sample normalization: the data-fit term of the objective is
divided by 2 n sigma2); the validity of those coefficients is a
certified-by-construction fact of that formula, not a decidable predicate
over arbitrary penalties.

The quantization grid behind the certificate is delta * diag(w_star)^{-1} Z^p
with population weights w_star_j = sqrt(cov_jj). Rounding a coefficient
vector onto the grid is randomized and unbiased (also in absolute value),
and the integer grid labels z carry the description length

    L(z) = (||z||_1 log(4 p) + log 2) / beta,

whose beta-weighted exponential sum over all of Z^p has the closed form
(1/2) (1 + 2/(4p - 1))^p <= 1, i.e. L is a (beta-stronger) prefix codelength.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidOrderError, require_count, require_positive,
                     require_unit_interval, require_vector, require_weights)
from .model import DivergenceOrder
from .seeding import substream


def column_mean_squares(X: np.ndarray) -> np.ndarray:
    """Column mean squares (1/n) sum_i x_ij^2, the squared weights w_j^2.

    Summed without an n x p temporary of squares. For a C-ordered X with
    p > 1 the result equals ``np.mean(X ** 2, axis=0)`` bit for bit; where
    the summed axis is contiguous (p = 1, or Fortran order), numpy sums
    pairwise and the two may differ in the last bits. Validity is checked
    on the extreme mean squares; a mask is built only to name a bad column.

    Raises
    ------
    ValueError
        If X is not 2-D or has no rows, or any column is identically zero,
        holds a non-finite entry, or has a mean square that overflows or
        that underflows to 0 (entries below ~1e-154 in magnitude).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got shape {X.shape}")
    n = require_count("design matrix rows", X.shape[0])
    mean_sq = np.einsum("ij,ij->j", X, X) / n
    if not (np.minimum.reduce(mean_sq, initial=np.inf) > 0.0
            and np.maximum.reduce(mean_sq, initial=0.0) < np.inf):
        valid = (mean_sq > 0.0) & (mean_sq < np.inf)  # False for NaN too
        j = int(np.argmin(valid))
        if mean_sq[j] != 0.0:
            what = "has a non-finite entry or a mean square that overflows"
        elif np.any(X[:, j]):
            what = "has a mean square that underflows to 0"
        else:
            what = "is identically zero"
        raise ValueError(f"column {j} of the design matrix {what}")
    return mean_sq


def weighted_l1(theta: np.ndarray, w: np.ndarray) -> float:
    """Weighted l1 norm sum_j w_j |theta_j|."""
    w = require_weights("w", w)
    return float(np.sum(w * np.abs(require_vector("theta", theta, w.size))))


@dataclass(frozen=True)
class PenaltyCoefficients:
    """Coefficients (mu1, mu2) of the penalty mu1 ||theta||_{w,1} + mu2."""

    mu1: float
    mu2: float

    def __post_init__(self):
        require_positive("mu1", self.mu1)
        require_positive("mu2", self.mu2)


def require_admissible(order: DivergenceOrder, beta: float) -> None:
    """Raise ``InvalidOrderError`` unless lam <= 1 - beta (to 1e-12), the
    pairs for which the risk and regret bounds hold."""
    if order.lam > 1.0 - beta + 1e-12:
        raise InvalidOrderError(f"inadmissible pair: lam={order.lam} exceeds "
                                f"1 - beta = {1.0 - beta}")


def min_coefficients(n: int, p: int, order: DivergenceOrder, beta: float,
                     eps: float, sigma2: float) -> PenaltyCoefficients:
    """Minimal (mu1, mu2) for which the random-design bounds hold.

        mu1 = sqrt( log(4p) / (n beta sigma2 (1 - eps))
                    * (lam + 8 sqrt(1 - eps^2)) / 4 )
        mu2 = log(2) / (n beta)

    Per-sample normalization: these coefficients pair with the objective
    ||Y - X theta||^2 / (2 n sigma2) + mu1 ||theta||_{w,1}. The unnormalized
    objective (no 1/n in the data-fit term) uses n * mu1 and n * mu2.

    Raises
    ------
    TypeError
        If n or p is not an integer (``200.5``, say).
    InvalidOrderError
        If lam > 1 - beta (outside the admissible range of the bounds).
    ValueError
        If n, p, beta, eps, or sigma2 are out of range, sigma2 among them
        when it is so large or so small for this n that mu1^2 rounds to 0
        or overflows.
    """
    n, p = require_count("n", n), require_count("p", p)
    require_unit_interval("beta", beta)
    require_unit_interval("eps", eps)
    require_positive("sigma2", sigma2)
    require_admissible(order, beta)
    mu1_sq = math.log(4.0 * p) / (n * beta * sigma2 * (1.0 - eps)) \
        * (order.lam + 8.0 * math.sqrt(1.0 - eps ** 2)) / 4.0
    if not 0.0 < mu1_sq < math.inf:
        raise ValueError(f"sigma2={sigma2} is out of range for n={n}: "
                         f"mu1^2 = {mu1_sq}")
    return PenaltyCoefficients(math.sqrt(mu1_sq), math.log(2.0) / (n * beta))


def fixed_design_mu1(n: int, p: int, sigma2: float) -> float:
    """Minimal mu1 in the fixed-design case, sqrt(2 log(4p) / (n sigma2)).

    Same per-sample normalization as ``min_coefficients``.
    """
    n, p = require_count("n", n), require_count("p", p)
    require_positive("sigma2", sigma2)
    return math.sqrt(2.0 * math.log(4.0 * p) / (n * sigma2))


def design_ratio(order: DivergenceOrder) -> float:
    """Random-design / fixed-design ratio of minimal mu1 at eps -> 0, beta = 1 - lam.

    sqrt((lam + 8) / (8 (1 - lam))); >= 1 and strictly increasing on (0, 1).
    """
    lam = order.lam
    return math.sqrt((lam + 8.0) / (8.0 * (1.0 - lam)))


def grid_codelength(z: np.ndarray, p: int, beta: float) -> float:
    """Description length of grid label z: (||z||_1 log(4p) + log 2) / beta.

    ``beta`` may be 1 (plain prefix codelength) or in (0, 1) (the
    beta-stronger variant divides the base codelength by beta).
    """
    p = require_count("p", p)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.integer):
        zr = np.rint(z)
        if not np.array_equal(zr, z):
            raise ValueError("grid labels must be integers")
        z = zr.astype(np.int64)
    return (float(np.sum(np.abs(z))) * math.log(4.0 * p) + math.log(2.0)) / beta


def kraft_sum(p: int) -> float:
    """Exact value of sum_{z in Z^p} exp(-beta * grid_codelength(z, p, beta)).

    beta cancels (exp(-beta L) = (4p)^{-||z||_1} / 2), so the sum takes no
    beta, and the sum over the infinite grid factorizes into a geometric
    series per coordinate:

        (1/2) (1 + 2 / (4p - 1))^p,

    which is <= 1 for every p >= 1, so the grid codelength is a valid
    (beta-stronger) prefix codelength.
    """
    p = require_count("p", p)
    return 0.5 * math.exp(p * math.log1p(2.0 / (4.0 * p - 1.0)))


@dataclass(frozen=True, eq=False)
class QuantizerSpec:
    """Grid width delta and population weights."""

    delta: float
    w_star: np.ndarray

    def __post_init__(self):
        require_positive("delta", self.delta)
        object.__setattr__(self, "w_star", require_weights("w_star", self.w_star))


def randomize_quantize(theta: np.ndarray, spec: QuantizerSpec, seed: int) -> np.ndarray:
    """Randomized rounding of theta onto the grid delta * diag(w_star)^{-1} Z^p.

    With m_j = w_star_j theta_j / delta, component j rounds up to
    ceil(m_j) with probability m_j - floor(m_j) and down to floor(m_j)
    otherwise; components already on the grid are returned unchanged.
    Components are independent. The rounded vector is unbiased, entrywise
    absolutely unbiased, and its per-component squared error is at most
    (delta / w_star_j) |theta_j| in expectation.
    """
    w = spec.w_star
    theta = require_vector("theta", theta, w.size)
    m = w * theta / spec.delta
    lo = np.floor(m)
    frac = m - lo
    u = substream(seed).random(theta.size)
    z = lo + (u < frac)
    out = spec.delta * z / w
    on_grid = frac == 0.0
    out[on_grid] = theta[on_grid]
    return out
