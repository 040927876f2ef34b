"""Typical designs: membership test and probability lower bounds.

A design X is eps-typical for covariance cov when every column's mean
square stays within relative eps of its expectation:

    1 - eps <= ((1/n) sum_i x_ij^2) / cov_jj <= 1 + eps   for all j.

For i.i.d. Gaussian rows the membership probability P is bounded below by a
chain of three closed forms (with D = (n/2)(eps - log(1 + eps))):

    (1 - 2 e^{-D})^p  >=  1 - 2p e^{-D}  >=  1 - 2p e^{-n eps^2 / 7}.

The product form needs independent columns (``cov=None`` or a diagonal
covariance, as on every CLI path); for a general covariance only the two
union-bound forms are proven.

The exponent D is a Sanov/Chernoff-type bound on the one-sided tail of a
column mean square, which follows a Gamma(n/2, 2 cov_jj / n) law; the lower
tail has the larger exponent (n/2)(-eps - log(1 - eps)). The constant 7 is the
smallest integer a with 1/a <= (1 - log 2)/2, making eps^2/7 a valid
simplification of D/n on all of (0, 1].
"""

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ProbBoundTriple:
    """The three nested lower bounds on the typical-set probability.

    ``exact_product`` is clamped to 0 (and ``vacuous`` set) when the
    per-column factor 1 - 2 e^{-D} is not positive, since a probability
    lower bound below zero carries no information; ``log_exact_product`` =
    p log(1 - 2 e^{-D}) is then -inf. ``linearized`` and ``simplified`` may
    be negative. ``exact_product`` bounds P only for independent columns
    (``cov=None`` or diagonal); ``linearized`` and ``simplified`` hold for
    any covariance.
    """

    exact_product: float
    log_exact_product: float
    linearized: float
    simplified: float
    vacuous: bool


def is_typical(mean_sq: np.ndarray, cov: Optional[np.ndarray],
               eps: float) -> bool:
    """True iff every column mean square is within relative eps of cov_jj.

    ``mean_sq`` holds the design's column mean squares (1/n) sum_i x_ij^2,
    as ``penalty.column_mean_squares`` computes them and
    ``LassoProblem.mean_sq`` keeps them. ``cov`` is a p x p matrix, or None
    for the identity. The interval is closed: a ratio exactly equal to
    1 +/- eps is typical. Only the extreme ratios are compared; a NaN fails.
    """
    mean_sq = np.asarray(mean_sq, dtype=np.float64)
    if mean_sq.ndim != 1:
        raise ValueError(
            f"column mean squares must be 1-D, got shape {mean_sq.shape}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    ratio = mean_sq
    if cov is not None:
        cov = np.asarray(cov, dtype=np.float64)
        if cov.shape != (mean_sq.size, mean_sq.size):
            raise ValueError(
                f"covariance must be {mean_sq.size}x{mean_sq.size} for "
                f"{mean_sq.size} columns, got shape {cov.shape}")
        diag = np.diag(cov)
        if not np.all(diag > 0.0):
            raise ValueError("covariance diagonal must be strictly positive")
        ratio = mean_sq / diag
    return bool(ratio.min(initial=np.inf) >= 1.0 - eps
                and ratio.max(initial=-np.inf) <= 1.0 + eps)


def sanov_exponent(n: int, eps: float) -> float:
    """Upper-tail Gamma exponent D = (n/2)(eps - log(1 + eps)).

    The lower tail's exponent (n/2)(-eps - log(1 - eps)) dominates it for
    every eps in (0, 1), so 2 e^{-D} bounds both tails together.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return (n / 2.0) * (eps - math.log1p(eps))


def prob_lower_bounds(n: int, p: int, eps: float) -> ProbBoundTriple:
    """The chained typical-set probability lower bounds at (n, p, eps)."""
    n, p = operator.index(n), operator.index(p)
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be >= 1, got n={n}, p={p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    tail = 2.0 * math.exp(-sanov_exponent(n, eps))
    vacuous = tail >= 1.0
    log_exact = -math.inf if vacuous else p * math.log1p(-tail)
    simplified = 1.0 - 2.0 * p * math.exp(-n * eps ** 2 / 7.0)
    return ProbBoundTriple(math.exp(log_exact), log_exact, 1.0 - p * tail,
                           simplified, vacuous)
