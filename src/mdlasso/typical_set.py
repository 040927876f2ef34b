"""Typical designs: membership test, probability lower bounds, Gamma tails.

A design X is eps-typical for covariance cov when every column's mean
square stays within relative eps of its expectation:

    1 - eps <= ((1/n) sum_i x_ij^2) / cov_jj <= 1 + eps   for all j.

For i.i.d. Gaussian rows the membership probability P is bounded below by a
chain of three closed forms (with D = (n/2)(eps - log(1 + eps))):

    (1 - 2 e^{-D})^p  >=  1 - 2p e^{-D}  >=  1 - 2p e^{-n eps^2 / 7}.

The exponent D is a Sanov/Chernoff-type bound on the one-sided tail of a
column mean square, which follows a Gamma(n/2, 2s/n) law; the lower tail
has the larger exponent (n/2)(-eps - log(1 - eps)). The constant 7 is the
smallest integer a with 1/a <= (1 - log 2)/2, making eps^2/7 a valid
simplification of D/n on all of (0, 1].
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .seeding import substream

_GAMMA_CHUNK = 8192


@dataclass(frozen=True)
class ProbBoundTriple:
    """The three nested lower bounds on the typical-set probability.

    ``exact_product`` is clamped to 0 (and ``vacuous`` set) when the
    per-column factor 1 - 2 e^{-D} is not positive, since a probability
    lower bound below zero carries no information; ``log_exact_product`` =
    p log(1 - 2 e^{-D}) is then -inf. ``linearized`` and ``simplified`` may
    be negative.
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
    1 +/- eps is typical.
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
    return bool(np.all(ratio >= 1.0 - eps) and np.all(ratio <= 1.0 + eps))


def sanov_exponent(n: int, eps: float) -> float:
    """Upper-tail Gamma exponent D = (n/2)(eps - log(1 + eps)).

    The lower tail's exponent (n/2)(-eps - log(1 - eps)) dominates it for
    every eps in (0, 1), so 2 e^{-D} bounds both tails together.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return (n / 2.0) * (eps - math.log1p(eps))


def prob_lower_bounds(n: int, p: int, eps: float) -> ProbBoundTriple:
    """The chained typical-set probability lower bounds at (n, p, eps)."""
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


class GammaTailResult(NamedTuple):
    empirical_tail: float
    analytic_bound: float


def gamma_tail_check(n: int, eps: float, num_mc: int, seed: int,
                     s: float = 1.0) -> GammaTailResult:
    """Empirical upper-tail frequency of a column mean square vs its bound.

    Samples the mean square of n i.i.d. N(0, s) entries (exactly the
    Gamma(n/2, 2s/n) law of a design column's mean square, by construction)
    and counts how often it reaches s (1 + eps). The analytic bound is
    exp(-D) with the upper-side exponent; the empirical frequency must not
    exceed it by more than Monte-Carlo noise. The result does not depend on
    ``s`` beyond that noise (scale equivariance of the Gamma family).
    """
    if num_mc < 1000:
        raise ValueError(f"num_mc must be >= 1000, got {num_mc}")
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s}")
    bound = math.exp(-sanov_exponent(n, eps))
    rng = substream(seed)
    threshold = s * (1.0 + eps)
    hits = 0
    done = 0
    while done < num_mc:
        m = min(_GAMMA_CHUNK, num_mc - done)
        z = rng.standard_normal((m, n))
        mean_sq = s * np.mean(z ** 2, axis=1)
        hits += int(np.count_nonzero(mean_sq >= threshold))
        done += m
    return GammaTailResult(hits / num_mc, bound)
