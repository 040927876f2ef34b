"""Divergence family with Gaussian closed forms and a Monte-Carlo oracle.

Closed forms (all single-sample, driven by the displacement energy
t = (theta - theta_star)^T cov (theta - theta_star)):

    KL             t / (2 sigma2)
    Bhattacharyya  renyi_div at lam = 0.5
    Hellinger^2    2 (1 - exp(-d_0.5 / 2)), range [0, 2]
    alpha          (4 / (1 - alpha^2)) (1 - Z),  Z = sqrt(c / (c + t)),
                   c = 4 sigma2 / (1 - alpha^2), range [0, 4/(1-alpha^2)]

The Monte-Carlo estimator evaluates the defining expectation of the Renyi
divergence directly and is the independent cross-check for every closed form
above. At a sample (x, y) with y = x^T theta_star + sigma z, the log
likelihood ratio (sigma^2 z^2 - (sigma z - d)^2) / (2 sigma^2) depends on x
only through d = x^T (theta - theta_star), and d ~ N(0, t) independently of
z, so the estimator draws (d, z) rather than the p features of x: the same
law, at a cost that does not depend on p. Likelihood ratios are handled in
log space shifted by their maximum, so large displacements cannot overflow.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import InvalidOrderError, NumericalFailureError
from .model import DivergenceOrder, GaussianLinearModel, displacement_energy, renyi_div
from .seeding import chunk_stream

_MC_CHUNK = 1 << 14
# Samples per chunk of renyi_mc; each chunk draws from its own stream
# (seeding.chunk_stream), and its two per-sample vectors take 256 KiB.


@dataclass(frozen=True)
class AlphaOrder:
    """Order alpha of the bounded alpha-divergence, restricted to (-1, 1)."""

    alpha: float

    def __post_init__(self):
        if not -1.0 < self.alpha < 1.0:
            raise InvalidOrderError(
                f"alpha must lie in (-1, 1), got {self.alpha}")


class McEstimate(NamedTuple):
    value: float
    std_error: float


def _chunk_stats(sqrt_t: float, sigma2: float, lam: float, seed: int,
                 chunk: int, bufs: np.ndarray) -> Tuple[float, float, float]:
    """(max a, sum e^(a - max), sum e^(2 (a - max))) over the samples of one
    chunk, a = (1 - lam) log-ratio, one sample per column of the (2, m)
    array ``bufs``, which is overwritten."""
    rng = chunk_stream(seed, chunk)
    d, z = bufs
    rng.standard_normal(out=d)
    d *= sqrt_t
    rng.standard_normal(out=z)
    resid_true = np.multiply(z, math.sqrt(sigma2), out=z)
    resid_theta = np.subtract(resid_true, d, out=d)
    a = np.subtract(np.square(resid_true, out=resid_true),
                    np.square(resid_theta, out=resid_theta), out=z)
    a /= 2.0 * sigma2
    a *= 1.0 - lam
    chunk_max = float(np.max(a))
    r = np.exp(np.subtract(a, chunk_max, out=a), out=a)
    return chunk_max, float(np.sum(r)), float(np.sum(np.square(r, out=d)))


def renyi_mc(model: GaussianLinearModel, theta: np.ndarray,
             order: DivergenceOrder, num_samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the order-lambda Renyi divergence.

    Draws (x, y) from the true joint law and estimates
    -log(mean[(p_theta/p_true)^(1-lam)]) / (1-lam). The standard error is
    propagated through the log by the delta method. It rests on a finite
    variance of the averaged ratio power, which holds at every order
    lam >= 1/2 but at lam < 1/2 only for displacement energy
    t < sigma2 / (2 (1 - lam) (1 - 2 lam)); beyond that the central limit
    fails and the standard error is not calibrated.

    The features are not drawn. The log-ratio of a sample depends on x only
    through the fit gap d = x^T delta, delta = theta - theta_star, and for
    x ~ N(0, cov) drawn apart from the noise z, d ~ N(0, t) with
    t = delta^T cov delta, independently of z. So drawing d and z gives
    exactly the law of drawing x and z; t is computed here from
    ``model.cov``, not by ``displacement_energy``, so the estimate stays an
    independent check of the closed forms' input. At t = 0, d is 0 and the
    estimate is exactly 0.

    The sample is cut into chunks of ``_MC_CHUNK`` samples (the last takes
    the remainder), and chunk c draws its d, then its z, from
    ``seeding.chunk_stream(seed, c)``. Each chunk's statistics are taken
    relative to its own maximum and merged in chunk order, rescaled to the
    global maximum; they equal a one-shot computation over the same sample
    to rounding. The estimate is reproducible from the seed. Peak memory is
    two vectors of ``_MC_CHUNK`` floats, whatever p is.

    Raises
    ------
    ValueError
        If ``num_samples`` < 1000 (too few for the delta-method error bar),
        or ``theta`` does not hold p finite entries; both before any draw.
    NumericalFailureError
        If the ratio mean is non-positive or non-finite, which cannot happen
        with exact arithmetic and signals an overflow-handling bug.
    """
    if num_samples < 1000:
        raise ValueError(f"num_samples must be >= 1000, got {num_samples}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    p = model.dim
    if theta.size != p:
        raise ValueError(f"theta has length {theta.size}, expected {p}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    delta = theta - model.theta_star
    t = float(delta @ (delta if model.cov is None else model.cov @ delta))
    sqrt_t = math.sqrt(t)
    lam = order.lam
    chunk = min(_MC_CHUNK, num_samples)
    bufs = np.empty((2, chunk))
    stats = [_chunk_stats(sqrt_t, model.sigma2, lam, seed, c,
                          bufs[:, :min(chunk, num_samples - lo)])
             for c, lo in enumerate(range(0, num_samples, chunk))]

    # Statistics of r_i = exp(a_i - shift), a_i = (1-lam) log-ratio.
    shift = max(chunk_max for chunk_max, _, _ in stats)
    s1 = 0.0
    s2 = 0.0
    for chunk_max, t1, t2 in stats:
        rescale = math.exp(chunk_max - shift)
        s1 += t1 * rescale
        s2 += t2 * rescale * rescale

    mean_r = s1 / num_samples
    if not (mean_r > 0.0 and math.isfinite(mean_r)):
        raise NumericalFailureError(
            f"ratio mean degenerated to {mean_r}; log-space handling failed")
    var_r = max(0.0, (s2 - s1 * s1 / num_samples) / (num_samples - 1))
    se_log_mean = math.sqrt(var_r / num_samples) / mean_r
    estimate = -(shift + math.log(mean_r)) / (1.0 - lam)
    return McEstimate(estimate, se_log_mean / (1.0 - lam))


def kl_closed(model: GaussianLinearModel, theta: np.ndarray) -> float:
    """Single-sample KL divergence: displacement energy / (2 sigma2)."""
    return displacement_energy(model, theta) / (2.0 * model.sigma2)


def bhattacharyya(model: GaussianLinearModel, theta: np.ndarray) -> float:
    """Bhattacharyya divergence: the Renyi divergence at order 0.5."""
    return renyi_div(model, theta, DivergenceOrder(0.5))


def hellinger_sq(model: GaussianLinearModel, theta: np.ndarray) -> float:
    """Squared Hellinger distance, 2 (1 - exp(-d_0.5 / 2)), in [0, 2]."""
    d = bhattacharyya(model, theta)
    return -2.0 * math.expm1(-d / 2.0)


def alpha_div(model: GaussianLinearModel, theta: np.ndarray,
              a: AlphaOrder) -> float:
    """Bounded alpha-divergence, (4 / (1 - alpha^2)) (1 - Z).

    At alpha = 0 this equals twice the squared Hellinger distance exactly.
    """
    denom = 1.0 - a.alpha ** 2
    c = 4.0 * model.sigma2 / denom
    t = displacement_energy(model, theta)
    one_minus_z = -math.expm1(-0.5 * math.log1p(t / c))
    return (4.0 / denom) * one_minus_z
