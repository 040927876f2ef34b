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
above. Likelihood ratios are handled in log space with a running-max shift,
so large displacements cannot overflow.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidOrderError, NumericalFailureError
from .model import DivergenceOrder, GaussianLinearModel, displacement_energy, renyi_div
from .seeding import substream

_MC_CHUNK = 1 << 16


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


def renyi_mc(model: GaussianLinearModel, theta: np.ndarray,
             order: DivergenceOrder, num_samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the order-lambda Renyi divergence.

    Draws (x, y) from the true joint law and estimates
    -log(mean[(p_theta/p_true)^(1-lam)]) / (1-lam). The standard error is
    propagated through the log by the delta method. Sampling is chunked with
    a streaming mean/variance merge so memory stays bounded; the statistics
    produced by the merge equal a one-shot computation over the same sample
    to rounding, and the whole estimate is reproducible from the seed.

    Raises
    ------
    ValueError
        If ``num_samples`` < 1000 (too few for the delta-method error bar).
    NumericalFailureError
        If the ratio mean is non-positive or non-finite, which cannot happen
        with exact arithmetic and signals an overflow-handling bug.
    """
    if num_samples < 1000:
        raise ValueError(f"num_samples must be >= 1000, got {num_samples}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    lam = order.lam
    rng = substream(seed)
    sigma = math.sqrt(model.sigma2)

    # Running statistics of r_i = exp(a_i - shift), a_i = (1-lam) log-ratio.
    shift = -math.inf
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < num_samples:
        m = min(_MC_CHUNK, num_samples - done)
        X = model.draw_features(rng, m)
        y = X @ model.theta_star + sigma * rng.standard_normal(m)
        resid_true = y - X @ model.theta_star
        resid_theta = y - X @ theta
        log_ratio = (resid_true ** 2 - resid_theta ** 2) / (2.0 * model.sigma2)
        a = (1.0 - lam) * log_ratio
        chunk_max = float(np.max(a))
        if chunk_max > shift:
            rescale = math.exp(shift - chunk_max) if math.isfinite(shift) else 0.0
            s1 *= rescale
            s2 *= rescale * rescale
            shift = chunk_max
        r = np.exp(a - shift)
        s1 += float(np.sum(r))
        s2 += float(np.sum(r * r))
        done += m

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
