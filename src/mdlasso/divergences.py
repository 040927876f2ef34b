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
above. Likelihood ratios are handled in log space shifted by their maximum,
so large displacements cannot overflow.
"""

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from .errors import InvalidOrderError, NumericalFailureError
from .model import DivergenceOrder, GaussianLinearModel, displacement_energy, renyi_div
from .seeding import chunk_stream, usable_cpus

_MC_CHUNK = 1 << 14
_MC_BLOCK_ELEMS = 1 << 18
# Each chunk of _MC_CHUNK samples draws from its own stream
# (seeding.chunk_stream), so chunks can be drawn on any thread in any order
# and the sample is the same. 2^14 rather than more: every thread holds its
# own feature block and three chunk vectors. Peak resident memory over the
# pre-call level at p = 100, 10^6 samples, 2 CPUs, was 3.4, 6.3 and 9.3 MB
# for chunks of 2^14, 2^15 and 2^16 samples, against 7.7 MB for one stream
# of 2^16-sample chunks on one thread.
#
# Why blocks of a power-of-two number of rows, the last taking the remainder:
# one-thread OpenBLAS (0.3.31) forms a row-major X @ theta four rows at a
# time and the leftover rows with a kernel that rounds differently, and
# under a general covariance a z @ sqrt_cov of few rows (seen at
# M N K <= 1e6) takes a small-matrix path that rounds differently too. Blocks that start at
# multiples of four rows, hold at least block_rows(p) rows and end the chunk
# with its own leftover rows give every row the rounding of the whole-chunk
# products; blocks of _MC_BLOCK_ELEMS // p rows with a short ragged tail do
# not. (With more BLAS threads, a whole-chunk product is itself split at
# row counts that need not be multiples of four.)


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


def block_rows(p: int) -> int:
    """Rows of one feature block in ``renyi_mc``: the largest power of two,
    and at least 4, whose block holds at most ``_MC_BLOCK_ELEMS`` entries."""
    return 1 << max(2, (_MC_BLOCK_ELEMS // p).bit_length() - 1)


def row_blocks(m: int, rows: int) -> Iterator[Tuple[int, int]]:
    """Row ranges [lo, hi) that tile m rows in blocks of ``rows`` rows.

    The last block takes the remainder, so it holds from ``rows`` to
    2 ``rows`` - 1 rows, or all m rows when m < 2 ``rows``.
    """
    lo = 0
    while lo < m:
        hi = m if m - lo < 2 * rows else lo + rows
        yield lo, hi
        lo = hi


def _chunk_stats(model: GaussianLinearModel, theta: np.ndarray, lam: float,
                 seed: int, chunk: int,
                 bufs: np.ndarray) -> Tuple[float, float, float]:
    """(max a, sum e^(a - max), sum e^(2 (a - max))) over the samples of one
    chunk, a = (1 - lam) log-ratio, one sample per column of the (3, m)
    array ``bufs``, which is overwritten."""
    rng = chunk_stream(seed, chunk)
    fit_true, fit_theta, y = bufs
    for lo, hi in row_blocks(y.size, block_rows(model.dim)):
        X_b = model.draw_features(rng, hi - lo)
        np.matmul(X_b, model.theta_star, out=fit_true[lo:hi])
        np.matmul(X_b, theta, out=fit_theta[lo:hi])
        del X_b  # so that the next block is not drawn beside it
    rng.standard_normal(out=y)
    y *= math.sqrt(model.sigma2)
    y += fit_true
    resid_true = np.subtract(y, fit_true, out=fit_true)
    resid_theta = np.subtract(y, fit_theta, out=fit_theta)
    a = np.subtract(np.square(resid_true, out=resid_true),
                    np.square(resid_theta, out=resid_theta), out=y)
    a /= 2.0 * model.sigma2
    a *= 1.0 - lam
    chunk_max = float(np.max(a))
    r = np.exp(np.subtract(a, chunk_max, out=a), out=a)
    return chunk_max, float(np.sum(r)), float(np.sum(np.square(r, out=fit_true)))


def renyi_mc(model: GaussianLinearModel, theta: np.ndarray,
             order: DivergenceOrder, num_samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the order-lambda Renyi divergence.

    Draws (x, y) from the true joint law and estimates
    -log(mean[(p_theta/p_true)^(1-lam)]) / (1-lam). The standard error is
    propagated through the log by the delta method. Each chunk's statistics
    are taken relative to its own maximum and merged in chunk order,
    rescaled to the global maximum; they equal a one-shot computation over
    the same sample to rounding.

    The sample is cut into chunks of ``_MC_CHUNK`` samples (the last takes
    the remainder), and chunk c draws its features, then its noise, from
    ``seeding.chunk_stream(seed, c)``. The chunks run on a thread pool of
    one thread per CPU this process may run on (``seeding.usable_cpus``),
    at most one per chunk, each thread taking a contiguous run of chunks;
    the pool is joined before this returns. So the estimate is the same
    bits on any number of CPUs, and is reproducible from the seed at a
    fixed BLAS thread count; under a general covariance, threaded products
    can round differently at another BLAS thread count.

    No chunk design is held: the features are drawn in row blocks
    (``block_rows``, ``row_blocks``) and each block is reduced to its two
    fits at once. Peak memory is, per thread, one feature block of at most
    ``_MC_BLOCK_ELEMS`` entries (or 4 rows when p > 2^16; up to twice that
    for the last block of the last chunk, and twice again under a general
    covariance) plus three vectors of ``_MC_CHUNK`` floats, whatever p is.
    The blocks change no sample: the generator fills rows in order, and
    with one BLAS thread each row's features and fits round as in products
    over the whole chunk. (Measured with OpenBLAS 0.3.31 for the identity,
    and for a general covariance up to p = 192 or at p a multiple of 8; at
    other p above 192, blocks of z @ sqrt_cov can round a feature
    differently in the last bit.)

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
    lam = order.lam
    chunk = min(_MC_CHUNK, num_samples)
    num_chunks = -(-num_samples // chunk)
    per_thread = -(-num_chunks // min(usable_cpus(), num_chunks))

    def run(first: int) -> list:
        bufs = np.empty((3, chunk))
        return [_chunk_stats(model, theta, lam, seed, c,
                             bufs[:, :min(chunk, num_samples - c * chunk)])
                for c in range(first, min(first + per_thread, num_chunks))]

    from concurrent.futures import ThreadPoolExecutor  # ~8 ms, on first use
    firsts = range(0, num_chunks, per_thread)
    with ThreadPoolExecutor(len(firsts)) as pool:
        stats = [s for run_stats in pool.map(run, firsts) for s in run_stats]

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
