"""Gaussian linear-regression model and its order-lambda divergence calculus.

The data-generating model is y = x^T theta_star + noise with
noise ~ N(0, sigma2) and features x ~ N(0, cov). For a candidate coefficient
vector theta, the order-lambda Renyi divergence between the true and
candidate conditional models (averaged over the random design) has the
closed form

    d_lam = log(1 + t / c) / (2 (1 - lam)),

where t = (theta - theta_star)^T cov (theta - theta_star) is the displacement
energy and c = sigma2 / (lam (1 - lam)). The gradient, Hessian, and the
exponential-tilt quantities behind this closed form are exposed below.

All divergences here are single-sample; with i.i.d. draws the n-sample value
is exactly n times the single-sample value.

The covariance algebra is here too: the symmetry check, the symmetric
square root ``sqrt_sym`` and the eigenvalue floor ``min_eigenvalue``.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidOrderError, SingularMatrixError

SYMMETRY_RTOL = 1e-12
EIGENVALUE_CLAMP_RTOL = 1e-12


def check_symmetric(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry to relative tolerance and return the symmetrized matrix.

    Raises
    ------
    ValueError
        If ``S`` is not square, has a NaN or infinite entry, or deviates
        from its transpose by more than ``SYMMETRY_RTOL`` relative to its
        largest entry.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError(f"{name} must be finite")
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    dev = float(np.max(np.abs(S - S.T))) if S.size else 0.0
    if dev > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric: max asymmetry {dev:.3e} "
                         f"exceeds {SYMMETRY_RTOL:.0e} relative tolerance")
    return (S + S.T) / 2.0


def sqrt_sym(S: np.ndarray) -> np.ndarray:
    """Symmetric square root R of a positive definite matrix, R @ R = S.

    Computed by symmetric eigendecomposition. Eigenvalues at or below
    ``EIGENVALUE_CLAMP_RTOL`` times the largest eigenvalue are treated as
    numerically singular and reported rather than silently clamped, since
    every consumer of this routine requires a non-singular covariance.

    Raises
    ------
    ValueError
        If ``S`` is not symmetric.
    SingularMatrixError
        If any eigenvalue falls at or below the clamp threshold.
    """
    A = check_symmetric(S, "sqrt_sym input")
    w, V = np.linalg.eigh(A)
    w_max = float(w[-1])
    if w_max <= 0.0 or float(w[0]) <= EIGENVALUE_CLAMP_RTOL * w_max:
        raise SingularMatrixError(
            f"matrix is numerically singular: min eigenvalue {w[0]:.3e}, "
            f"max eigenvalue {w_max:.3e}")
    R = (V * np.sqrt(w)) @ V.T
    return (R + R.T) / 2.0


def min_eigenvalue(S: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = check_symmetric(S, "min_eigenvalue input")
    return float(np.linalg.eigvalsh(A)[0])


@dataclass(frozen=True)
class DivergenceOrder:
    """Order lambda of the Renyi divergence, restricted to (0, 1)."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise InvalidOrderError(
                f"divergence order lambda must lie in (0, 1), got {self.lam}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GaussianLinearModel:
    """True regression model: coefficients, noise variance, feature covariance.

    Immutable after construction. ``sqrt_cov`` (the symmetric square root of
    the feature covariance) is computed once at construction for
    ``draw_features`` and ``tilted``; the divergence closed forms read
    ``cov``.

    ``cov`` is None (the default) for the identity covariance, or a p x p
    matrix. None is kept as ``cov = sqrt_cov = None``, with no p x p array
    behind it: the draws are the plain standard normals, the divergences
    use tb in place of cov @ tb, and only ``tilted``, ``renyi_hess`` and
    ``hessian_bound_gap``, whose results are p x p matrices, build the
    identity when they are called. A matrix, the identity included, is
    checked for symmetry, kept read-only in ``cov``, and factored by
    ``sqrt_sym``, which costs O(p^3): a caller that means the identity
    passes None.
    """

    theta_star: np.ndarray
    sigma2: float
    cov: Optional[np.ndarray] = None
    sqrt_cov: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=np.float64).reshape(-1)
        if theta.size == 0:
            raise ValueError("theta_star must be non-empty")
        if not np.isfinite(theta).all():
            raise ValueError("theta_star must be finite")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(
                f"sigma2 must be positive and finite, got {self.sigma2}")
        cov = root = None
        if self.cov is not None:
            cov = check_symmetric(self.cov, "feature covariance")
            if cov.shape[0] != theta.size:
                raise ValueError(
                    f"covariance is {cov.shape[0]}x{cov.shape[0]} but "
                    f"theta_star has length {theta.size}")
            cov = _readonly(cov)
            root = _readonly(sqrt_sym(cov))
        object.__setattr__(self, "theta_star", _readonly(theta))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "sqrt_cov", root)

    @property
    def dim(self) -> int:
        return self.theta_star.size

    def draw_features(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. feature rows ~ N(0, cov), drawn into a 64-byte-aligned buffer.

        The alignment pins BLAS speed: one-thread OpenBLAS ``X @ theta`` plus
        ``X.T @ r`` at 200 x 1000 take 20-35% longer at any other offset.
        """
        size = n * self.dim
        buf = np.empty(size + 8)
        start = (-buf.ctypes.data % 64) // 8
        z = buf[start:start + size].reshape(n, self.dim)
        rng.standard_normal(out=z)
        return z if self.cov is None else z @ self.sqrt_cov

    def draw_response(self, rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
        """Responses X @ theta_star + N(0, sigma2) noise."""
        n = X.shape[0]
        return X @ self.theta_star + np.sqrt(self.sigma2) * rng.standard_normal(n)


@dataclass(frozen=True, eq=False)
class TiltedGaussian:
    """Exponentially tilted feature law underlying the divergence closed form.

    Attributes
    ----------
    scale : float
        c = sigma2 / (lam (1 - lam)).
    displacement : ndarray
        Whitened displacement sqrt_cov @ (theta - theta_star).
    normalizer : float
        sqrt(c / (c + ||displacement||^2)), in (0, 1].
    covariance : ndarray
        Feature covariance under the tilt,
        cov - (cov tb)(cov tb)^T / (c + ||displacement||^2) with
        tb = theta - theta_star; equals the inverse of
        cov^{-1} + tb tb^T / c.
    interpolated_coeffs : ndarray
        lam * theta_star + (1 - lam) * theta, the conditional mean
        coefficients of the tilted response law.
    """

    scale: float
    displacement: np.ndarray
    normalizer: float
    covariance: np.ndarray
    interpolated_coeffs: np.ndarray


def tilt_scale(model: GaussianLinearModel, order: DivergenceOrder) -> float:
    """c = sigma2 / (lam (1 - lam))."""
    return model.sigma2 / (order.lam * (1.0 - order.lam))


def _displacement(model: GaussianLinearModel, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.size != model.dim:
        raise ValueError(f"theta has length {theta.size}, expected {model.dim}")
    return theta - model.theta_star


def _times_cov(model: GaussianLinearModel, v: np.ndarray,
               matrix: Optional[np.ndarray]) -> np.ndarray:
    """matrix @ v for matrix cov or sqrt_cov; v itself when both are I."""
    return v if model.cov is None else matrix @ v


def _cov_matrix(model: GaussianLinearModel) -> np.ndarray:
    """The feature covariance as a p x p array, built when ``cov`` is None."""
    return np.eye(model.dim) if model.cov is None else model.cov


def displacement_energy(model: GaussianLinearModel, theta: np.ndarray) -> float:
    """(theta - theta_star)^T cov (theta - theta_star), i.e. ||whitened displacement||^2."""
    tb = _displacement(model, theta)
    return float(tb @ _times_cov(model, tb, model.cov))


def tilted(model: GaussianLinearModel, theta: np.ndarray,
           order: DivergenceOrder) -> TiltedGaussian:
    """All tilted-distribution quantities at (theta, order)."""
    lam = order.lam
    c = tilt_scale(model, order)
    tb = _displacement(model, theta)
    tbp = _times_cov(model, tb, model.sqrt_cov)
    t = float(tbp @ tbp)
    u = _times_cov(model, tb, model.cov)
    cov_tilted = _cov_matrix(model) - np.outer(u, u) / (c + t)
    return TiltedGaussian(
        scale=c,
        displacement=tbp,
        normalizer=float(np.sqrt(c / (c + t))),
        covariance=cov_tilted,
        interpolated_coeffs=lam * model.theta_star + (1.0 - lam) * theta,
    )


def renyi_div(model: GaussianLinearModel, theta: np.ndarray,
              order: DivergenceOrder) -> float:
    """Single-sample order-lambda Renyi divergence, log1p(t/c) / (2(1-lam))."""
    t = displacement_energy(model, theta)
    c = tilt_scale(model, order)
    return float(np.log1p(t / c) / (2.0 * (1.0 - order.lam)))


def renyi_grad(model: GaussianLinearModel, theta: np.ndarray,
               order: DivergenceOrder) -> np.ndarray:
    """Gradient of renyi_div at theta: (lam/sigma2) c/(c+t) cov (theta - theta_star)."""
    lam = order.lam
    c = tilt_scale(model, order)
    tb = _displacement(model, theta)
    u = _times_cov(model, tb, model.cov)
    t = float(tb @ u)
    return (lam / model.sigma2) * (c / (c + t)) * u


def renyi_hess(model: GaussianLinearModel, theta: np.ndarray,
               order: DivergenceOrder) -> np.ndarray:
    """Hessian of renyi_div at theta.

    (lam/sigma2) c/(c+t) cov - (2 lam/sigma2) c/(c+t)^2 (cov tb)(cov tb)^T
    with tb = theta - theta_star.
    """
    lam = order.lam
    c = tilt_scale(model, order)
    tb = _displacement(model, theta)
    u = _times_cov(model, tb, model.cov)
    t = float(tb @ u)
    a = (lam / model.sigma2) * (c / (c + t))
    b = (2.0 * lam / model.sigma2) * (c / (c + t) ** 2)
    return a * _cov_matrix(model) - b * np.outer(u, u)


def hessian_bound_gap(model: GaussianLinearModel, theta: np.ndarray,
                      order: DivergenceOrder) -> float:
    """Smallest eigenvalue of (lam/(8 sigma2)) cov + Hessian.

    The negative Hessian of the divergence is dominated by
    (lam/(8 sigma2)) cov in the positive semi-definite order, with equality
    attained exactly at displacement energy t = 3c; a non-negative gap (up to
    -1e-8 numerical tolerance) certifies the domination at theta.
    """
    lam = order.lam
    gap_matrix = (lam / (8.0 * model.sigma2)) * _cov_matrix(model) \
        + renyi_hess(model, theta, order)
    return min_eigenvalue(gap_matrix)
