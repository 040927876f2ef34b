"""Evaluators for the risk bound, regret bound, and probability floor.

For a lasso problem whose penalty coefficients meet ``min_coefficients``,
the regret bound states that with probability at least

    floor = exact_product(n, p, eps) - exp(-tau n beta)

the single-sample Renyi divergence at the lasso solution is at most

    main_term + tau,
    main_term = inf_theta { (||Y - X theta||^2 - ||Y - X theta_star||^2)
                            / (2 n sigma2) + mu1 ||theta||_{w,1} + mu2 }.

The infimum is attained at the lasso solution itself, because the bracket
differs from the solver objective only by a theta-independent constant.

The risk-bound right-hand side replaces the realized main term by its
conditional expectation over typical designs (estimated here by rejection
sampling, which realizes the conditional law exactly) plus the closed-form
penalty -p log(1 - 2 e^{-D}) / (n beta).

The true typical-set probability P is not computed here, although at
cov = I it is a product of per-column chi-square probabilities.
``alpha_bound_at_probability`` takes P as given, and its caller decides
what P is. A lower bound on P in its place is conservative while that
lower bound is >= 1/e, where P log(1/P) and (1 - P) are both decreasing.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergences import AlphaOrder
from .errors import (InsufficientAcceptanceError, InvalidCertificateError,
                     InvalidOrderError)
from .lasso import LassoProblem, objective, solve
from .model import DivergenceOrder, GaussianLinearModel, renyi_div
from .penalty import PenaltyCoefficients, min_coefficients
from .pool import map_indices
from .seeding import substream
from .typical_set import ProbBoundTriple, is_typical, prob_lower_bounds

_COEFF_RTOL = 1e-9


@dataclass(frozen=True)
class BoundConfig:
    """Bound parameters (order, beta, eps, tau) with admissibility lam <= 1 - beta."""

    order: DivergenceOrder
    beta: float
    eps: float
    tau: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(
                f"tau must be positive and finite, got {self.tau}")
        if self.order.lam > 1.0 - self.beta + 1e-12:
            raise InvalidOrderError(
                f"inadmissible pair: lam={self.order.lam} exceeds "
                f"1 - beta = {1.0 - self.beta}")


@dataclass(frozen=True)
class ProbCurvePoint:
    """The regret bound's probability floor at one eps, and the bound chain
    it is built on.

    ``chain`` is ``prob_lower_bounds(n, p, eps)``. ``floor`` =
    exact_product - exp(-tau n beta) and ``simplified_floor`` = simplified -
    exp(-tau n beta), clamped to 0; the simplified floor decays at rate
    ``kappa`` = min(eps^2/7, tau beta). ``floor`` clamped or the chain vacuous
    sets ``vacuous``.
    """

    eps: float
    chain: ProbBoundTriple
    floor: float
    simplified_floor: float
    kappa: float
    vacuous: bool


def probability_floor(n: int, p: int, eps: float, tau: float,
                      beta: float) -> ProbCurvePoint:
    """The regret bound's probability floor at (n, p, eps, tau, beta)."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    chain = prob_lower_bounds(n, p, eps)
    tau_term = math.exp(-tau * n * beta)
    raw = chain.exact_product - tau_term
    return ProbCurvePoint(eps, chain, max(0.0, raw),
                          max(0.0, chain.simplified - tau_term),
                          min(eps ** 2 / 7.0, tau * beta),
                          raw < 0.0 or chain.vacuous)


@dataclass(frozen=True, eq=False)
class RegretCertificate:
    """Assembled regret bound at one lasso solution.

    ``bound`` = ``main_term`` + tau; the probability with which it holds
    does not depend on the solution and is ``probability_floor``'s.
    ``minimums`` are the ``min_coefficients`` the problem's penalty was
    checked against.
    """

    config: BoundConfig
    main_term: float
    bound: float
    minimums: PenaltyCoefficients


def regret_main_term(prob: LassoProblem, theta_star: np.ndarray,
                     theta_hat: np.ndarray) -> float:
    """Value of the infimum in the regret bound, evaluated at the solver output.

    objective(theta_hat) - ||Y - X theta_star||^2 / (2 n sigma2) + mu2.
    """
    theta_star = np.asarray(theta_star, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore"):  # regret_certificate refuses an inf
        resid_star = prob.Y - prob.X @ theta_star
        baseline = float(resid_star @ resid_star) / (2.0 * prob.n * prob.sigma2)
    return objective(prob, theta_hat) - baseline + prob.coeffs.mu2


def regret_certificate(prob: LassoProblem, model: GaussianLinearModel,
                       config: BoundConfig,
                       theta_hat: np.ndarray) -> RegretCertificate:
    """Regret bound main_term + tau at the solution ``theta_hat``.

    Raises
    ------
    InvalidCertificateError
        If the noise variances of problem and model disagree, the
        problem's penalty coefficients fall below ``min_coefficients`` for
        (order, beta, eps), or the main term is not finite because the
        objective or the baseline overflows (||Y||^2 does at sigma2 near
        the float64 maximum).
    """
    if abs(prob.sigma2 - model.sigma2) > 1e-9 * model.sigma2:
        raise InvalidCertificateError(
            f"problem sigma2={prob.sigma2} does not match model "
            f"sigma2={model.sigma2}")
    minimums = min_coefficients(prob.n, prob.p, config.order, config.beta,
                                config.eps, prob.sigma2)
    coeffs = prob.coeffs
    if not (coeffs.mu1 >= minimums.mu1 * (1.0 - _COEFF_RTOL)
            and coeffs.mu2 >= minimums.mu2 * (1.0 - _COEFF_RTOL)):
        raise InvalidCertificateError(
            f"penalty coefficients ({coeffs.mu1:.6g}, {coeffs.mu2:.6g}) "
            f"fall below the required minimums "
            f"({minimums.mu1:.6g}, {minimums.mu2:.6g})")
    main = regret_main_term(prob, model.theta_star, theta_hat)
    if not math.isfinite(main):
        raise InvalidCertificateError(
            f"regret main term is {main}: the objective or the baseline "
            f"||Y - X theta_star||^2 / (2 n sigma2) overflows")
    return RegretCertificate(config, main, main + config.tau, minimums)


@dataclass(frozen=True)
class RiskBoundEstimate:
    """Monte-Carlo estimate of the risk-bound right-hand side.

    ``value`` = mean main term over accepted (typical) draws + penalty_term.
    ``renyi_mean`` is the paired estimate of the conditional expected
    divergence at the solution, for checking value >= renyi_mean.
    """

    value: float
    std_error: float
    penalty_term: float
    accepted: int
    total: int
    renyi_mean: float
    renyi_std_error: float


def risk_bound_rhs(model: GaussianLinearModel, config: BoundConfig,
                   prob_generator: Callable[[np.random.Generator], LassoProblem],
                   num_mc: int, seed: int) -> RiskBoundEstimate:
    """Rejection-sampled estimate of the risk bound's right-hand side.

    ``prob_generator(rng)`` must return a fresh LassoProblem drawn under
    ``model``'s law; draws whose design is not eps-typical are discarded,
    which realizes the conditional expectation exactly. Each accepted
    draw is solved and its main term is that of ``regret_certificate``,
    which checks the draw after the solve; rejected draws are not checked.
    The penalty term is taken at the size (n, p) of the last accepted draw.

    Draw i is drawn from the (seed, i) substream and the draws run on
    ``pool.map_indices``, so the estimate does not depend on the CPU count.
    ``prob_generator`` may therefore run in forked worker processes: its
    side effects there (a counter it bumps, state its closure holds) are
    not seen by the caller.

    Raises
    ------
    InsufficientAcceptanceError
        If fewer than 10 draws are accepted.
    InvalidCertificateError
        If an accepted draw's noise variance does not match ``model``'s,
        its penalty coefficients fall below ``min_coefficients`` or its
        main term is not finite, or the typical-set bound is vacuous at
        the problem size (the closed-form penalty term would be undefined).
    """
    if num_mc < 100:
        raise ValueError(f"num_mc must be >= 100, got {num_mc}")

    def draw(i: int):
        """None for a rejected draw; main term, divergence, n and p for an
        accepted one."""
        prob = prob_generator(substream(seed, i))
        if not is_typical(prob.mean_sq, model.cov, config.eps):
            return None
        report = solve(prob)
        main = regret_certificate(prob, model, config,
                                  report.theta_hat).main_term
        return (main, renyi_div(model, report.theta_hat, config.order),
                prob.n, prob.p)

    draws = [d for d in map_indices(draw, num_mc) if d is not None]
    accepted = len(draws)
    if accepted < 10:
        raise InsufficientAcceptanceError(
            f"only {accepted} of {num_mc} draws were eps-typical; "
            f"need at least 10")
    mains, renyis, ns, ps = zip(*draws)
    n, p = ns[-1], ps[-1]

    triple = prob_lower_bounds(n, p, config.eps)
    if triple.vacuous:
        raise InvalidCertificateError(
            f"typical-set bound is vacuous at n={n}, eps={config.eps}")
    penalty_term = -triple.log_exact_product / (n * config.beta)

    mains_arr = np.asarray(mains)
    renyis_arr = np.asarray(renyis)
    se = float(np.std(mains_arr, ddof=1)) / math.sqrt(accepted)
    renyi_se = float(np.std(renyis_arr, ddof=1)) / math.sqrt(accepted)
    return RiskBoundEstimate(
        value=float(np.mean(mains_arr)) + penalty_term,
        std_error=se,
        penalty_term=penalty_term,
        accepted=accepted,
        total=num_mc,
        renyi_mean=float(np.mean(renyis_arr)),
        renyi_std_error=renyi_se,
    )


def alpha_bound_at_probability(redundancy_estimate: float, beta: float,
                               a: AlphaOrder, p_typical: float) -> float:
    """Alpha-divergence risk bound evaluated at a given typical-set probability.

    redundancy / lam_a + P log(1/P) / (lam_a beta) + (1 - P) / (lam_a (lam_a + alpha))
    with lam_a = (1 - alpha)/2. At beta = (1 + alpha)/2 (the tightest
    admissible choice) the middle denominator equals lam_a (lam_a + alpha).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < p_typical <= 1.0:
        raise ValueError(f"p_typical must lie in (0, 1], got {p_typical}")
    lam_a = (1.0 - a.alpha) / 2.0
    middle = p_typical * math.log(1.0 / p_typical) / (lam_a * beta)
    tail = (1.0 - p_typical) / (lam_a * (lam_a + a.alpha))
    return redundancy_estimate / lam_a + middle + tail
