"""Data generation and the SNR-sweep experiment protocol.

A trial at configuration (n, p, snr, ...) draws a design with i.i.d.
N(0, I) rows and responses from the true model at the noise variance that
realizes the requested signal-to-noise ratio E[(x^T theta_star)^2] / sigma2,
solves the lasso under the minimal valid penalty (built once per config),
and records the Bhattacharyya divergence at the solution, twice the squared
Hellinger distance ([0,1]-normalized; numerically equal to the [0,2]-ranged
hellinger_sq value), the regret bound, design typicality, and whether the
bound dominated the divergence at the configured order lam.

Trials are reproducible: trial i draws from the (seed, i) substream, so
records are bit-identical regardless of evaluation order or of the process
that evaluates them. ``run_experiment`` therefore runs its trials on the
package's process pool, whose rules ``pool`` states.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import BoundConfig, RegretCertificate, regret_certificate
from .divergences import bhattacharyya, hellinger_sq
from .lasso import LassoProblem, SolveReport, solve
from .model import DivergenceOrder, GaussianLinearModel, renyi_div
from .penalty import PenaltyCoefficients, min_coefficients
from .pool import map_indices
from .seeding import substream
from .typical_set import is_typical

DEFAULT_SPARSITY = 10
DEFAULT_MAGNITUDE = 1.0


def default_theta_star(p: int, sparsity: int = DEFAULT_SPARSITY,
                       magnitude: float = DEFAULT_MAGNITUDE) -> np.ndarray:
    """k-sparse coefficient vector: equal magnitudes on the first k coordinates."""
    if not 1 <= sparsity <= p:
        raise ValueError(f"sparsity must lie in [1, {p}], got {sparsity}")
    if magnitude == 0.0 or not math.isfinite(magnitude):
        raise ValueError(
            f"magnitude must be finite and non-zero, got {magnitude}")
    theta = np.zeros(p)
    theta[:sparsity] = magnitude
    return theta


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment, resolved. Its init fields are the config document's
    keys (``lam`` read as ``lambda``), and construction checks every range.

    Construction sets ``theta_star`` to ``default_theta_star`` (``sparsity``
    defaults to min(10, p)) and derives whichever of ``snr`` and ``sigma2``
    is not given from snr = theta_star^T theta_star / sigma2; both must come
    out finite and positive. This is the package's one SNR-to-noise rule.
    The feature covariance is the identity, which the model holds as
    ``cov=None``. Construction also builds the one model, bound config and
    ``min_coefficients`` (at sigma2) that every trial of the config shares.
    """

    n: int
    p: int
    seed: int
    snr: Optional[float] = None
    sigma2: Optional[float] = None
    num_trials: int = 100
    lam: float = 0.5
    beta: float = 0.5
    eps: float = 0.5
    tau: float = 0.03
    sparsity: Optional[int] = None
    magnitude: float = DEFAULT_MAGNITUDE
    theta_star: np.ndarray = field(init=False, repr=False)
    _bounds: BoundConfig = field(init=False, repr=False)
    _model: GaussianLinearModel = field(init=False, repr=False)
    _coeffs: PenaltyCoefficients = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be >= 1, got n={self.n}, p={self.p}")
        if not 0 <= self.seed < 2 ** 64:
            # substream masks a seed to 64 bits: a wider one would repeat one
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")
        if self.snr is None and self.sigma2 is None:
            raise ValueError("one of snr and sigma2 must be given")
        if self.snr is not None and self.sigma2 is not None:
            raise ValueError("give snr or sigma2, not both")
        if self.snr is not None and not self.snr > 0.0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        if self.sigma2 is not None and not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        bc = BoundConfig(DivergenceOrder(self.lam), self.beta, self.eps, self.tau)
        if self.sparsity is None:
            object.__setattr__(self, "sparsity", min(DEFAULT_SPARSITY, self.p))
        theta = default_theta_star(self.p, self.sparsity, self.magnitude)
        theta.setflags(write=False)
        with np.errstate(over="ignore"):  # an infinite energy is refused below
            energy = float(theta @ theta)
        if self.sigma2 is None:
            sigma2, snr = energy / self.snr, float(self.snr)
        else:
            sigma2, snr = float(self.sigma2), energy / self.sigma2
        if not (0.0 < sigma2 < math.inf and 0.0 < snr < math.inf):
            raise ValueError(f"sigma2={sigma2} and snr={snr} must both be "
                             f"finite and positive")
        coeffs = min_coefficients(self.n, self.p, bc.order, bc.beta, bc.eps,
                                  sigma2)
        for name, value in (("theta_star", theta), ("sigma2", sigma2),
                            ("snr", snr), ("_bounds", bc), ("_coeffs", coeffs),
                            ("_model", GaussianLinearModel(theta, sigma2))):
            object.__setattr__(self, name, value)

    def bound_config(self) -> BoundConfig:
        return self._bounds

    def build_model(self) -> GaussianLinearModel:
        return self._model

    def draw_problem(self, rng: np.random.Generator) -> LassoProblem:
        """``n`` rows of the config's model drawn from ``rng``, with its
        minimal penalty. Every trial's problem is drawn here, and this is
        a ``risk_bound_rhs`` problem generator as it stands."""
        X = self._model.draw_features(rng, self.n)
        Y = self._model.draw_response(rng, X)
        return LassoProblem(X, Y, self.sigma2, self._coeffs)


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial outputs; ``dominated`` means regret_bound >= the Renyi
    divergence at the configured order ``lam``, the divergence the theorem
    bounds. At lam = 0.5 that divergence is ``d_bhatta``.

    ``report`` and ``certificate`` are the solver's and the bound's full
    outputs for the trial; they take no part in equality, hashing or repr.
    """

    trial_index: int
    snr: float
    sigma2: float
    d_bhatta: float
    two_hellinger_sq: float
    regret_bound: float
    typical: bool
    dominated: bool
    converged: bool
    report: SolveReport = field(compare=False, repr=False)
    certificate: RegretCertificate = field(compare=False, repr=False)


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates over the trials of one experiment.

    ``num_trials`` and ``typical_fraction`` count every trial. The dominance
    and ratio aggregates (``num_dominated``, ``dominance_fraction``,
    ``mean_bound_ratio``) are over the ``num_converged`` converged trials
    only.
    """

    num_trials: int
    num_converged: int
    num_dominated: int
    dominance_fraction: float
    mean_bound_ratio: float  # mean of regret_bound / two_hellinger_sq
    typical_fraction: float


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One seeded trial; bit-identical for identical (cfg.seed, trial_index)."""
    model, bc = cfg.build_model(), cfg.bound_config()
    prob = cfg.draw_problem(substream(cfg.seed, trial_index))
    report = solve(prob)
    cert = regret_certificate(prob, model, bc, theta_hat=report.theta_hat)

    d05 = bhattacharyya(model, report.theta_hat)
    two_h2 = hellinger_sq(model, report.theta_hat)
    return TrialRecord(
        trial_index=trial_index,
        snr=cfg.snr,
        sigma2=model.sigma2,
        d_bhatta=d05,
        two_hellinger_sq=two_h2,
        regret_bound=cert.bound,
        typical=is_typical(prob.mean_sq, model.cov, bc.eps),
        dominated=cert.bound >= renyi_div(model, report.theta_hat, bc.order),
        converged=report.converged,
        report=report,
        certificate=cert,
    )


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRecord], ExperimentSummary]:
    """All trials of a configuration plus dominance/ratio aggregates.

    Non-converged trials are kept in the record list (flagged) but excluded
    from the dominance and ratio aggregates. The trials run on
    ``pool.map_indices``; the records do not depend on it.
    """
    records = map_indices(lambda i: run_trial(cfg, i), cfg.num_trials)
    good = [r for r in records if r.converged]
    dominated = sum(r.dominated for r in good)
    ratios = [r.regret_bound / r.two_hellinger_sq
              for r in good if r.two_hellinger_sq > 0.0]
    summary = ExperimentSummary(
        num_trials=cfg.num_trials,
        num_converged=len(good),
        num_dominated=dominated,
        dominance_fraction=dominated / len(good) if good else math.nan,
        mean_bound_ratio=float(np.mean(ratios)) if ratios else math.nan,
        typical_fraction=sum(r.typical for r in records) / cfg.num_trials,
    )
    return records, summary
