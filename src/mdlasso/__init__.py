"""Risk/regret bound calculus for column-normalized lasso under Gaussian random design."""

from .bounds import (BoundConfig, ProbCurvePoint, RegretCertificate,
                     RiskBoundEstimate, probability_floor, regret_certificate,
                     regret_main_term, risk_bound_rhs)
from .divergences import (AlphaOrder, McEstimate, bhattacharyya, hellinger_sq,
                          renyi_mc)
from .lasso import LassoProblem, SolveReport, objective, solve
from .model import (DivergenceOrder, GaussianLinearModel, displacement_energy,
                    min_eigenvalue, renyi_div, sqrt_sym)
from .penalty import PenaltyCoefficients, min_coefficients, weighted_l1
from .sim import (ExperimentConfig, ExperimentSummary, TrialRecord,
                  default_theta_star, run_experiment, run_trial)
from .typical_set import (ProbBoundTriple, is_typical, prob_lower_bounds,
                          sanov_exponent)

__version__ = "0.1.0"

__all__ = [
    "AlphaOrder", "BoundConfig", "DivergenceOrder", "ExperimentConfig",
    "ExperimentSummary", "GaussianLinearModel", "LassoProblem", "McEstimate",
    "PenaltyCoefficients", "ProbBoundTriple", "ProbCurvePoint",
    "RegretCertificate", "RiskBoundEstimate", "SolveReport", "TrialRecord",
    "bhattacharyya", "default_theta_star", "displacement_energy",
    "hellinger_sq", "is_typical", "min_coefficients", "min_eigenvalue",
    "objective", "prob_lower_bounds", "probability_floor",
    "regret_certificate", "regret_main_term", "renyi_div", "renyi_mc",
    "risk_bound_rhs", "run_experiment", "run_trial", "sanov_exponent",
    "solve", "sqrt_sym", "weighted_l1",
]
