"""Risk/regret bound calculus for column-normalized lasso under Gaussian random design."""

from .bounds import (BoundConfig, ProbCurvePoint, RegretCertificate,
                     RiskBoundEstimate, alpha_bound_at_probability, prob_curve,
                     probability_floor, regret_certificate, regret_main_term,
                     risk_bound_rhs)
from .divergences import (AlphaOrder, McEstimate, alpha_div, bhattacharyya,
                          hellinger_sq, kl_closed, renyi_mc)
from .lasso import (LassoProblem, SolveReport, kkt_residual, objective,
                    soft_threshold, solve)
from .matops import min_eigenvalue, sqrt_sym
from .model import (DivergenceOrder, GaussianLinearModel, TiltedGaussian,
                    displacement_energy, hessian_bound_gap, renyi_div,
                    renyi_grad, renyi_hess, tilt_scale, tilted)
from .penalty import (PenaltyCoefficients, QuantizerSpec, design_ratio,
                      fixed_design_mu1, grid_codelength, kraft_sum,
                      min_coefficients, randomize_quantize, weighted_l1)
from .sim import (ExperimentConfig, ExperimentSummary, TrialRecord,
                  default_theta_star, run_experiment, run_trial)
from .typical_set import (GammaTailResult, ProbBoundTriple, gamma_tail_check,
                          is_typical, prob_lower_bounds, sanov_exponent)

__version__ = "0.1.0"

__all__ = [
    "AlphaOrder", "BoundConfig", "DivergenceOrder", "ExperimentConfig",
    "ExperimentSummary", "GammaTailResult", "GaussianLinearModel",
    "LassoProblem", "McEstimate", "PenaltyCoefficients", "ProbBoundTriple",
    "ProbCurvePoint", "QuantizerSpec", "RegretCertificate",
    "RiskBoundEstimate", "SolveReport", "TiltedGaussian", "TrialRecord",
    "alpha_bound_at_probability", "alpha_div", "bhattacharyya",
    "default_theta_star", "design_ratio", "displacement_energy",
    "fixed_design_mu1", "gamma_tail_check", "grid_codelength",
    "hellinger_sq", "hessian_bound_gap", "is_typical", "kkt_residual",
    "kl_closed", "kraft_sum", "min_coefficients", "min_eigenvalue",
    "objective", "prob_curve", "prob_lower_bounds", "probability_floor",
    "randomize_quantize", "regret_certificate", "regret_main_term",
    "renyi_div", "renyi_grad", "renyi_hess", "renyi_mc", "risk_bound_rhs",
    "run_experiment", "run_trial", "sanov_exponent", "soft_threshold",
    "solve", "sqrt_sym", "tilt_scale", "tilted", "weighted_l1",
]
