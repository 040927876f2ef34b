"""Bound evaluator tests: probability floor, regret main term, certificates,
risk RHS."""

import math

import numpy as np
import pytest

from mdlasso import bounds as bounds_module
from mdlasso.bounds import (BoundConfig, probability_floor,
                            regret_certificate, regret_main_term,
                            risk_bound_rhs)
from mdlasso.errors import (InsufficientAcceptanceError,
                            InvalidCertificateError, InvalidOrderError)
from mdlasso.lasso import LassoProblem, solve
from mdlasso.model import DivergenceOrder, GaussianLinearModel
from mdlasso.penalty import (PenaltyCoefficients, column_mean_squares,
                             min_coefficients)
from mdlasso.seeding import substream
from mdlasso.sim import ExperimentConfig
from mdlasso.typical_set import is_typical, prob_lower_bounds


def small_instance(seed=0, n=40, p=8, snr=1.5, lam=0.5, beta=0.5, eps=0.5,
                   tau=0.03):
    cfg = ExperimentConfig(n=n, p=p, seed=seed, snr=snr, lam=lam, beta=beta,
                           eps=eps, tau=tau, sparsity=3)
    return cfg.build_model(), cfg.draw_problem(substream(seed)), cfg.bound_config()


class TestBoundConfig:
    def test_rejects_inadmissible_pair(self):
        with pytest.raises(InvalidOrderError, match="^inadmissible pair: "):
            BoundConfig(DivergenceOrder(0.6), 0.5, 0.5, 0.03)

    def test_boundary_pair_allowed(self):
        BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)

    def test_rejects_bad_tau(self):
        # a bound of main_term + inf is vacuous whatever the floor says
        for tau in (0.0, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                BoundConfig(DivergenceOrder(0.4), 0.5, 0.5, tau)


class TestRegretMainTerm:
    def test_noiseless_zero_solution(self):
        # Y = X theta_star with theta_hat = theta_star = 0: only mu2 remains
        X = np.ones((5, 2))
        prob = LassoProblem(X, np.zeros(5), 1.0, PenaltyCoefficients(0.5, 0.125))
        got = regret_main_term(prob, np.zeros(2), np.zeros(2))
        assert got == pytest.approx(0.125, rel=1e-14)

    def test_scalar_hand_computation(self):
        # X = ones(4), Y = 0.9: theta_hat = 0.6, residual term
        # (0.9-0.6)^2*4/(2*4) - 0.9^2*4/(2*4) with theta_star = 0.9
        X = np.ones((4, 1))
        Y = 0.9 * np.ones(4)
        prob = LassoProblem(X, Y, 1.0, PenaltyCoefficients(0.3, 0.02))
        theta_hat = np.array([0.6])
        theta_star = np.array([0.9])
        want = (0.3 ** 2 / 2.0 + 0.3 * 0.6) - 0.0 + 0.02
        got = regret_main_term(prob, theta_star, theta_hat)
        assert got == pytest.approx(want, rel=1e-12)


class TestProbCurve:
    def test_reference_point(self):
        # frozen: floor at (200, 1000, eps=0.5, tau=0.03, beta=0.5)
        pt = probability_floor(200, 1000, 0.5, 0.03, 0.5)
        assert pt.floor == pytest.approx(0.8050509662948975, rel=1e-12)
        assert pt.chain.exact_product == pytest.approx(
            0.8548380346627614, rel=1e-12)

    def test_monotone_increasing_floor(self):
        grid = np.linspace(0.3, 0.95, 40)
        floors = [probability_floor(200, 1000, float(eps), 0.03, 0.5).floor
                  for eps in grid]
        assert all(b >= a - 1e-12 for a, b in zip(floors, floors[1:]))

    def test_rejects_a_non_integer_n(self):
        with pytest.raises(TypeError):
            probability_floor(200.5, 1000, 0.5, 0.03, 0.5)

    def test_simplified_floor_closed_form(self):
        # 1 - 2p e^{-n eps^2 / 7} - e^{-tau n beta}, positive at eps = 0.9
        pt = probability_floor(200, 1000, 0.9, 0.03, 0.5)
        want = 1.0 - 2000.0 * math.exp(-200 * 0.81 / 7.0) - math.exp(-3.0)
        assert pt.simplified_floor == pytest.approx(want, rel=1e-12)
        assert 0.0 < pt.simplified_floor < pt.floor

    def test_small_eps_clamped_vacuous(self):
        pt = probability_floor(200, 1000, 0.01, 0.03, 0.5)
        assert pt.vacuous
        assert pt.floor == 0.0

    def test_matches_bound_chain_fields(self):
        for eps in (0.4, 0.6):
            pt = probability_floor(100, 50, eps, 0.1, 0.4)
            assert pt.chain == prob_lower_bounds(100, 50, eps)

    def test_large_tau_floor_approaches_exact_product(self):
        floor = probability_floor(40, 8, 0.5, 100.0, 0.5)
        triple = prob_lower_bounds(40, 8, 0.5)
        assert floor.floor == pytest.approx(triple.exact_product, abs=1e-12)

    def test_kappa(self):
        floor = probability_floor(40, 8, 0.5, 0.03, 0.5)
        assert floor.kappa == pytest.approx(min(0.5 ** 2 / 7.0, 0.03 * 0.5))


class TestRegretCertificate:
    def test_does_not_compute_the_floor(self, monkeypatch):
        model, prob, cfg = small_instance(seed=5)
        theta_hat = solve(prob).theta_hat

        def no_floor(*_args, **_kwargs):
            raise AssertionError("the certificate computed the floor")

        monkeypatch.setattr(bounds_module, "probability_floor", no_floor)
        cert = regret_certificate(prob, model, cfg, theta_hat)
        assert cert.bound == cert.main_term + cfg.tau

    def test_rejects_insufficient_coefficients(self):
        model, prob, cfg = small_instance(seed=6)
        weak = PenaltyCoefficients(prob.coeffs.mu1 * 0.5, prob.coeffs.mu2)
        bad = LassoProblem(prob.X, prob.Y, prob.sigma2, weak)
        with pytest.raises(InvalidCertificateError, match="below"):
            regret_certificate(bad, model, cfg, solve(bad).theta_hat)

    def test_rejects_sigma_mismatch(self):
        model, prob, cfg = small_instance(seed=7)
        other = GaussianLinearModel(model.theta_star, model.sigma2 * 2.0,
                                    model.cov)
        with pytest.raises(InvalidCertificateError, match="sigma2"):
            regret_certificate(prob, other, cfg, solve(prob).theta_hat)

    def test_rejects_a_non_finite_main_term(self):
        # ||Y||^2 overflows in both the objective and the baseline, and
        # their difference is inf - inf
        n, p, sigma2 = 20, 3, 1e307
        model = GaussianLinearModel(np.zeros(p), sigma2)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)
        coeffs = min_coefficients(n, p, cfg.order, cfg.beta, cfg.eps, sigma2)
        X = np.random.default_rng(9).standard_normal((n, p))
        prob = LassoProblem(X, np.full(n, 1e160), sigma2, coeffs)
        with np.errstate(over="ignore"), pytest.raises(
                InvalidCertificateError, match="^regret main term is nan: "):
            regret_certificate(prob, model, cfg, np.zeros(p))

    def test_built_from_the_given_solution_only(self, monkeypatch):
        model, prob, cfg = small_instance(seed=8)
        theta_hat = solve(prob).theta_hat

        def no_solve(*_args, **_kwargs):
            raise AssertionError("the certificate solved the problem")

        monkeypatch.setattr(bounds_module, "solve", no_solve)
        cert = regret_certificate(prob, model, cfg, theta_hat)
        assert cert.main_term == regret_main_term(prob, model.theta_star,
                                                  theta_hat)
        with pytest.raises(TypeError):
            regret_certificate(prob, model, cfg)


class TestRiskBoundRhs:
    def make_generator(self, model, n, coeffs):
        def gen(rng):
            X = model.draw_features(rng, n)
            Y = model.draw_response(rng, X)
            return LassoProblem(X, Y, model.sigma2, coeffs)
        return gen

    def test_zero_signal_upper_bound(self):
        n, p = 40, 6
        model = GaussianLinearModel(np.zeros(p), 1.0)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.9, 0.03)
        coeffs = min_coefficients(n, p, cfg.order, cfg.beta, cfg.eps, 1.0)
        est = risk_bound_rhs(model, cfg, self.make_generator(model, n, coeffs),
                             num_mc=150, seed=10)
        # the infimum never exceeds its value at theta = 0, which is mu2
        assert est.value <= coeffs.mu2 + est.penalty_term + 3 * est.std_error

    def test_penalty_term_reference_value(self):
        # frozen arithmetic at n=200, p=1000, eps=0.5, beta=0.5:
        # -1000 log(1 - 1.5683096187181573e-4) / 100
        n, p = 200, 1000
        model = GaussianLinearModel(np.zeros(p), 1.0)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)
        coeffs = min_coefficients(n, p, cfg.order, cfg.beta, cfg.eps, 1.0)
        est = risk_bound_rhs(model, cfg, self.make_generator(model, n, coeffs),
                             num_mc=100, seed=11)
        assert est.penalty_term == pytest.approx(0.0015684326113307, rel=1e-10)

    def test_dominates_expected_divergence(self):
        model, prob, cfg = small_instance(seed=12, eps=0.9)
        cfg = BoundConfig(cfg.order, cfg.beta, 0.9, cfg.tau)
        coeffs = prob.coeffs
        est = risk_bound_rhs(model, cfg,
                             self.make_generator(model, prob.n, coeffs),
                             num_mc=200, seed=13)
        noise = 3 * math.hypot(est.std_error, est.renyi_std_error)
        assert est.value >= est.renyi_mean - noise

    def test_accepts_exactly_the_typical_draws(self):
        n, p = 40, 20
        model = GaussianLinearModel(np.zeros(p), 1.0)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)
        coeffs = min_coefficients(n, p, cfg.order, cfg.beta, cfg.eps, 1.0)
        gen = self.make_generator(model, n, coeffs)
        est = risk_bound_rhs(model, cfg, gen, num_mc=100, seed=15)
        typical = sum(is_typical(column_mean_squares(gen(substream(15, i)).X),
                                 None, cfg.eps)
                      for i in range(100))
        assert est.accepted == typical and 10 <= typical < 100

    def test_insufficient_acceptance(self):
        n, p = 10, 40  # tiny n, many columns: typicality is very unlikely
        model = GaussianLinearModel(np.zeros(p), 1.0)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.05, 0.03)
        coeffs = PenaltyCoefficients(1.0, 0.1)
        with pytest.raises(InsufficientAcceptanceError):
            risk_bound_rhs(model, cfg, self.make_generator(model, n, coeffs),
                           num_mc=100, seed=14)

    def test_rejects_insufficient_coefficients(self):
        # unchecked, these coefficients give a value below the estimate's
        # own renyi_mean (0.360 against 0.447)
        cfg = ExperimentConfig(n=50, p=100, seed=1, snr=2.0)
        model = cfg.build_model()
        gen = self.make_generator(model, cfg.n, PenaltyCoefficients(1e-3, 1e-3))
        with pytest.raises(InvalidCertificateError, match="below"):
            risk_bound_rhs(model, cfg.bound_config(), gen, num_mc=200,
                           seed=cfg.seed)

    def test_rejects_sigma2_mismatch_on_an_accepted_draw(self):
        cfg = ExperimentConfig(n=50, p=100, seed=1, snr=2.0)
        other = ExperimentConfig(n=50, p=100, seed=1, sigma2=cfg.sigma2 * 2.0)
        with pytest.raises(InvalidCertificateError) as caught:
            risk_bound_rhs(cfg.build_model(), cfg.bound_config(),
                           other.draw_problem, num_mc=200, seed=cfg.seed)
        assert str(caught.value) == (f"problem sigma2={other.sigma2} does not "
                                     f"match model sigma2={cfg.sigma2}")

    def test_rejects_small_num_mc(self):
        model = GaussianLinearModel(np.zeros(2), 1.0)
        cfg = BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)
        # a float count is refused before any draw, also one past the minimum
        for num_mc, error in ((99, ValueError), (99.0, TypeError),
                              (150.0, TypeError)):
            with pytest.raises(error):
                risk_bound_rhs(model, cfg, lambda rng: None, num_mc=num_mc,
                               seed=0)

    def test_rejects_a_vacuous_typical_set_bound(self):
        cfg = ExperimentConfig(n=10, p=2, seed=3, snr=1.0, eps=0.5,
                               sparsity=1)
        with pytest.raises(InvalidCertificateError, match=(
                "^typical-set bound is vacuous at n=10, eps=0.5$")):
            risk_bound_rhs(cfg.build_model(), cfg.bound_config(),
                           cfg.draw_problem, num_mc=100, seed=cfg.seed)
