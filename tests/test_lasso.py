"""Solver tests: closed-form oracles, descent, KKT certificates, scaling."""

import math

import numpy as np
import pytest

from mdlasso import lasso
from mdlasso.bounds import regret_certificate
from mdlasso.errors import NumericalFailureError
from mdlasso.lasso import (LassoProblem, kkt_residual, objective,
                           soft_threshold, solve)
from mdlasso.penalty import PenaltyCoefficients
from mdlasso.sim import ExperimentConfig


def scalar_problem(mu1=0.3, target=0.9, n=4):
    # (1/n) X^T X = 1 and X^T Y / n = target by construction
    X = np.ones((n, 1))
    Y = target * np.ones(n)
    return LassoProblem(X, Y, 1.0, PenaltyCoefficients(mu1, 0.01))


def orthonormal_problem(rng, n=60, p=12, mu1=0.4):
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * math.sqrt(n)  # (1/n) X^T X = I, unit empirical weights
    theta_star = np.zeros(p)
    theta_star[:4] = 1.0
    Y = X @ theta_star + rng.standard_normal(n)
    return LassoProblem(X, Y, 1.0, PenaltyCoefficients(mu1, 0.01)), theta_star


def snr_problem(seed, n, p, snr, sparsity=5):
    # the simulation protocol's problem at a small size: unit-magnitude
    # k-sparse truth, sigma2 from the SNR, minimal penalty coefficients
    cfg = ExperimentConfig(n=n, p=p, seed=seed, snr=snr,
                           sparsity=min(sparsity, p))
    return cfg.draw_problem(np.random.default_rng(seed))


def reference_lipschitz(prob):
    """The power iteration as it stood with a fresh array per step, verbatim
    but for its constants (100 steps, tolerance 1e-10) written out."""
    rng = np.random.default_rng(0)  # fixed: the estimate is deterministic
    v = rng.standard_normal(prob.p)
    v /= np.linalg.norm(v)
    rho_prev = 0.0
    rho = 0.0
    for _ in range(100):
        u = prob.X.T @ (prob.X @ v)
        rho = float(v @ u)
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            break
        v = u / norm_u
        if abs(rho - rho_prev) <= 1e-10 * max(1.0, abs(rho)):
            break
        rho_prev = rho
    return max(rho, 1e-300) / (prob.n * prob.sigma2)


def reference_ista(prob, tol=lasso.DEFAULT_TOL, max_iter=lasso.DEFAULT_MAX_ITER):
    """The ISTA loop as it stood before the zero-solution exit, verbatim
    but for the objective and its l1 term, written out as plain expressions
    so that no shortcut in ``objective`` or ``weighted_l1`` moves them."""
    def _kkt_from_gradient(prob, theta, g):
        level = prob.coeffs.mu1 * prob.w
        active = theta != 0.0
        res_active = np.abs(g + level * np.sign(theta))
        res_zero = np.maximum(np.abs(g) - level, 0.0)
        return float(np.max(np.where(active, res_active, res_zero)))

    def _soft_threshold(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def _kkt_residual(prob, theta):
        g = -(prob.X.T @ (prob.Y - prob.X @ theta)) / (prob.n * prob.sigma2)
        return _kkt_from_gradient(prob, theta, g)

    L = reference_lipschitz(prob) * (1.0 + lasso._STEP_HEADROOM)
    step = 1.0 / L
    level = step * prob.coeffs.mu1 * prob.w
    scale = prob.n * prob.sigma2

    theta = np.zeros(prob.p)
    trace = []
    kkt = np.inf
    iterations = 0
    for iterations in range(max_iter):
        point = theta
        resid = prob.Y - prob.X @ point
        g = -(prob.X.T @ resid) / scale
        trace.append(float(resid @ resid) / (2.0 * scale)
                     + prob.coeffs.mu1 * float(np.sum(prob.w * np.abs(point))))
        kkt = _kkt_from_gradient(prob, point, g)
        if kkt <= tol:
            break
        theta_next = _soft_threshold(point - step * g, level)
        theta = theta_next
    else:
        iterations = max_iter

    kkt = _kkt_residual(prob, theta)
    resid = prob.Y - prob.X @ theta
    obj = (float(resid @ resid) / (2.0 * prob.n * prob.sigma2)
           + prob.coeffs.mu1 * float(np.sum(prob.w * np.abs(theta))))
    trace.append(obj)
    return theta, iterations, np.asarray(trace), kkt, obj


class TestProblemConstruction:
    def test_rejects_zero_column(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="zero"):
            LassoProblem(X, np.zeros(2), 1.0, PenaltyCoefficients(1.0, 1.0))

    @pytest.mark.parametrize("entry", [np.nan, -np.inf])
    def test_rejects_non_finite_response(self, entry):
        Y = np.zeros(2)
        Y[1] = entry
        with pytest.raises(ValueError, match="Y must be finite"):
            LassoProblem(np.eye(2), Y, 1.0, PenaltyCoefficients(1.0, 1.0))

    @pytest.mark.parametrize("sigma2", [0.0, np.nan, np.inf])
    def test_rejects_non_finite_or_nonpositive_sigma2(self, sigma2):
        # sigma2 = inf once passed and solved to a "converged" theta = 0
        with pytest.raises(ValueError, match="positive and finite"):
            LassoProblem(np.eye(3), np.ones(3), sigma2,
                         PenaltyCoefficients(0.1, 0.01))

    def test_rejects_a_design_without_rows(self):
        # its column mean squares were 0 / 0: a RuntimeWarning, then an
        # error naming column 0 as non-finite
        with pytest.raises(ValueError) as caught:
            LassoProblem(np.empty((0, 3)), np.empty(0), 1.0,
                         PenaltyCoefficients(1.0, 1.0))
        assert str(caught.value) == "design matrix rows must be >= 1, got 0"

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LassoProblem(np.ones((3, 2)), np.zeros(4), 1.0,
                         PenaltyCoefficients(1.0, 1.0))

    def test_weights_from_columns(self):
        X = np.array([[1.0, 2.0], [-1.0, 0.0], [1.0, 2.0], [1.0, 0.0]])
        prob = LassoProblem(X, np.zeros(4), 1.0, PenaltyCoefficients(1.0, 1.0))
        np.testing.assert_allclose(prob.w, [1.0, math.sqrt(2.0)])

    @pytest.mark.parametrize("seed", [0, 2])
    def test_strided_response_solves_to_the_same_bits(self, seed):
        # solve takes Y as its first residual; a strided Y would reach BLAS
        # with another increment and round differently from a copy
        prob = snr_problem(seed, 60, 200, 10.0)
        columns = np.zeros((prob.n, 3))
        columns[:, 1] = prob.Y
        strided = LassoProblem(prob.X, columns[:, 1], prob.sigma2, prob.coeffs)
        got, want = solve(strided), solve(prob)
        assert want.iterations > 0
        assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
        assert got.objective_trace.tobytes() == want.objective_trace.tobytes()

    def test_freezes_a_view_not_the_callers_design(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        prob = LassoProblem(X, np.zeros(5), 1.0, PenaltyCoefficients(1.0, 1.0))
        assert np.shares_memory(prob.X, X)
        X[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            prob.X[0, 0] = 1.0


class TestObjective:
    def test_at_zero(self):
        prob = scalar_problem()
        assert objective(prob, np.zeros(1)) == pytest.approx(
            float(prob.Y @ prob.Y) / (2 * prob.n * prob.sigma2))

    def test_perfect_fit_no_penalty_term(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((10, 3))
        theta = rng.standard_normal(3)
        prob = LassoProblem(X, X @ theta, 1.0, PenaltyCoefficients(1e-12, 1.0))
        assert objective(prob, theta) == pytest.approx(0.0, abs=1e-10)

    def test_term_by_term_recomputation(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal(8)
        prob = LassoProblem(X, Y, 1.7, PenaltyCoefficients(0.6, 0.1))
        theta = rng.standard_normal(4)
        resid = Y - X @ theta
        want = resid @ resid / (2 * 8 * 1.7) \
            + 0.6 * float(np.sum(prob.w * np.abs(theta)))
        assert objective(prob, theta) == pytest.approx(want, rel=1e-14)


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(1.25, 0.0) == pytest.approx(1.25)

    def test_vectorized(self):
        got = soft_threshold(np.array([3.0, -3.0, 0.2]), 1.0)
        np.testing.assert_allclose(got, [2.0, -2.0, 0.0])

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestSolve:
    def test_zero_when_penalty_dominates(self):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal(20)
        prob = LassoProblem(X, Y, 1.0, PenaltyCoefficients(1.0, 0.01))
        grad_at_zero = np.abs(X.T @ Y) / (20 * 1.0)
        assert np.all(grad_at_zero <= 1.0 * prob.w)  # zero is optimal
        report = solve(prob)
        np.testing.assert_array_equal(report.theta_hat, 0.0)
        assert report.converged

    def test_scalar_closed_form(self):
        # subgradient equation gives theta = 0.9 - 0.3 = 0.6; brute-force
        # grid search over [-2, 2] confirms
        prob = scalar_problem()
        report = solve(prob, tol=1e-12)
        assert abs(report.theta_hat[0] - 0.6) <= 1e-8
        grid = np.arange(-2.0, 2.0 + 1e-12, 1e-4)
        resid = prob.Y[:, None] - prob.X @ grid[None, :]
        vals = (np.sum(resid ** 2, axis=0) / (2.0 * prob.n * prob.sigma2)
                + prob.coeffs.mu1 * prob.w[0] * np.abs(grid))
        brute = grid[int(np.argmin(vals))]
        assert abs(report.theta_hat[0] - brute) <= 1e-4

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(55)
        X = rng.standard_normal((30, 40))
        Y = rng.standard_normal(30)
        prob = LassoProblem(X, Y, 1.0, PenaltyCoefficients(1e-4, 0.01))
        report = solve(prob, tol=1e-14, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_solution_scales_with_data(self):
        # Y -> cY with sigma -> c sigma and mu1 -> mu1/c leaves the
        # objective geometry intact, so theta_hat scales by c
        rng = np.random.default_rng(56)
        X = rng.standard_normal((40, 10))
        theta_star = np.zeros(10)
        theta_star[:3] = 1.0
        Y = X @ theta_star + rng.standard_normal(40)
        c = 3.0
        base = solve(LassoProblem(X, Y, 1.0, PenaltyCoefficients(0.2, 0.01)),
                     tol=1e-10)
        scaled = solve(LassoProblem(X, c * Y, c ** 2,
                                    PenaltyCoefficients(0.2 / c, 0.01)),
                       tol=1e-10)
        np.testing.assert_allclose(scaled.theta_hat, c * base.theta_hat,
                                   atol=1e-7)

    @pytest.mark.parametrize("snr", [0.5, 10.0])
    def test_duplicate_columns(self, snr):
        # columns 0 and 1 copied into 5 and 6 before the response is drawn:
        # ISTA from 0 moves each copy as its original (the zero exit at SNR
        # 0.5), and the certificate does not need distinct columns
        cfg = ExperimentConfig(n=60, p=20, seed=2, snr=snr)
        model, rng = cfg.build_model(), np.random.default_rng(2)
        drawn = cfg.draw_problem(rng)
        X = drawn.X.copy()
        X[:, [5, 6]] = X[:, [0, 1]]
        prob = LassoProblem(X, model.draw_response(rng, X), drawn.sigma2,
                            drawn.coeffs)
        report = solve(prob)
        assert report.converged and kkt_residual(prob, report.theta_hat) <= 1e-6
        assert np.all(np.diff(report.objective_trace) <= 1e-12)
        theta = report.theta_hat
        assert np.all(theta[[0, 1]] != 0.0) == (snr > 1.0)
        for col, copy in ((0, 5), (1, 6)):
            assert abs(theta[col] - theta[copy]) <= 1e-12 * abs(theta[col])
        cert = regret_certificate(prob, model, cfg.bound_config(), theta)
        assert math.isfinite(cert.bound)

    def test_rejects_bad_tol(self):
        prob = scalar_problem()
        for tol in (0.0, math.inf):  # an infinite tol certified any point
            with pytest.raises(ValueError):
                solve(prob, tol=tol)

    def test_an_overflowing_gradient_is_a_numerical_failure(self):
        # X^T Y sums inf - inf: solve warned "invalid value encountered in
        # dot", ran all 10 000 iterations on NaN and returned theta = NaN
        X = np.random.default_rng(0).standard_normal((20, 5))
        prob = LassoProblem(X, np.full(20, 1e308), 1.0,
                            PenaltyCoefficients(0.1, 0.01))
        with pytest.raises(NumericalFailureError,
                           match="^KKT residual is nan at iteration 1: "):
            solve(prob)

    @pytest.mark.parametrize("max_iter,error",
                             [(2.5, TypeError), (0, ValueError)])
    def test_rejects_bad_max_iter(self, max_iter, error):
        # the budget exit tests iterations == max_iter, which no float
        # meets: a non-converging solve would never stop
        with pytest.raises(error):
            solve(scalar_problem(), max_iter=max_iter)


class TestKktResidual:
    def test_zero_at_scalar_solution(self):
        prob = scalar_problem()
        assert kkt_residual(prob, np.array([0.6])) <= 1e-10

    def test_zero_at_dominated_origin(self):
        rng = np.random.default_rng(58)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal(20)
        prob = LassoProblem(X, Y, 1.0, PenaltyCoefficients(5.0, 0.01))
        assert kkt_residual(prob, np.zeros(5)) == 0.0

    def test_positive_away_from_optimum(self):
        rng = np.random.default_rng(59)
        prob, theta_star = orthonormal_problem(rng)
        assert kkt_residual(prob, theta_star + 1.0) > 0.0


class TestFastPathOracle:
    """solve() reproduces the reference ISTA loop bit for bit."""

    @pytest.mark.parametrize("n,p",
                             [(40, 120), (60, 200), (30, 1), (50, 100),
                              (200, 1000),  # sim-dense
                              (20, 500)])  # n << p
    @pytest.mark.parametrize("snr", [0.5, 1.5, 10.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical(self, n, p, snr, seed):
        prob = snr_problem(seed, n, p, snr)
        assert lasso._lipschitz(prob) == reference_lipschitz(prob)
        theta, iterations, trace, kkt, obj = reference_ista(prob)
        report = solve(prob)
        assert report.theta_hat.tobytes() == theta.tobytes()
        assert report.iterations == iterations
        assert report.objective_trace.tobytes() == trace.tobytes()
        assert report.kkt_residual == kkt
        assert report.objective_value == obj
        assert report.converged

    def test_bit_identical_when_budget_runs_out(self):
        prob = snr_problem(1, 60, 200, 10.0)
        theta, iterations, trace, kkt, _ = reference_ista(prob, max_iter=7)
        report = solve(prob, max_iter=7)
        assert iterations == report.iterations == 7
        assert not report.converged
        assert report.theta_hat.tobytes() == theta.tobytes()
        assert report.objective_trace.tobytes() == trace.tobytes()
        assert report.kkt_residual == kkt

    def test_sweep_covers_both_exits(self):
        iterations = [solve(snr_problem(seed, 60, 200, 1.5)).iterations
                      for seed in range(3)]
        assert min(iterations) == 0 < max(iterations)


class TestZeroSolutionExit:
    def test_null_snr_skips_step_estimate(self, monkeypatch):
        prob = snr_problem(0, 60, 200, 0.5)

        def no_step(_prob):
            raise AssertionError("step size estimated for a zero solution")

        monkeypatch.setattr(lasso, "_lipschitz", no_step)
        report = solve(prob)
        assert report.iterations == 0
        assert report.converged
        np.testing.assert_array_equal(report.theta_hat, 0.0)
        assert report.objective_trace.tolist() == [report.objective_value] * 2

    def test_step_estimated_once_otherwise(self, monkeypatch):
        prob = snr_problem(0, 60, 200, 10.0)
        calls = []
        original = lasso._lipschitz

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(lasso, "_lipschitz", counted)
        assert solve(prob).iterations > 0
        assert len(calls) == 1
