"""Model and divergence-calculus tests.

Worked values, the exact boundary case of the Hessian domination, the
covariance algebra, and input validation. The randomized sweeps (the square
root's round trip, finite differences, the domination gap) are checks in
``mdlasso.verify``.
"""

import math
import warnings

import numpy as np
import pytest

from mdlasso.divergences import renyi_mc
from mdlasso.errors import InvalidOrderError, SingularMatrixError
from mdlasso.model import (DivergenceOrder, GaussianLinearModel,
                           displacement_energy, hessian_bound_gap,
                           min_eigenvalue, renyi_div, renyi_grad, renyi_hess,
                           sqrt_sym, tilt_scale)
from mdlasso.verify import fd_renyi, random_model


class TestSqrtSym:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_sym(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_sym(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-13)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sqrt_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_near_singular(self):
        S = np.diag([1.0, 1e-15])
        with pytest.raises(SingularMatrixError):
            sqrt_sym(S)

    def test_rejects_negative_definite(self):
        with pytest.raises(SingularMatrixError):
            sqrt_sym(-np.eye(2))


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -1.0])) == pytest.approx(-1.0)

    def test_identity(self):
        assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0)

    def test_against_full_eigendecomposition(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        S = (A + A.T) / 2
        # oracle: full eigendecomposition
        want = float(np.min(np.linalg.eigvals(S).real))
        spectral = float(np.max(np.abs(np.linalg.eigvals(S))))
        assert abs(min_eigenvalue(S) - want) <= 1e-9 * spectral

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDivergenceOrder:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, lam):
        with pytest.raises(InvalidOrderError):
            DivergenceOrder(lam)


class TestModelConstruction:
    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            GaussianLinearModel(np.zeros(2), 0.0, np.eye(2))

    @pytest.mark.parametrize("theta_star, sigma2",
                             [([1.0, np.nan], 1.0), ([1.0, 0.0], np.inf)],
                             ids=["nan_theta_star", "inf_sigma2"])
    def test_rejects_non_finite(self, theta_star, sigma2):
        with pytest.raises(ValueError, match="finite"):
            GaussianLinearModel(np.array(theta_star), sigma2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_covariance(self, bad):
        cov = np.array([[1.0, bad], [bad, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="feature covariance must be finite"):
                GaussianLinearModel(np.ones(2), 1.0, cov)
            with pytest.raises(ValueError, match="sqrt_sym input must be"):
                sqrt_sym(cov)
            with pytest.raises(ValueError, match="min_eigenvalue input must"):
                min_eigenvalue(cov)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianLinearModel(np.zeros(3), 1.0, np.eye(2))

    def test_covariance_at_the_singularity_clamp(self):
        # singular means an eigenvalue at or below 1e-12 times the largest
        m = GaussianLinearModel(np.ones(2), 1.0, np.diag([1.0, 2e-12]))
        assert np.isfinite(m.draw_features(np.random.default_rng(4), 10)).all()
        with pytest.raises(SingularMatrixError):
            GaussianLinearModel(np.ones(2), 1.0, np.diag([1.0, 1e-12]))

    def test_sqrt_cov_cached(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        np.testing.assert_allclose(m.sqrt_cov @ m.sqrt_cov, m.cov,
                                   atol=1e-10 * np.linalg.norm(m.cov))

    def test_immutable(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            m.cov[0, 0] = 2.0

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 7), (50, 20), (200, 1000)])
    def test_draw_is_aligned_plain_draw(self, n, p):
        m = GaussianLinearModel(np.linspace(-1.0, 1.0, p), 0.5)
        rng, plain = np.random.default_rng(n + p), np.random.default_rng(n + p)
        X = m.draw_features(rng, n)
        Y = m.draw_response(rng, X)
        assert X.ctypes.data % 64 == 0 and X.flags.c_contiguous
        want = plain.standard_normal((n, p))
        np.testing.assert_array_equal(X, want)
        np.testing.assert_array_equal(
            Y, want @ m.theta_star + np.sqrt(0.5) * plain.standard_normal(n))


class TestIdentityCovariance:
    def test_non_symmetric_still_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianLinearModel(np.ones(3), 1.0, cov)

    def test_non_identity_flagged(self):
        m = GaussianLinearModel(np.ones(2), 1.0, np.diag([1.0, 2.0]))
        assert np.array_equal(m.cov, np.diag([1.0, 2.0]))
        assert m.sqrt_cov is not None

    @pytest.mark.parametrize("p", [1, 3, 20])
    def test_explicit_identity_stays_a_matrix(self, p):
        m = GaussianLinearModel(np.ones(p), 1.0, np.eye(p))
        assert isinstance(m.cov, np.ndarray) and not m.cov.flags.writeable
        np.testing.assert_array_equal(m.cov, np.eye(p))
        np.testing.assert_allclose(m.sqrt_cov, np.eye(p), atol=1e-14)
        v = np.arange(p, dtype=np.float64)
        np.testing.assert_array_equal(m.cov @ v, v)

    def test_divergences_match_dense_identity(self):
        # The solver's soft-threshold leaves -0.0 entries, which the dense
        # I @ tb turns into +0.0: values agree, the sign of zero may not.
        rng = np.random.default_rng(21)
        p = 50
        theta_star = np.zeros(p)
        theta_star[:5] = 1.0
        m = GaussianLinearModel(theta_star, 0.7)
        order = DivergenceOrder(0.5)
        eye = np.eye(p)
        explicit = GaussianLinearModel(theta_star, 0.7, eye)
        for _ in range(5):
            x = rng.standard_normal(p)
            theta = np.sign(x) * np.maximum(np.abs(x) - 0.8, 0.0)
            tb = theta - theta_star
            assert np.any((tb == 0.0) & np.signbit(tb))
            u = eye @ tb
            t = float(tb @ u)
            assert displacement_energy(m, theta) == float(tb @ (eye @ tb))
            c = tilt_scale(m, order)
            want = (order.lam / m.sigma2) * (c / (c + t)) * u
            assert np.array_equal(renyi_grad(m, theta, order), want)
            assert np.array_equal(renyi_hess(m, theta, order),
                                  renyi_hess(explicit, theta, order))
            assert hessian_bound_gap(m, theta, order) \
                == hessian_bound_gap(explicit, theta, order)
        for seed, lam in enumerate((0.25, 0.5, 0.9)):
            assert renyi_mc(m, theta, DivergenceOrder(lam), 2000, seed) \
                == renyi_mc(explicit, theta, DivergenceOrder(lam), 2000, seed)


class TestTilted:
    def test_scale_forced_at_half(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        assert tilt_scale(m, DivergenceOrder(0.5)) == pytest.approx(4.0)


class TestRenyiDiv:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(8)
        m = random_model(rng)
        assert renyi_div(m, m.theta_star, DivergenceOrder(0.5)) == 0.0

    def test_worked_values(self):
        m = GaussianLinearModel(np.zeros(4), 1.0, np.eye(4))
        theta = np.array([2.0, 0.0, 0.0, 0.0])
        assert renyi_div(m, theta, DivergenceOrder(0.5)) == pytest.approx(
            math.log(2.0), rel=1e-12)
        m4 = GaussianLinearModel(np.zeros(4), 4.0, np.eye(4))
        assert renyi_div(m4, theta, DivergenceOrder(0.5)) == pytest.approx(
            math.log(1.25), rel=1e-12)


class TestRenyiGrad:
    def test_zero_at_truth(self):
        m = GaussianLinearModel(np.array([1.0, 2.0]), 1.0, np.eye(2))
        np.testing.assert_allclose(
            renyi_grad(m, m.theta_star, DivergenceOrder(0.5)), 0.0)

    def test_scalar_instance(self):
        # hand value 0.5, cross-checked by central differences
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        theta = np.array([2.0])
        order = DivergenceOrder(0.5)
        g = renyi_grad(m, theta, order)
        assert g[0] == pytest.approx(0.5, abs=1e-12)
        fd, _ = fd_renyi(m, theta, order)
        assert abs(g[0] - fd[0]) <= 1e-6 * abs(fd[0])


class TestRenyiHess:
    def test_at_truth(self):
        rng = np.random.default_rng(14)
        m = random_model(rng)
        order = DivergenceOrder(0.4)
        np.testing.assert_allclose(
            renyi_hess(m, m.theta_star, order),
            (order.lam / m.sigma2) * m.cov, atol=1e-13)

    def test_scalar_zero_point(self):
        # at displacement energy 4 with c = 4 the scalar Hessian vanishes
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        H = renyi_hess(m, np.array([2.0]), DivergenceOrder(0.5))
        assert H[0, 0] == pytest.approx(0.0, abs=1e-14)
        _, fd = fd_renyi(m, np.array([2.0]), DivergenceOrder(0.5))
        assert abs(H[0, 0] - fd[0, 0]) <= 1e-8


class TestHessianBoundGap:
    def test_at_truth(self):
        m = GaussianLinearModel(np.zeros(3), 2.0, np.eye(3))
        order = DivergenceOrder(0.5)
        gap = hessian_bound_gap(m, m.theta_star, order)
        assert gap == pytest.approx(9 * order.lam / (8 * m.sigma2), rel=1e-12)

    def test_exact_zero_at_three_scales(self):
        # the domination is tight exactly at displacement energy 3c
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        order = DivergenceOrder(0.5)
        c = tilt_scale(m, order)
        theta = np.array([math.sqrt(3.0 * c)])
        assert displacement_energy(m, theta) == pytest.approx(12.0)
        assert abs(hessian_bound_gap(m, theta, order)) <= 1e-10
