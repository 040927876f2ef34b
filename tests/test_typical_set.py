"""Typical-set membership, Sanov exponent and probability bound chain tests."""

import math

import numpy as np
import pytest

from mdlasso.penalty import column_mean_squares as msq
from mdlasso.typical_set import is_typical, prob_lower_bounds, sanov_exponent


class TestIsTypical:
    def test_exact_columns(self):
        # every column mean square exactly matches the diagonal
        X = np.array([[1.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [-1.0, 2.0]])
        cov = np.diag([1.0, 4.0])
        for eps in (1e-6, 0.1, 0.9):
            assert is_typical(msq(X), cov, eps)

    def test_inflated_column(self):
        eps = 0.2
        X = np.ones((5, 1)) * math.sqrt(1.0 + 2 * eps)
        assert not is_typical(msq(X), np.eye(1), eps)

    def test_closed_boundary(self):
        # dyadic entries make the column mean squares exact in floats:
        # upper ratio (2.25 + 0.25)/2 = 1.25 = 1 + eps at eps = 0.25,
        # lower ratio (0.25 + 0.25 + 1 + 1)/4 = 0.625 = 1 - eps at eps = 0.375
        X_hi = np.array([[1.5], [0.5]])
        assert is_typical(msq(X_hi), np.eye(1), 0.25)
        assert not is_typical(msq(X_hi), np.eye(1), 0.2499999)
        X_lo = np.array([[0.5], [0.5], [1.0], [1.0]])
        assert is_typical(msq(X_lo), np.eye(1), 0.375)
        assert not is_typical(msq(X_lo), np.eye(1), 0.3749999)

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("cov", [None, np.eye(3)], ids=["identity", "cov"])
    def test_nan_mean_square_is_not_typical(self, where, cov):
        # a NaN fails every comparison, so min/max checks written as
        # not (ratio < 1 - eps) would call it typical
        mean_sq = np.ones(3)
        mean_sq[where] = np.nan
        assert not is_typical(mean_sq, cov, 0.5)

    def test_infinite_mean_square_is_not_typical(self):
        assert not is_typical(np.array([1.0, np.inf]), None, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_typical(msq(np.ones((3, 2))), np.eye(3), 0.5)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            is_typical(msq(np.ones((3, 1))), np.zeros((1, 1)), 0.5)

    def test_rejects_a_diagonal_vector(self):
        with pytest.raises(ValueError, match="2x2"):
            is_typical(msq(np.ones((3, 2))), np.ones(2), 0.5)

    def test_rejects_a_design_in_place_of_mean_squares(self):
        with pytest.raises(ValueError, match="1-D"):
            is_typical(np.ones((3, 2)), None, 0.5)


class TestSanovExponent:
    def test_worked_upper(self):
        # 100 (0.5 - log 1.5) = 9.45348918918356
        assert sanov_exponent(200, 0.5) == pytest.approx(
            9.45348918918356, rel=1e-12)

    def test_reference_tail_bound(self):
        # e^{-D} at n=200, eps=0.5, the one-sided tail bound
        assert math.exp(-sanov_exponent(200, 0.5)) == pytest.approx(
            7.841548093590787e-05, rel=1e-12)

    def test_small_eps_quadratic(self):
        n = 1000
        for eps in (1e-3, 1e-4):
            quad = n * eps ** 2 / 4.0
            assert sanov_exponent(n, eps) == pytest.approx(quad, rel=2e-3 if eps == 1e-3 else 2e-4)

    def test_rejects_a_non_integer_n(self):
        with pytest.raises(TypeError):
            sanov_exponent(200.5, 0.5)


class TestProbLowerBounds:
    def test_reference_configuration(self):
        # frozen high-precision evaluation at n=200, p=1000, eps=0.5:
        # 2 e^{-9.45348918918356} = 1.5683096187181573e-4,
        # (1 - that)^1000 = 0.8548380346627614
        t = prob_lower_bounds(200, 1000, 0.5)
        assert t.exact_product == pytest.approx(0.8548380346627614, rel=1e-12)
        assert t.exact_product == math.exp(t.log_exact_product)
        assert not t.vacuous

    def test_vacuous_at_tiny_eps(self):
        t = prob_lower_bounds(200, 1000, 1e-6)
        assert t.exact_product == 0.0
        assert t.log_exact_product == -math.inf
        assert t.vacuous
        assert t.linearized < 0.0

    @pytest.mark.parametrize("n, p", [(200.5, 1000), (200, 1000.0)])
    def test_rejects_non_integer_sizes(self, n, p):
        with pytest.raises(TypeError):
            prob_lower_bounds(n, p, 0.5)

