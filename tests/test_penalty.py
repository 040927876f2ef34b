"""Penalty construction, grid codelength, Kraft certificates, rounding moments."""

import math
import tracemalloc

import numpy as np
import pytest

from mdlasso.errors import InvalidOrderError
from mdlasso.model import DivergenceOrder
from mdlasso.penalty import (PenaltyCoefficients, QuantizerSpec,
                             column_mean_squares, design_ratio,
                             fixed_design_mu1, grid_codelength, kraft_sum,
                             min_coefficients, randomize_quantize,
                             weighted_l1)


class TestColumnMeanSquares:
    @pytest.mark.parametrize("shape", [(200, 1000), (1, 1000)],
                             ids=["reference", "one_row"])
    def test_bit_equal_to_mean_of_squares(self, shape):
        X = np.random.default_rng(3).standard_normal(shape) * 7.0
        assert (column_mean_squares(X).tobytes()
                == np.mean(X ** 2, axis=0).tobytes())

    def test_single_column(self):
        # numpy sums a contiguous axis pairwise, so at p = 1 np.mean and
        # einsum may round differently; n eps bounds either sum's error
        n = 200
        X = np.random.default_rng(4).standard_normal((n, 1)) * 7.0
        assert column_mean_squares(X)[0] == pytest.approx(
            float(np.mean(X ** 2)), rel=n * np.finfo(float).eps, abs=0.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200],
                             ids=["nan", "inf", "square_overflows"])
    def test_names_a_non_finite_column(self, entry):
        X = np.ones((3, 3))
        X[1, 2] = entry
        with pytest.raises(ValueError) as err:
            column_mean_squares(X)
        assert str(err.value) == ("column 2 of the design matrix has a "
                                  "non-finite entry or a mean square that "
                                  "overflows")

    def test_names_a_zero_column(self):
        X = np.ones((3, 4))
        X[:, 2] = 0.0
        with pytest.raises(ValueError) as err:
            column_mean_squares(X)
        assert str(err.value) == ("column 2 of the design matrix is "
                                  "identically zero")

    def test_names_an_underflowing_column(self):
        # 1e-170 squared is below the smallest subnormal: the column is
        # not zero, but its mean square is 0.0
        X = np.ones((3, 4))
        X[:, 2] = 1e-170
        with pytest.raises(ValueError) as err:
            column_mean_squares(X)
        assert str(err.value) == ("column 2 of the design matrix has a "
                                  "mean square that underflows to 0")

    @pytest.mark.parametrize("first,second", [(np.nan, 0.0), (0.0, np.inf)],
                             ids=["nan_then_zero", "zero_then_inf"])
    def test_names_the_first_bad_column(self, first, second):
        X = np.ones((2, 5))
        X[:, 1] = first
        X[:, 3] = second
        what = "identically zero" if first == 0.0 else "non-finite entry"
        with pytest.raises(ValueError, match=f"^column 1 .*{what}"):
            column_mean_squares(X)

    def test_no_n_by_p_temporary(self):
        X = np.random.default_rng(5).standard_normal((200, 1000))
        tracemalloc.start()
        try:
            column_mean_squares(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes // 8


class TestWeightedL1:
    def test_zero(self):
        assert weighted_l1(np.zeros(3), np.ones(3)) == 0.0

    def test_direct_sum(self):
        assert weighted_l1(np.array([1.0, -2.0]),
                           np.array([1.0, 0.5])) == pytest.approx(2.0)

    def test_unit_weights_is_l1(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(7)
        assert weighted_l1(theta, np.ones(7)) == pytest.approx(
            float(np.sum(np.abs(theta))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_l1(np.zeros(3), np.ones(2))


class TestMinCoefficients:
    def test_worked_instance(self):
        # frozen arithmetic oracle: log 4000 = 8.294049640102028,
        # (0.5 + 8 sqrt(0.75)) / 4 = 1.857050807568877,
        # mu1 = sqrt(8.294049640102028 / 50 * 1.857050807568877)
        got = min_coefficients(200, 1000, DivergenceOrder(0.5), 0.5, 0.5, 1.0)
        assert got.mu1 == pytest.approx(0.5550220100530757, rel=1e-12)
        assert got.mu2 == pytest.approx(0.006931471805599453, rel=1e-12)

    def test_eps_to_zero_limit(self):
        lam = 0.3
        got = min_coefficients(100, 50, DivergenceOrder(lam), 1 - lam, 1e-15, 2.0)
        limit = got.mu1 ** 2 * (100 * (1 - lam) * 2.0) / math.log(200)
        assert limit == pytest.approx((lam + 8.0) / 4.0, rel=1e-9)

    def test_rejects_inadmissible_order(self):
        with pytest.raises(InvalidOrderError, match="^inadmissible pair: "):
            min_coefficients(100, 50, DivergenceOrder(0.6), 0.5, 0.5, 1.0)

    @pytest.mark.parametrize("n, p", [(200.5, 1000), (200, 1000.0)])
    def test_rejects_non_integer_sizes(self, n, p):
        with pytest.raises(TypeError):
            min_coefficients(n, p, DivergenceOrder(0.5), 0.5, 0.5, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, p=10, beta=0.5, eps=0.5, sigma2=1.0),
        dict(n=10, p=0, beta=0.5, eps=0.5, sigma2=1.0),
        dict(n=10, p=10, beta=1.5, eps=0.5, sigma2=1.0),
        dict(n=10, p=10, beta=0.5, eps=0.0, sigma2=1.0),
        dict(n=10, p=10, beta=0.5, eps=0.5, sigma2=0.0),
    ])
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ValueError):
            min_coefficients(kwargs.pop("n"), kwargs.pop("p"),
                             DivergenceOrder(0.4), **kwargs)

    # n beta sigma2 (1 - eps) overflows, so mu1^2 is 0, or is so small
    # that the quotient overflows, so mu1^2 is inf
    @pytest.mark.parametrize("sigma2, mu1_sq", [(1e308, "0.0"),
                                                (1e-320, "inf")])
    def test_rejects_sigma2_out_of_range_for_n(self, sigma2, mu1_sq):
        with pytest.raises(ValueError) as exc:
            min_coefficients(20, 5, DivergenceOrder(0.5), 0.5, 0.5, sigma2)
        assert str(exc.value) == (f"sigma2={sigma2} is out of range for "
                                  f"n=20: mu1^2 = {mu1_sq}")


class TestFixedDesignMu1:
    def test_worked_instance(self):
        # sqrt(2 * 8.294049640102028 / 200)
        assert fixed_design_mu1(200, 1000, 1.0) == pytest.approx(
            0.2879939172986476, rel=1e-12)

    def test_rejects_degenerate_p(self):
        with pytest.raises(ValueError):
            fixed_design_mu1(10, 0, 1.0)

    def test_noise_scaling(self):
        base = fixed_design_mu1(100, 37, 1.0)
        assert fixed_design_mu1(100, 37, 4.0) == pytest.approx(base / 2.0)


class TestDesignRatio:
    def test_small_order_limit(self):
        assert design_ratio(DivergenceOrder(1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_worked_values(self):
        # sqrt(8.5 / 4) and sqrt(8.9 / 0.8)
        assert design_ratio(DivergenceOrder(0.5)) == pytest.approx(
            1.4577379737113252, abs=1e-12)
        assert design_ratio(DivergenceOrder(0.9)) == pytest.approx(
            3.335416016031584, abs=1e-12)


class TestGridCodelength:
    def test_origin(self):
        assert grid_codelength(np.zeros(4, dtype=int), 7, 1.0) == pytest.approx(
            math.log(2.0))

    def test_worked_instance(self):
        # 2 (2 log 4000 + log 2) = 34.562492921528
        got = grid_codelength(np.array([1, -1]), 1000, 0.5)
        assert got == pytest.approx(34.562492921528, rel=1e-12)

    def test_unit_increment(self):
        z = np.array([2, 0, -1])
        bumped = np.array([2, 1, -1])
        delta = grid_codelength(bumped, 50, 0.25) - grid_codelength(z, 50, 0.25)
        assert delta == pytest.approx(math.log(200) / 0.25, rel=1e-12)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            grid_codelength(np.array([0.5, 1.0]), 10, 0.5)


class TestKraftSum:
    def test_p_1000(self):
        # frozen closed-form evaluation
        assert kraft_sum(1000) == pytest.approx(0.8243606439371545, rel=1e-12)
        # cross-check by truncated summation over ||z||_1 <= 3: the partial
        # sum sits below the closed form by the analytic k >= 4 tail, which
        # is under 1.5e-3 here
        p = 1000
        log_term = 1.0 / (4.0 * p)
        partial = 1.0  # k = 0
        # number of z with ||z||_1 = k, via support size j
        for k in (1, 2, 3):
            count = 0
            for j in range(1, k + 1):
                count += 2 ** j * math.comb(p, j) * math.comb(k - 1, j - 1)
            partial += count * log_term ** k
        truncated = 0.5 * partial
        closed = kraft_sum(p)
        assert 0.0 < closed - truncated < 1.5e-3


class TestRandomizeQuantize:
    def spec(self, delta=1.0, w=None):
        w = np.ones(3) if w is None else w
        return QuantizerSpec(delta=delta, w_star=w)

    def test_on_grid_is_deterministic(self):
        spec = self.spec(delta=0.5)
        theta = np.array([1.0, -2.5, 0.0])
        for seed in range(20):
            np.testing.assert_array_equal(
                randomize_quantize(theta, spec, seed), theta)

    def test_quarter_point_bernoulli(self):
        # m = 0.25 rounds up with probability 1/4; exact Bernoulli oracle
        # one call on `draws` independent copies of the component
        draws = 100_000
        spec = QuantizerSpec(delta=1.0, w_star=np.ones(draws))
        t = randomize_quantize(np.full(draws, 0.25), spec, seed=0)
        freq = float(np.mean(t == 1.0))
        se = math.sqrt(0.25 * 0.75 / draws)
        assert abs(freq - 0.25) <= 4 * se

    def test_values_on_adjacent_grid_points(self):
        spec = QuantizerSpec(delta=0.7, w_star=np.array([1.3]))
        theta = np.array([1.0])
        m = 1.3 * 1.0 / 0.7
        lo, hi = math.floor(m), math.ceil(m)
        seen = {round(float(randomize_quantize(theta, spec, seed=s)[0]), 12)
                for s in range(200)}
        allowed = {round(0.7 * lo / 1.3, 12), round(0.7 * hi / 1.3, 12)}
        assert seen <= allowed and len(seen) == 2

    def test_dimension_mismatch(self):
        spec = self.spec()
        with pytest.raises(ValueError, match="mismatch"):
            randomize_quantize(np.zeros(2), spec, seed=0)


class TestPenaltyCoefficients:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PenaltyCoefficients(0.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyCoefficients(1.0, -1.0)
