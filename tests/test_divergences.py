"""Divergence family tests.

The independent oracle for every closed form is direct Monte-Carlo
integration of the defining expectation: (x, y) drawn from the true joint
law, per-sample log likelihood ratios transformed by the integrand of the
divergence in question. ``mc_integrand_mean`` draws the whole design, so it
is also the reference for ``renyi_mc``, which draws only the fit gap.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

import mdlasso.divergences as dv
from mdlasso.divergences import (bhattacharyya, hellinger_sq, kl_closed,
                                 renyi_mc)
from mdlasso.model import DivergenceOrder, GaussianLinearModel, renyi_div
from mdlasso.seeding import chunk_stream
from mdlasso.verify import random_spd


def mc_integrand_mean(model, theta, transform, num, seed):
    """Mean and SE of transform(log p_theta/p_true) over true-law samples."""
    rng = np.random.default_rng(seed)
    X = model.draw_features(rng, num)
    y = X @ model.theta_star + math.sqrt(model.sigma2) * rng.standard_normal(num)
    r_true = y - X @ model.theta_star
    r_theta = y - X @ theta
    log_ratio = (r_true ** 2 - r_theta ** 2) / (2 * model.sigma2)
    vals = transform(log_ratio)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(num))


class TestRenyiMc:
    def test_exact_zero_at_truth(self):
        m = GaussianLinearModel(np.array([1.0, -1.0]), 1.0, np.eye(2))
        est = renyi_mc(m, m.theta_star, DivergenceOrder(0.5), 1000, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_reproducible(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([0.4, -0.3])
        a = renyi_mc(m, theta, DivergenceOrder(0.25), 5000, seed=7)
        b = renyi_mc(m, theta, DivergenceOrder(0.25), 5000, seed=7)
        assert a == b

    def test_streaming_merge_matches_one_shot(self, monkeypatch):
        # force the chunked path, regenerate the identical sample layout
        # (each chunk's fit gaps d ~ N(0, t), then its noise z), and compare
        # against a one-shot log-mean-exp with delta-method SE
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([1.0, 2.0])
        order = DivergenceOrder(0.5)
        num, chunk, seed = 4096, 1000, 11
        monkeypatch.setattr(dv, "_MC_CHUNK", chunk)
        got = renyi_mc(m, theta, order, num, seed=seed)

        parts = []
        for c, done in enumerate(range(0, num, chunk)):
            rng = chunk_stream(seed, c)
            k = min(chunk, num - done)
            d = math.sqrt(5.0) * rng.standard_normal(k)
            z = rng.standard_normal(k)
            parts.append((1 - order.lam) * (z ** 2 - (z - d) ** 2) / 2.0)
        a = np.concatenate(parts)
        shift = a.max()
        r = np.exp(a - shift)
        want = -(shift + math.log(r.mean())) / (1 - order.lam)
        want_se = (r.std(ddof=1) / (r.mean() * math.sqrt(num))) / (1 - order.lam)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.std_error == pytest.approx(want_se, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
    def test_matches_full_design_law(self, lam):
        # renyi_mc draws d = x^T (theta - theta_star) in place of x; under a
        # general covariance it must agree with the estimator that draws
        # the whole design, within 3 combined SE. t = 0.5 sigma2 keeps the
        # ratio's second moment finite at every order.
        rng = np.random.default_rng(53)
        p = 6
        m = GaussianLinearModel(rng.standard_normal(p), 0.8,
                                random_spd(rng, p))
        direction = rng.standard_normal(p)
        direction /= math.sqrt(direction @ (m.cov @ direction))
        theta = m.theta_star + math.sqrt(0.5 * m.sigma2) * direction
        order = DivergenceOrder(lam)
        got = renyi_mc(m, theta, order, 200_000, seed=9)
        mean, se = mc_integrand_mean(
            m, theta, lambda lr: np.exp((1 - lam) * lr), 200_000, seed=10)
        ref = -math.log(mean) / (1 - lam)
        ref_se = se / (mean * (1 - lam))
        assert abs(got.value - ref) <= 3 * math.hypot(got.std_error, ref_se)
        assert abs(got.value - renyi_div(m, theta, order)) <= \
            3 * got.std_error

    @pytest.mark.parametrize("p", [100, 1000])
    def test_peak_memory_does_not_grow_with_p(self, monkeypatch, p):
        # four full 16 384-sample chunks and a ragged fifth; the two
        # per-chunk vectors take 256 KiB. tracemalloc cannot see pool
        # workers, so the process may run on one CPU: the chunks run here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        m = GaussianLinearModel(np.full(p, 0.1), 1.0, None)
        tracemalloc.start()
        try:
            renyi_mc(m, np.zeros(p), DivergenceOrder(0.5), 70_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("theta, match", [
        (np.zeros(3), "theta has length 3, expected 2"),
        (np.array([0.0, np.nan]), "finite"),
    ], ids=["wrong_length", "nan"])
    def test_rejects_bad_theta_before_drawing(self, monkeypatch, theta,
                                              match):
        def no_draw(seed, chunk):
            raise AssertionError("drew before validating theta")

        monkeypatch.setattr(dv, "chunk_stream", no_draw)
        m = GaussianLinearModel(np.zeros(2), 1.0, None)
        with pytest.raises(ValueError, match=match):
            renyi_mc(m, theta, DivergenceOrder(0.5), 1000, seed=0)
        # the patch is live: a valid theta reaches the draw
        with pytest.raises(AssertionError, match="drew"):
            renyi_mc(m, np.ones(2), DivergenceOrder(0.5), 1000, seed=0)

    def test_large_displacement_no_overflow(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        est = renyi_mc(m, np.array([1e4]), DivergenceOrder(0.5), 2000, seed=5)
        assert math.isfinite(est.value)

    def test_rejects_small_sample(self):
        # a float count (1e5) is refused as solve refuses a float max_iter
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        for num_samples, error in ((999, ValueError), (1e5, TypeError)):
            with pytest.raises(error):
                renyi_mc(m, np.array([1.0]), DivergenceOrder(0.5),
                         num_samples, seed=0)


    def test_seed_must_be_an_integer(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        theta = np.array([1.0])
        with pytest.raises(TypeError):
            renyi_mc(m, theta, DivergenceOrder(0.5), 1000, seed=2.9)
        assert renyi_mc(m, theta, DivergenceOrder(0.5), 1000,
                        seed=np.int64(2)) \
            == renyi_mc(m, theta, DivergenceOrder(0.5), 1000, seed=2)


class TestKlClosed:
    def test_zero_at_truth(self):
        m = GaussianLinearModel(np.array([2.0]), 1.5, np.eye(1))
        assert kl_closed(m, m.theta_star) == 0.0

    def test_identity_instance(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([2.0, 0.0])
        assert kl_closed(m, theta) == pytest.approx(2.0, rel=1e-14)
        # secondary oracle: Monte-Carlo of the log-ratio
        mean, se = mc_integrand_mean(m, theta, lambda lr: -lr, 100_000, seed=21)
        assert abs(mean - 2.0) <= 3 * se

    def test_anisotropic_instance(self):
        m = GaussianLinearModel(np.zeros(2), 2.0, np.diag([1.0, 4.0]))
        theta = np.array([1.0, 1.0])
        # quadratic-form arithmetic: (1 + 4) / (2 * 2)
        assert kl_closed(m, theta) == pytest.approx(1.25, rel=1e-14)
        mean, se = mc_integrand_mean(m, theta, lambda lr: -lr, 200_000, seed=22)
        assert abs(mean - 1.25) <= 3 * se


class TestBhattacharyya:
    def test_zero_at_truth(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        assert bhattacharyya(m, m.theta_star) == 0.0

    def test_log2_instance(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        assert bhattacharyya(m, np.array([2.0, 0.0])) == pytest.approx(
            math.log(2.0), rel=1e-14)


class TestHellingerSq:
    def test_zero_at_truth(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        assert hellinger_sq(m, m.theta_star) == 0.0

    def test_log2_instance(self):
        # frozen oracle 2 (1 - 2^{-1/2}) = 0.5857864376269049, plus
        # Monte-Carlo of the squared-root-difference integral in its
        # affinity form 2 (1 - E[sqrt(p_theta/p_true)]), whose integrand
        # has variance bounded by 1
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([2.0, 0.0])
        assert bhattacharyya(m, theta) == pytest.approx(math.log(2.0))
        got = hellinger_sq(m, theta)
        assert got == pytest.approx(0.5857864376269049, rel=1e-12)
        mean, se = mc_integrand_mean(
            m, theta, lambda lr: np.exp(0.5 * lr), 200_000, seed=24)
        assert abs(2.0 * (1.0 - mean) - got) <= 3 * 2.0 * se

    def test_asymptote(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        val = hellinger_sq(m, np.array([1e4]))  # displacement energy 1e8
        assert 1.999 < val <= 2.0
