"""Divergence family tests.

The independent oracle for every closed form is direct Monte-Carlo
integration of the defining expectation: (x, y) drawn from the true joint
law, per-sample log likelihood ratios transformed by the integrand of the
divergence in question.
"""

import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

import mdlasso.divergences as dv
from mdlasso.divergences import (AlphaOrder, McEstimate, alpha_div,
                                 bhattacharyya, hellinger_sq, kl_closed,
                                 renyi_mc)
from mdlasso.errors import InvalidOrderError
from mdlasso.model import DivergenceOrder, GaussianLinearModel, renyi_div
from mdlasso.seeding import chunk_stream
from mdlasso.verify import random_model, random_spd


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


def whole_chunk_renyi_mc(model, theta, order, num_samples, seed):
    """``renyi_mc`` on one thread with each chunk's design drawn whole."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    lam = order.lam
    sigma = math.sqrt(model.sigma2)

    stats = []
    for c, lo in enumerate(range(0, num_samples, dv._MC_CHUNK)):
        rng = chunk_stream(seed, c)
        m = min(dv._MC_CHUNK, num_samples - lo)
        X = model.draw_features(rng, m)
        y = X @ model.theta_star + sigma * rng.standard_normal(m)
        resid_true = y - X @ model.theta_star
        resid_theta = y - X @ theta
        log_ratio = (resid_true ** 2 - resid_theta ** 2) / (2.0 * model.sigma2)
        a = (1.0 - lam) * log_ratio
        chunk_max = float(np.max(a))
        r = np.exp(a - chunk_max)
        stats.append((chunk_max, float(np.sum(r)), float(np.sum(r * r))))
    shift = max(chunk_max for chunk_max, _, _ in stats)
    s1 = 0.0
    s2 = 0.0
    for chunk_max, t1, t2 in stats:
        rescale = math.exp(chunk_max - shift)
        s1 += t1 * rescale
        s2 += t2 * rescale * rescale

    mean_r = s1 / num_samples
    var_r = max(0.0, (s2 - s1 * s1 / num_samples) / (num_samples - 1))
    se_log_mean = math.sqrt(var_r / num_samples) / mean_r
    estimate = -(shift + math.log(mean_r)) / (1.0 - lam)
    return McEstimate(estimate, se_log_mean / (1.0 - lam))


class TestAlphaOrder:
    @pytest.mark.parametrize("alpha", [-1.0, 1.0, 2.0])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(InvalidOrderError):
            AlphaOrder(alpha)


class TestRenyiMc:
    def test_exact_zero_at_truth(self):
        m = GaussianLinearModel(np.array([1.0, -1.0]), 1.0, np.eye(2))
        est = renyi_mc(m, m.theta_star, DivergenceOrder(0.5), 1000, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_log2_instance(self):
        m = GaussianLinearModel(np.zeros(3), 1.0, np.eye(3))
        theta = np.array([2.0, 0.0, 0.0])
        est = renyi_mc(m, theta, DivergenceOrder(0.5), 100_000, seed=1)
        assert abs(est.value - math.log(2.0)) <= 3 * est.std_error

    def test_high_order_random_instance(self):
        rng = np.random.default_rng(2)
        m = GaussianLinearModel(rng.standard_normal(3), 1.3,
                                np.eye(3) * 0.8 + 0.2 * np.ones((3, 3)))
        theta = m.theta_star + 0.5 * rng.standard_normal(3)
        order = DivergenceOrder(0.9)
        est = renyi_mc(m, theta, order, 100_000, seed=3)
        assert abs(est.value - renyi_div(m, theta, order)) <= 3 * est.std_error

    def test_reproducible(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([0.4, -0.3])
        a = renyi_mc(m, theta, DivergenceOrder(0.25), 5000, seed=7)
        b = renyi_mc(m, theta, DivergenceOrder(0.25), 5000, seed=7)
        assert a == b

    def test_streaming_merge_matches_one_shot(self, monkeypatch):
        # force the chunked path, regenerate the identical sample layout,
        # and compare against a one-shot log-mean-exp with delta-method SE
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
            X = m.draw_features(rng, k)
            y = X @ m.theta_star + rng.standard_normal(k)
            lr = ((y - X @ m.theta_star) ** 2 - (y - X @ theta) ** 2) / 2.0
            parts.append((1 - order.lam) * lr)
        a = np.concatenate(parts)
        shift = a.max()
        r = np.exp(a - shift)
        want = -(shift + math.log(r.mean())) / (1 - order.lam)
        want_se = (r.std(ddof=1) / (r.mean() * math.sqrt(num))) / (1 - order.lam)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.std_error == pytest.approx(want_se, rel=1e-9)

    @pytest.mark.parametrize("general_cov", [False, True],
                             ids=["identity", "spd"])
    def test_same_bits_on_any_cpu_count(self, monkeypatch, general_cov):
        # five chunks, the last ragged, on one thread and on 2, 3 and 5
        # threads, and 8 CPUs capped at one thread per chunk
        pools = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        rng = np.random.default_rng(47)
        p = 6
        cov = random_spd(rng, p) if general_cov else None
        m = GaussianLinearModel(rng.standard_normal(p), 0.8, cov)
        theta = m.theta_star + 0.5 * rng.standard_normal(p)
        order = DivergenceOrder(0.3)
        monkeypatch.setattr(dv, "usable_cpus", lambda: 1)
        want = renyi_mc(m, theta, order, 4 * dv._MC_CHUNK + 901, seed=5)
        for cpus in (2, 3, 5, 8):
            monkeypatch.setattr(dv, "usable_cpus", lambda: cpus)
            assert renyi_mc(m, theta, order, 4 * dv._MC_CHUNK + 901,
                            seed=5) == want, f"{cpus} CPUs"
        assert pools == [1, 2, 3, 5, 5]

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("general_cov", [False, True],
                             ids=["identity", "spd"])
    def test_row_blocks_match_whole_chunks(self, monkeypatch, general_cov,
                                           lam):
        # p = 50 in blocks of 512 rows: chunks of 1324 rows split as
        # 512 + 812, and the last chunk of 852 is one block. Blocks keep
        # M N K > 1e6, as the estimator's own blocks do for p >= 8.
        monkeypatch.setattr(dv, "_MC_CHUNK", 1324)
        monkeypatch.setattr(dv, "_MC_BLOCK_ELEMS", 1 << 15)
        rng = np.random.default_rng(31)
        p = 50
        cov = random_spd(rng, p) if general_cov else None
        m = GaussianLinearModel(rng.standard_normal(p), 1.3, cov)
        theta = m.theta_star + 0.5 * rng.standard_normal(p)
        order = DivergenceOrder(lam)
        assert dv.block_rows(p) == 512
        assert list(dv.row_blocks(1324, 512)) == [(0, 512), (512, 1324)]
        for seed in range(3):
            assert renyi_mc(m, theta, order, 3500, seed) == \
                whole_chunk_renyi_mc(m, theta, order, 3500, seed)

    @pytest.mark.parametrize("p", [100, 1000])
    def test_peak_memory_does_not_grow_with_p(self, monkeypatch, p):
        # four full 16 384-sample chunks and a ragged fifth, on two threads
        monkeypatch.setattr(dv, "usable_cpus", lambda: 2)
        m = GaussianLinearModel(np.full(p, 0.1), 1.0, None)
        tracemalloc.start()
        try:
            renyi_mc(m, np.zeros(p), DivergenceOrder(0.5), 70_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("theta, match", [
        (np.zeros(3), "theta has length 3, expected 2"),
        (np.array([0.0, np.nan]), "finite"),
    ], ids=["wrong_length", "nan"])
    def test_rejects_bad_theta_before_drawing(self, monkeypatch, theta,
                                              match):
        def no_draw(self, rng, n):
            raise AssertionError("drew before validating theta")

        monkeypatch.setattr(GaussianLinearModel, "draw_features", no_draw)
        m = GaussianLinearModel(np.zeros(2), 1.0, None)
        with pytest.raises(ValueError, match=match):
            renyi_mc(m, theta, DivergenceOrder(0.5), 1000, seed=0)

    def test_large_displacement_no_overflow(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        est = renyi_mc(m, np.array([1e4]), DivergenceOrder(0.5), 2000, seed=5)
        assert math.isfinite(est.value)

    def test_rejects_small_sample(self):
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        with pytest.raises(ValueError):
            renyi_mc(m, np.array([1.0]), DivergenceOrder(0.5), 999, seed=0)


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

    def test_alias_of_half_order(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_model(rng)
            theta = m.theta_star + rng.standard_normal(m.dim)
            assert bhattacharyya(m, theta) == renyi_div(m, theta,
                                                        DivergenceOrder(0.5))


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


class TestAlphaDiv:
    def test_zero_at_truth(self):
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        assert alpha_div(m, m.theta_star, AlphaOrder(0.3)) == 0.0

    def test_worked_instance_with_mc(self):
        # closed form 1.301712287901576 at alpha=0.5, energy 4, sigma2=1
        m = GaussianLinearModel(np.zeros(2), 1.0, np.eye(2))
        theta = np.array([2.0, 0.0])
        a = AlphaOrder(0.5)
        got = alpha_div(m, theta, a)
        assert got == pytest.approx(1.301712287901576, rel=1e-12)
        mean, se = mc_integrand_mean(
            m, theta, lambda lr: (4.0 / (1 - 0.25)) * (1.0 - np.exp(0.75 * lr)),
            100_000, seed=28)
        assert abs(mean - got) <= 3 * se

    def test_boundedness(self):
        # extreme displacement saturates but never exceeds the cap
        m = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
        val = alpha_div(m, np.array([1e4]), AlphaOrder(0.5))
        assert val <= 4.0 / (1.0 - 0.25)
