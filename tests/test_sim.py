"""Experiment protocol tests: SNR control, determinism, per-trial invariants."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from mdlasso import sim
from mdlasso.cli import parse_config
from mdlasso.divergences import bhattacharyya
from mdlasso.model import DivergenceOrder, GaussianLinearModel, renyi_div
from mdlasso.penalty import column_mean_squares, min_coefficients
from mdlasso.sim import (ExperimentConfig, default_theta_star, run_experiment,
                         run_trial)
from mdlasso.seeding import substream
from mdlasso.typical_set import is_typical

SMALL = dict(n=50, p=20, eps=0.9, tau=0.2, sparsity=5)
INLINE = dict(n=30, p=12, snr=1.5, lam=0.4, beta=0.55, eps=0.3, sparsity=4)
RISK_MC = dict(n=50, p=100, snr=2.0)


class TestExperimentConfig:
    def test_rejects_missing_noise_spec(self):
        with pytest.raises(ValueError, match="snr"):
            ExperimentConfig(n=10, p=5, seed=1)

    def test_rejects_both_noise_specs(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(n=10, p=5, seed=1, snr=1.0, sigma2=1.0)

    def test_rejects_inadmissible_orders(self):
        with pytest.raises(Exception, match="inadmissible"):
            ExperimentConfig(n=10, p=5, seed=1, snr=1.0, lam=0.6, beta=0.5)

    def test_default_theta_star(self):
        theta = default_theta_star(20, sparsity=4, magnitude=1.5)
        assert np.count_nonzero(theta) == 4
        np.testing.assert_allclose(theta[:4], 1.5)

    # p = 0 read "sparsity must lie in [1, 0], got 10", p = 2.5 "[1, 2.5]",
    # and a float sparsity failed in numpy's slicing
    @pytest.mark.parametrize("args, error, match", [
        ((0,), ValueError, "^p must be >= 1, got 0$"),
        ((5, 0), ValueError, "^sparsity must be >= 1, got 0$"),
        ((2.5,), TypeError, "cannot be interpreted as an integer"),
        ((5, 2.0), TypeError, "cannot be interpreted as an integer")])
    def test_default_theta_star_rejects_a_bad_size(self, args, error, match):
        with pytest.raises(error, match=match):
            default_theta_star(*args)

    def test_sigma2_from_snr(self):
        cfg = ExperimentConfig(n=10, p=20, seed=1, snr=2.0, sparsity=5)
        assert cfg.sigma2 == pytest.approx(5.0 / 2.0)
        assert cfg.snr == 2.0

    def test_empirical_snr_matches(self):
        cfg = ExperimentConfig(n=10, p=4, seed=60, snr=2.5, sparsity=3,
                               magnitude=0.8)
        X = cfg.build_model().draw_features(substream(cfg.seed), 100_000)
        sample = (X @ cfg.theta_star) ** 2 / cfg.sigma2
        se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
        assert abs(float(np.mean(sample)) - cfg.snr) <= 3 * se

    def test_explicit_sigma2(self):
        cfg = ExperimentConfig(n=10, p=20, seed=1, sigma2=3.0, sparsity=5)
        assert cfg.sigma2 == 3.0
        assert cfg.snr == pytest.approx(5.0 / 3.0)

    def test_sparsity_defaults_as_in_document(self):
        cfg = ExperimentConfig(n=10, p=5, seed=1, snr=1.0)
        doc = parse_config("n = 10\np = 5\nseed = 1\nsnr = 1.0\n")
        assert cfg.sparsity == doc.sparsity == 5
        np.testing.assert_array_equal(cfg.theta_star, doc.theta_star)
        assert (cfg.sigma2, cfg.snr) == (doc.sigma2, doc.snr)

    def test_rejects_zero_magnitude(self):
        with pytest.raises(ValueError, match="magnitude"):
            ExperimentConfig(n=10, p=5, seed=1, snr=1.0, magnitude=0.0)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("n", 20.0), ("p", 10.0), ("num_trials", 3.0),
        ("num_trials", 2.5), ("sparsity", 2.0)])
    def test_rejects_a_float_integer_field(self, name, value):
        # seed=1.5 would run seed 1's trials; the others would fail later
        kwargs = dict(n=20, p=10, seed=1, snr=1.0, num_trials=3, sparsity=2)
        with pytest.raises(TypeError, match="integer"):
            ExperimentConfig(**{**kwargs, name: value})


class TestDrawProblem:
    @pytest.mark.parametrize("kwargs,seed,trial", [
        pytest.param(INLINE, seed, trial, id=f"{seed}-{trial}")
        for seed, trial in [(0, 0), (7, 3), (11, 12), (2024, 99)]] + [
        # the risk-mc benchmark's config: risk_bound_rhs sees its generator
        # only through these problems, so its estimate is bit-equal too
        pytest.param(RISK_MC, seed, draw, id=f"risk-mc-{seed}-{draw}")
        for seed in (5, 17) for draw in (0, 1999)])
    def test_matches_the_inline_trial_draw(self, kwargs, seed, trial):
        # the draw run_trial made inline before draw_problem existed, as
        # perfbench/child.py still writes it out
        cfg = ExperimentConfig(seed=seed, **kwargs)
        model = cfg.build_model()
        rng = substream(cfg.seed, trial)
        X = model.draw_features(rng, cfg.n)
        Y = model.draw_response(rng, X)
        bc = cfg.bound_config()
        coeffs = min_coefficients(cfg.n, cfg.p, bc.order, bc.beta, bc.eps,
                                  model.sigma2)
        prob = cfg.draw_problem(substream(cfg.seed, trial))
        assert prob.X.tobytes() == X.tobytes()
        assert prob.Y.tobytes() == Y.tobytes()
        assert prob.coeffs == coeffs
        assert prob.sigma2 == model.sigma2


class TestResolvedConfig:
    def test_trials_construct_no_model(self, monkeypatch, tmp_path):
        # counted through a file, so that pool workers' constructions count
        log = tmp_path / "models"
        log.write_text("")
        real = GaussianLinearModel.__post_init__

        def counted(self):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real(self)

        monkeypatch.setattr(GaussianLinearModel, "__post_init__", counted)
        cfg = ExperimentConfig(**SMALL, seed=11, snr=5.0, num_trials=12)
        built = log.read_text()
        run_experiment(cfg)
        run_trial(cfg, 0)
        assert log.read_text() == built  # no trial constructed one
        assert len(built.split()) == 1  # the config's own

    def test_one_model_and_bound_config_per_config(self):
        cfg = ExperimentConfig(**SMALL, seed=11, snr=5.0, num_trials=12)
        assert cfg.build_model() is cfg.build_model()
        assert cfg.bound_config() is cfg.bound_config()
        assert run_trial(cfg, 0).certificate.config is cfg.bound_config()


class TestRunTrial:
    def test_low_snr_drives_solution_to_zero(self):
        cfg = ExperimentConfig(n=40, p=15, seed=3, snr=1e-4, sparsity=5,
                               eps=0.9, tau=0.2)
        model = cfg.build_model()
        rec = run_trial(cfg, 0)
        # with overwhelming noise the penalty dominates: theta_hat = 0 and
        # the divergence equals its closed form at the origin
        d_at_zero = bhattacharyya(model, np.zeros(cfg.p))
        assert rec.d_bhatta == pytest.approx(d_at_zero, rel=1e-12)

    def test_record_chain_and_dominance_fields(self):
        cfg = ExperimentConfig(seed=11, snr=1.5, num_trials=1, **SMALL)
        rec = run_trial(cfg, 0)
        assert rec.two_hellinger_sq <= rec.d_bhatta + 1e-12
        assert rec.dominated == (rec.regret_bound >= rec.d_bhatta)
        assert (rec.snr, rec.sigma2) == (cfg.snr, cfg.sigma2)

    def test_dominated_at_the_configured_order(self, monkeypatch):
        # the theorem bounds the divergence at order lam, which exceeds the
        # order-0.5 one at lam = 0.7: a bound placed between the two is not
        # dominating
        cfg = ExperimentConfig(seed=11, snr=10.0, num_trials=1, lam=0.7,
                               beta=0.3, **SMALL)
        model = cfg.build_model()
        order = DivergenceOrder(0.7)
        for i in range(4):
            rec = run_trial(cfg, i)
            d_lam = renyi_div(model, rec.report.theta_hat, order)
            assert d_lam > rec.d_bhatta
            assert rec.dominated == (rec.regret_bound >= d_lam)

        certify = sim.regret_certificate

        def between(prob, model, bc, theta_hat):
            cert = certify(prob, model, bc, theta_hat=theta_hat)
            d05 = bhattacharyya(model, theta_hat)
            d07 = renyi_div(model, theta_hat, order)
            return dataclasses.replace(cert, bound=(d05 + d07) / 2.0)

        monkeypatch.setattr(sim, "regret_certificate", between)
        rec = run_trial(cfg, 0)
        assert rec.d_bhatta < rec.regret_bound and not rec.dominated

    def test_record_carries_report_and_certificate(self):
        cfg = ExperimentConfig(seed=11, snr=10.0, num_trials=1, **SMALL)
        rec = run_trial(cfg, 0)
        assert rec.certificate.bound == rec.regret_bound
        assert rec.report.converged == rec.converged
        assert rec.report.iterations > 0

    def test_typical_flag_matches_a_fresh_membership_test(self):
        cfg = ExperimentConfig(n=40, p=20, seed=11, snr=5.0, eps=0.5,
                               tau=0.2, sparsity=5)
        model = cfg.build_model()
        draws = [model.draw_features(substream(cfg.seed, i), cfg.n)
                 for i in range(12)]
        flags = [is_typical(column_mean_squares(X), None, cfg.eps)
                 for X in draws]
        assert True in flags and False in flags
        assert [run_trial(cfg, i).typical for i in range(12)] == flags

    def test_report_and_certificate_outside_equality(self):
        cfg = ExperimentConfig(seed=11, snr=1.5, num_trials=1, **SMALL)
        a, b = run_trial(cfg, 0), run_trial(cfg, 0)
        assert a.report is not b.report
        assert a.certificate is not b.certificate
        assert a == b and hash(a) == hash(b)
        assert "report" not in repr(a) and "certificate" not in repr(a)


class TestRunExperiment:
    def test_snr_from_sigma2_identity_bit_identical(self):
        for p in (1, 7, 20, 1000):
            cfg = ExperimentConfig(n=50, p=p, seed=0, sigma2=3.0, eps=0.9,
                                   tau=0.2, sparsity=min(p, 5), magnitude=0.7)
            theta = cfg.theta_star
            want = float(theta @ (np.eye(p) @ theta)) / 3.0
            assert cfg.snr.hex() == want.hex()
            for snr in (0.5, 1.5, 10.0):
                by_snr = ExperimentConfig(n=50, p=p, seed=0, snr=snr, eps=0.9,
                                          tau=0.2, sparsity=min(p, 5),
                                          magnitude=0.7)
                want = float(theta @ (np.eye(p) @ theta)) / snr
                assert by_snr.sigma2.hex() == want.hex()

    def test_summary_counts(self):
        cfg = ExperimentConfig(seed=16, snr=1.0, num_trials=20, **SMALL)
        records, summary = run_experiment(cfg)
        assert summary.num_trials == 20
        assert summary.num_dominated == sum(r.dominated for r in records
                                            if r.converged)


class TestIdentityCovariance:
    def test_trial_path_allocates_no_p_by_p_array(self):
        tracemalloc.start()
        try:
            cfg = ExperimentConfig(n=20, p=1000, seed=3, snr=10.0, eps=0.9,
                                   tau=0.2)
            model = cfg.build_model()
            run_trial(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.cov is None
        assert peak < 8 * cfg.p * cfg.p / 4  # a quarter of one p x p array
