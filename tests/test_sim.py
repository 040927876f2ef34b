"""Experiment protocol tests: SNR control, determinism, per-trial invariants."""

import dataclasses
import math
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mdlasso import pool, sim
from mdlasso.cli import CONFIG_KEYS, emit_csv, main, parse_config
from mdlasso.divergences import bhattacharyya, renyi_mc
from mdlasso.errors import NumericalFailureError
from mdlasso.model import (DivergenceOrder, GaussianLinearModel,
                           hessian_bound_gap, renyi_div, renyi_hess, tilted)
from mdlasso.penalty import column_mean_squares, min_coefficients
from mdlasso.sim import (ExperimentConfig, default_theta_star, run_experiment,
                         run_trial)
from mdlasso.seeding import substream
from mdlasso.typical_set import is_typical

SMALL = dict(n=50, p=20, eps=0.9, tau=0.2, sparsity=5)
# trials 2, 7, 8, 10 and 11 return theta = 0 after 0 iterations, the rest iterate
MIXED_DOC = ("n = 50\np = 20\neps = 0.9\ntau = 0.2\nsparsity = 5\n"
             "seed = 11\nsnr = 5\nnum_trials = 12\n")
can_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the trial pool needs fork and sched_getaffinity")


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

    def test_init_fields_are_document_keys(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.init]
        keys = ["lam" if key == "lambda" else key for key in CONFIG_KEYS]
        assert sorted(fields) == sorted(keys)


class TestDrawProblem:
    @pytest.mark.parametrize("seed,trial", [(0, 0), (7, 3), (11, 12),
                                            (2024, 99)])
    def test_matches_the_inline_trial_draw(self, seed, trial):
        # the draw run_trial made inline before draw_problem existed
        cfg = ExperimentConfig(n=30, p=12, seed=seed, snr=1.5, lam=0.4,
                               beta=0.55, eps=0.3, sparsity=4)
        model = cfg.build_model()
        rng = substream(cfg.seed, trial)
        X = model.draw_features(rng, cfg.n)
        Y = model.draw_response(rng, X)
        bc = cfg.bound_config()
        coeffs = min_coefficients(cfg.n, cfg.p, bc.order, bc.beta, bc.eps,
                                  model.sigma2)
        prob = cfg.draw_problem(model, substream(cfg.seed, trial))
        assert prob.X.tobytes() == X.tobytes()
        assert prob.Y.tobytes() == Y.tobytes()
        assert prob.coeffs == coeffs
        assert prob.sigma2 == model.sigma2


class TestRunTrial:
    def test_low_snr_drives_solution_to_zero(self):
        cfg = ExperimentConfig(n=40, p=15, seed=3, snr=1e-4, sparsity=5,
                               eps=0.9, tau=0.2)
        model = cfg.build_model()
        rec = run_trial(cfg, 0, model=model)
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
            rec = run_trial(cfg, i, model=model)
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
        rec = run_trial(cfg, 0, model=model)
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
        assert [run_trial(cfg, i, model=model).typical
                for i in range(12)] == flags

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


def cpus(monkeypatch, count):
    monkeypatch.setattr(pool, "usable_cpus", lambda: count)


def trial_pids(monkeypatch, tmp_path):
    """Make ``run_trial`` log the id of the process that runs it; return
    a reader of the ids logged so far."""
    log = tmp_path / "pids"
    log.write_text("")
    real = sim.run_trial

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "run_trial", logged)
    return lambda: set(map(int, log.read_text().split()))


@can_fork
class TestTrialPool:
    def test_one_cpu_runs_in_process(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 1)
        pids = trial_pids(monkeypatch, tmp_path)
        records, _ = run_experiment(parse_config(MIXED_DOC))
        assert len(records) == 12
        assert pids() == {os.getpid()}

    def test_pool_matches_serial(self, monkeypatch, tmp_path):
        cfg = parse_config(MIXED_DOC)
        cpus(monkeypatch, 1)
        serial, serial_summary = run_experiment(cfg)
        cpus(monkeypatch, 3)
        pids = trial_pids(monkeypatch, tmp_path)
        pooled, pooled_summary = run_experiment(cfg)
        assert os.getpid() not in pids() and 1 <= len(pids()) <= 3
        iterations = [r.report.iterations for r in pooled]
        assert 0 in iterations and max(iterations) > 0
        assert pooled == serial
        assert [r.trial_index for r in pooled] == list(range(12))
        assert repr(pooled_summary) == repr(serial_summary)
        for a, b in zip(pooled, serial):
            assert a.report.theta_hat.tobytes() == b.report.theta_hat.tobytes()
            assert a.certificate.bound == b.certificate.bound
        emit_csv(serial, tmp_path / "serial.csv")
        emit_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "serial.csv").read_bytes() \
            == (tmp_path / "pooled.csv").read_bytes()

    def test_worker_error_keeps_its_type(self, monkeypatch, tmp_path, capsys):
        cpus(monkeypatch, 2)
        parent = os.getpid()
        real = sim.run_trial

        def failing(cfg, trial_index, model=None):
            if trial_index == 9 and os.getpid() != parent:
                raise NumericalFailureError("trial 9 failed in a worker")
            return real(cfg, trial_index, model=model)

        monkeypatch.setattr(sim, "run_trial", failing)  # inherited via fork
        with pytest.raises(NumericalFailureError, match="trial 9 failed"):
            run_experiment(parse_config(MIXED_DOC))
        assert multiprocessing.active_children() == []
        doc = tmp_path / "run.cfg"
        doc.write_text(MIXED_DOC)
        capsys.readouterr()
        assert main(["simulate", "--config", str(doc),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: trial 9 failed in a worker"]
        assert not (tmp_path / "t.csv").exists()

    def test_worker_error_stops_further_claims(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 2)
        log = tmp_path / "indices"
        log.write_text("")

        def failing(i):
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            if i == 0:
                raise NumericalFailureError("index 0 failed")
            time.sleep(0.01)
            return i

        with pytest.raises(NumericalFailureError, match="index 0 failed"):
            pool.map_indices(failing, 100)
        assert len(log.read_text().split()) < 50

    def test_serial_inside_a_pool_worker(self, monkeypatch):
        cpus(monkeypatch, 2)
        cfg = parse_config(MIXED_DOC)
        with multiprocessing.get_context("fork").Pool(1) as outer:
            nested = outer.apply(run_experiment, (cfg,))[0]
        assert nested == run_experiment(cfg)[0]

    def test_workers_hold_blas_to_one_thread(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 2)
        log = tmp_path / "blas"
        log.write_text("")

        def setter(count):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {count}\n")

        monkeypatch.setattr(pool, "_blas_thread_setter", lambda: setter)
        pids = trial_pids(monkeypatch, tmp_path)
        run_experiment(parse_config(MIXED_DOC))
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(pid) for pid, _ in calls) == sorted(pids())
        assert len(calls) == 2 and {count for _, count in calls} == {"1"}

    def test_no_blas_setter_runs_in_process(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(pool, "_blas_thread_setter", lambda: None)
        pids = trial_pids(monkeypatch, tmp_path)
        run_experiment(parse_config(MIXED_DOC))
        assert pids() == {os.getpid()}

    def test_other_python_thread_runs_in_process(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 2)
        pids = trial_pids(monkeypatch, tmp_path)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run_experiment(parse_config(MIXED_DOC))
        finally:
            release.set()
            other.join()
        assert pids() == {os.getpid()}

    def test_pool_after_renyi_mc(self, monkeypatch, tmp_path):
        # renyi_mc starts no thread, so the trial pool may still fork
        cpus(monkeypatch, 2)
        before = threading.active_count()
        model = GaussianLinearModel(np.zeros(3), 1.0, None)
        renyi_mc(model, np.ones(3), DivergenceOrder(0.5), 40_000, seed=1)
        assert threading.active_count() == before
        pids = trial_pids(monkeypatch, tmp_path)
        run_experiment(parse_config(MIXED_DOC))
        assert os.getpid() not in pids()

    def test_finds_the_openblas_thread_setter(self):
        try:
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        except (AttributeError, KeyError):
            pytest.skip("numpy does not report its BLAS")
        if "openblas" not in blas:
            pytest.skip(f"numpy uses {blas}, not OpenBLAS")
        assert pool._blas_thread_setter() is not None

    def test_each_worker_pinned_to_its_own_cpu(self, monkeypatch):
        cpus(monkeypatch, 2)
        usable = os.sched_getaffinity(0)

        def placement(i):
            time.sleep(0.02)  # long enough for both workers to claim some
            return os.getpid(), frozenset(os.sched_getaffinity(0))

        masks = dict(pool.map_indices(placement, 8))
        assert os.getpid() not in masks
        assert all(len(mask) == 1 and mask <= usable
                   for mask in masks.values())
        if len(usable) >= 2:
            assert len(masks) == 2
            assert len(set(masks.values())) == 2

    def test_unpinned_worker_when_pinning_fails(self, monkeypatch, tmp_path):
        cfg = parse_config(MIXED_DOC)
        cpus(monkeypatch, 1)
        serial, _ = run_experiment(cfg)

        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)  # inherited
        cpus(monkeypatch, 2)
        pids = trial_pids(monkeypatch, tmp_path)
        pooled, _ = run_experiment(cfg)
        assert os.getpid() not in pids()
        assert pooled == serial

    def test_uneven_count_in_order_each_index_once(self, monkeypatch,
                                                   tmp_path):
        # more workers than CPUs, racing on the shared counter; a claim
        # that two workers made, or that none did, shows in the log
        cpus(monkeypatch, 2 * len(os.sched_getaffinity(0)) + 1)
        log = tmp_path / "indices"
        log.write_text("")

        def logged(i):
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            return i * i

        count = 203
        assert count % pool._worker_count(count) != 0
        assert pool.map_indices(logged, count) == [i * i for i in range(count)]
        assert sorted(map(int, log.read_text().split())) == list(range(count))
        doc = MIXED_DOC.replace("num_trials = 12", "num_trials = 13")
        pooled, _ = run_experiment(parse_config(doc))
        cpus(monkeypatch, 1)
        serial, _ = run_experiment(parse_config(doc))
        assert [r.trial_index for r in pooled] == list(range(13))
        assert pooled == serial

    def test_no_worker_outlives_the_run(self, monkeypatch):
        cpus(monkeypatch, 2)
        run_experiment(parse_config(MIXED_DOC))
        assert multiprocessing.active_children() == []


class TestIdentityCovariance:
    def test_trial_path_allocates_no_p_by_p_array(self):
        cfg = ExperimentConfig(n=20, p=1000, seed=3, snr=10.0, eps=0.9,
                               tau=0.2)
        tracemalloc.start()
        try:
            model = cfg.build_model()
            run_trial(cfg, 0, model=model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.cov is None
        assert peak < 8 * cfg.p * cfg.p / 4  # a quarter of one p x p array

    def test_matrix_results_match_an_explicit_identity(self):
        theta_star = np.array([1.0, -2.0, 0.5])
        implicit = GaussianLinearModel(theta_star, 0.7)
        explicit = GaussianLinearModel(theta_star, 0.7, np.eye(3))
        theta = np.array([0.3, 0.0, -1.0])
        order = DivergenceOrder(0.4)
        assert np.array_equal(tilted(implicit, theta, order).covariance,
                              tilted(explicit, theta, order).covariance)
        assert np.array_equal(renyi_hess(implicit, theta, order),
                              renyi_hess(explicit, theta, order))
        assert hessian_bound_gap(implicit, theta, order) \
            == hessian_bound_gap(explicit, theta, order)
