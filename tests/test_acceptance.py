"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either pinned arithmetic (recomputed from an
independent formula path inside the test) or a Monte-Carlo comparison at the
stated tolerance. Seeds are fixed, so the suite is deterministic.
"""

import math

import numpy as np

from mdlasso.divergences import renyi_mc
from mdlasso.lasso import LassoProblem, kkt_residual, soft_threshold, solve
from mdlasso.model import (DivergenceOrder, GaussianLinearModel,
                           hessian_bound_gap, renyi_div, renyi_grad,
                           renyi_hess, tilt_scale)
from mdlasso.penalty import (PenaltyCoefficients, column_mean_squares,
                             design_ratio, kraft_sum, min_coefficients)
from mdlasso.seeding import substream
from mdlasso.sim import ExperimentConfig, default_theta_star, run_experiment
from mdlasso.typical_set import (gamma_tail_check, is_typical,
                                 prob_lower_bounds)
from mdlasso.verify import fd_renyi, random_model


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_probability_floor_value():
    """Probability floor at (n=200, p=1000, eps=0.5, tau=0.03, beta=0.5)."""
    triple = prob_lower_bounds(200, 1000, 0.5)
    floor = triple.exact_product - math.exp(-0.03 * 200 * 0.5)
    ok = abs(floor - 0.81) <= 0.01
    report("1", ok, f"floor = {floor:.6f}, target 0.81 +- 0.01")
    assert ok


def test_criterion_2_design_ratio_curve():
    """Random/fixed design penalty ratio curve values and monotonicity."""
    near_zero = design_ratio(DivergenceOrder(1e-9))
    at_half = design_ratio(DivergenceOrder(0.5))
    at_nine = design_ratio(DivergenceOrder(0.9))
    grid = [design_ratio(DivergenceOrder(l))
            for l in np.linspace(0.001, 0.999, 100)]
    increasing = all(b > a for a, b in zip(grid, grid[1:]))
    ok = (abs(near_zero - 1.0) <= 1e-6
          and abs(at_half - math.sqrt(8.5 / 4.0)) <= 1e-12
          and abs(at_nine - math.sqrt(8.9 / 0.8)) <= 1e-12
          and increasing)
    report("2", ok, f"ratio(0+)={near_zero:.6f}, ratio(0.5)={at_half:.5f}, "
                    f"ratio(0.9)={at_nine:.5f}, increasing={increasing}")
    assert ok


def test_criterion_3_snr_sweep_dominance():
    """100 trials per SNR: full dominance, ratio window, SNR ordering."""
    summaries = {}
    for snr in (0.5, 1.5, 10.0):
        cfg = ExperimentConfig(n=200, p=1000, seed=20_260_811, snr=snr,
                               num_trials=100, lam=0.5, beta=0.5, eps=0.5,
                               tau=0.03, sparsity=10)
        _, summary = run_experiment(cfg)
        summaries[snr] = summary
    full_dominance = all(s.num_converged == 100 and s.num_dominated == 100
                         for s in summaries.values())
    ratio_high = summaries[10.0].mean_bound_ratio
    ratio_low = summaries[0.5].mean_bound_ratio
    in_window = 3.0 <= ratio_high <= 10.0
    ordered = ratio_low < ratio_high
    ok = full_dominance and in_window and ordered
    report("3", ok, f"dominated 100/100 at each SNR: {full_dominance}; "
                    f"ratio(SNR=10)={ratio_high:.2f} in [3,10]: {in_window}; "
                    f"ratio(SNR=0.5)={ratio_low:.2f} < ratio(SNR=10): {ordered}")
    assert ok


def test_criterion_4_closed_form_vs_monte_carlo():
    """100 random instances, three orders each, 1e5 samples, 3 SE agreement."""
    rng = substream(404)
    orders = [DivergenceOrder(l) for l in (0.25, 0.5, 0.9)]
    passed = 0
    for i in range(100):
        m = random_model(rng)
        # displacement energy capped at sigma2: below 4 sigma2/3 the
        # sampled ratio power has a finite second moment at every tested
        # order, so the delta-method standard error is calibrated
        direction = rng.standard_normal(m.dim)
        direction /= math.sqrt(direction @ (m.cov @ direction))
        theta = m.theta_star + direction * math.sqrt(
            float(rng.uniform(0.05, 1.0)) * m.sigma2)
        agree = True
        for j, order in enumerate(orders):
            est = renyi_mc(m, theta, order, 100_000, seed=40_000 + 3 * i + j)
            if abs(est.value - renyi_div(m, theta, order)) > 3 * est.std_error:
                agree = False
        passed += agree
    ok = passed >= 99
    report("4", ok, f"{passed}/100 instances matched within 3 SE (need >= 99)")
    assert ok


def test_criterion_5_calculus_certificates():
    """Gradient/Hessian vs finite differences; Hessian domination gap."""
    rng = substream(405)
    grad_ok = 0
    hess_ok = 0
    for _ in range(100):
        m = random_model(rng)
        theta = m.theta_star + rng.standard_normal(m.dim)
        order = DivergenceOrder(float(rng.uniform(0.05, 0.95)))
        fd_g, fd_h = fd_renyi(m, theta, order)
        g_err = np.linalg.norm(renyi_grad(m, theta, order) - fd_g) \
            / max(np.linalg.norm(fd_g), 1e-12)
        h_err = np.linalg.norm(renyi_hess(m, theta, order) - fd_h) \
            / max(np.linalg.norm(fd_h), 1e-12)
        grad_ok += g_err <= 1e-5
        hess_ok += h_err <= 1e-4

    gap_ok = 0
    for _ in range(1000):
        m = random_model(rng, p_max=6)
        theta = m.theta_star + rng.standard_normal(m.dim) * rng.uniform(0.1, 30)
        order = DivergenceOrder(float(rng.uniform(0.02, 0.98)))
        gap_ok += hessian_bound_gap(m, theta, order) >= -1e-8

    # exact boundary: scalar model, displacement energy 3c
    m1 = GaussianLinearModel(np.zeros(1), 1.0, np.eye(1))
    order = DivergenceOrder(0.5)
    theta_edge = np.array([math.sqrt(3.0 * tilt_scale(m1, order))])
    edge_gap = hessian_bound_gap(m1, theta_edge, order)
    edge_ok = abs(edge_gap) <= 1e-10

    ok = grad_ok == 100 and hess_ok == 100 and gap_ok == 1000 and edge_ok
    report("5", ok, f"gradient {grad_ok}/100, hessian {hess_ok}/100, "
                    f"gap {gap_ok}/1000, boundary gap {edge_gap:.2e}")
    assert ok


def test_criterion_6_typical_set_bounds():
    """Membership frequency vs exact product; Gamma tail; eps^2/7 grid."""
    n, p, eps = 50, 5, 0.3
    rng = substream(406)
    draws = 10_000
    hits = sum(is_typical(column_mean_squares(rng.standard_normal((n, p))),
                          np.eye(p), eps)
               for _ in range(draws))
    freq = hits / draws
    bound = prob_lower_bounds(n, p, eps).exact_product
    se = math.sqrt(freq * (1 - freq) / draws)
    membership_ok = freq >= bound - 3 * se

    emp, tail_bound = gamma_tail_check(n, eps, draws, seed=4060)
    tail_se = math.sqrt(max(emp * (1 - emp), 1e-12) / draws)
    tail_ok = emp <= tail_bound + 3 * tail_se

    grid = np.arange(1e-3, 1.0 + 1e-12, 1e-3)
    simplification_ok = bool(np.all(0.5 * (grid - np.log1p(grid))
                                    >= grid ** 2 / 7.0))

    ok = membership_ok and tail_ok and simplification_ok
    report("6", ok, f"membership {freq:.4f} >= {bound:.2e}-3SE: {membership_ok}; "
                    f"gamma tail {emp:.4f} <= {tail_bound:.4f}+3SE: {tail_ok}; "
                    f"eps^2/7 grid: {simplification_ok}")
    assert ok


def test_criterion_7_kraft_certificates():
    """Kraft sums on the full p grid and the exact p=1 value."""
    grid_ok = all(kraft_sum(p, 0.5) <= 1.0 for p in range(1, 10_001))
    exact_ok = abs(kraft_sum(1, 0.5) - 5.0 / 6.0) < 1e-15
    ok = grid_ok and exact_ok
    report("7", ok, f"sum <= 1 on p in 1..10000: {grid_ok}; "
                    f"p=1 value 5/6 exact: {exact_ok}")
    assert ok


def test_criterion_7_truncated_enumeration_tolerance():
    """Truncated enumeration at p=2, ||z||_1 <= 6 vs the closed form.

    Every term is positive, so closed - truncated is exactly the missing
    ||z||_1 >= 7 mass. With 4k points at ||z||_1 = k and x = 1/8 that tail
    is R_7 = sum_{k>=7} 2k x^k = 2 x^7 (7 - 6x) / (1 - x)^2 = 7.785e-6,
    computed here from the geometric series, not from kraft_sum's product
    form. The check is the identity closed - truncated = R_7 to 1e-14.
    A bare |closed - truncated| <= 1e-6 could not hold: the tail alone
    exceeds it, so only a kraft_sum off by >= 6.8e-6 would satisfy it.
    """
    total = 0.0
    for z1 in range(-6, 7):
        for z2 in range(-6, 7):
            if abs(z1) + abs(z2) <= 6:
                total += 8.0 ** -(abs(z1) + abs(z2))
    truncated = 0.5 * total
    closed = kraft_sum(2, 0.5)
    x = 1.0 / 8.0
    tail = 2.0 * x ** 7 * (7.0 - 6.0 * x) / (1.0 - x) ** 2
    gap = closed - truncated
    ok = truncated < closed and abs(gap - tail) <= 1e-14
    report("7 (truncated enumeration)", ok,
           f"closed - truncated = {gap:.12e} vs tail R_7 = {tail:.12e}, "
           f"difference {gap - tail:.1e} (bound 1e-14)")
    assert ok


def test_criterion_8_solver_correctness():
    """Scalar and orthonormal closed forms, descent, paper-scale KKT."""
    # scalar: (1/n) X^T X = 1, X^T Y / n = 0.9, mu1 = 0.3 -> 0.6
    prob = LassoProblem(np.ones((4, 1)), 0.9 * np.ones(4), 1.0,
                        PenaltyCoefficients(0.3, 0.01))
    rep = solve(prob, tol=1e-12)
    scalar_ok = abs(rep.theta_hat[0] - 0.6) <= 1e-8

    rng = substream(408)
    n, p = 60, 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * math.sqrt(n)
    theta_star = default_theta_star(p, sparsity=4)
    Y = X @ theta_star + rng.standard_normal(n)
    oprob = LassoProblem(X, Y, 1.0, PenaltyCoefficients(0.4, 0.01))
    orep = solve(oprob, tol=1e-10)
    closed = soft_threshold(X.T @ Y / n, 0.4)
    ortho_ok = np.max(np.abs(orep.theta_hat - closed)) <= 1e-6

    descent_ok = bool(np.all(np.diff(orep.objective_trace) <= 1e-12))

    theta_big = default_theta_star(1000)
    sigma2 = float(theta_big @ theta_big) / 1.5
    model = GaussianLinearModel(theta_big, sigma2)
    bx = model.draw_features(rng, 200)
    by = model.draw_response(rng, bx)
    coeffs = min_coefficients(200, 1000, DivergenceOrder(0.5), 0.5, 0.5, sigma2)
    bprob = LassoProblem(bx, by, sigma2, coeffs)
    brep = solve(bprob)
    descent_ok = descent_ok and bool(np.all(np.diff(brep.objective_trace) <= 1e-12))
    paper_ok = (brep.converged and brep.iterations <= 5000
                and kkt_residual(bprob, brep.theta_hat) <= 1e-6)

    ok = scalar_ok and ortho_ok and descent_ok and paper_ok
    report("8", ok, f"scalar {rep.theta_hat[0]:.10f}: {scalar_ok}; "
                    f"orthonormal linf: {ortho_ok}; descent: {descent_ok}; "
                    f"paper-scale kkt={brep.kkt_residual:.2e} in "
                    f"{brep.iterations} iters: {paper_ok}")
    assert ok


def test_criterion_9_violation_frequency():
    """(n=50, p=20, 1000 trials): violations <= 1 - floor + 3 SE."""
    n, p, trials = 50, 20, 1000
    beta, eps, tau = 0.5, 0.9, 0.2
    records, _ = run_experiment(ExperimentConfig(
        n=n, p=p, seed=409, snr=1.0, num_trials=trials, eps=eps, tau=tau,
        sparsity=5))
    freq = sum(not r.dominated for r in records) / trials
    floor = prob_lower_bounds(n, p, eps).exact_product \
        - math.exp(-tau * n * beta)
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
    limit = (1 - floor) + 3 * se
    ok = freq <= limit
    report("9", ok, f"violation frequency {freq:.4f} <= {limit:.4f} "
                    f"(floor {floor:.4f})")
    assert ok
