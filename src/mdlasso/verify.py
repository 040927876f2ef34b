"""Self-contained invariant suite behind ``mdlasso verify``.

Each check exercises one documented invariant of a module at a scale chosen
to finish in seconds, and is the one home of that randomized property sweep:
the test suite runs every entry of ``CHECKS``. A check passes by returning
normally; any exception marks it failed. One line is printed per check.

``random_spd``, ``random_model`` and ``fd_renyi`` are the shared generators
and finite-difference oracle; the tests import them from here.
``log_gamma_tails`` is the typical-set checks' exact reference. The lemma
helpers that only these checks call are imported from their modules.
"""

import math

import numpy as np

from . import bounds, divergences, lasso, penalty, sim, typical_set
from .model import (DivergenceOrder, GaussianLinearModel, hessian_bound_gap,
                    min_eigenvalue, renyi_div, renyi_grad, renyi_hess,
                    sqrt_sym, tilted)
from .seeding import substream


def random_spd(rng, p):
    """A A^T + 0.5 I for a standard-normal p x p matrix A."""
    A = rng.standard_normal((p, p))
    return A @ A.T + 0.5 * np.eye(p)


def random_model(rng, p_max=5):
    """Model with p in [1, p_max], a random SPD covariance and sigma2 in [0.5, 2]."""
    p = int(rng.integers(1, p_max + 1))
    cov = random_spd(rng, p)
    theta_star = rng.standard_normal(p)
    sigma2 = float(rng.uniform(0.5, 2.0))
    return GaussianLinearModel(theta_star, sigma2, cov)


def fd_renyi(model, theta, order):
    """Central differences of ``renyi_div`` and ``renyi_grad`` at theta.

    Returns the finite-difference gradient and the symmetrized
    finite-difference Hessian, both from steps 1e-5 * max(1, |theta_j|).
    """
    fd_g = np.zeros(theta.size)
    fd_h = np.zeros((theta.size, theta.size))
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd_g[j] = (renyi_div(model, up, order) - renyi_div(model, dn, order)) / (2 * h)
        fd_h[:, j] = (renyi_grad(model, up, order)
                      - renyi_grad(model, dn, order)) / (2 * h)
    return fd_g, (fd_h + fd_h.T) / 2


def _log_sum_exp(logs):
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def log_gamma_tails(n, eps):
    """Exact log P(m >= 1 + eps) and log P(m <= 1 - eps) for the mean square
    m of n i.i.d. N(0, 1) entries, n even, eps in (0, 1).

    With k = n/2, n m is chi-square with n degrees of freedom, so the upper
    tail is P(Poisson(k (1 + eps)) <= k - 1) and the lower tail
    P(Poisson(k (1 - eps)) >= k), each summed from its own terms, never as
    1 minus the other. The lower tail's terms fall from j = k on by a ratio
    below 1 - eps; the sum stops at a term e^{-50} of the first.
    """
    if n < 2 or n % 2 or not 0.0 < eps < 1.0:
        raise ValueError(f"need even n >= 2 and eps in (0, 1), got {n}, {eps}")
    k = n // 2

    def log_pmf(j, mu):
        return j * math.log(mu) - mu - math.lgamma(j + 1)

    lo = [log_pmf(k, k * (1.0 - eps))]
    while lo[-1] > lo[0] - 50.0:
        lo.append(log_pmf(k + len(lo), k * (1.0 - eps)))
    up = [log_pmf(j, k * (1.0 + eps)) for j in range(k)]
    return _log_sum_exp(up), _log_sum_exp(lo)


def check_model_sqrt_roundtrip():
    rng = substream(101)
    for _ in range(100):
        S = random_spd(rng, int(rng.integers(1, 9)))
        R = sqrt_sym(S)
        err = np.linalg.norm(R @ R - S) / np.linalg.norm(S)
        assert err <= 1e-10, f"reconstruction error {err:.3e}"
        assert np.array_equal(R, R.T)
        assert min_eigenvalue(R) > 0.0


def check_model_rayleigh():
    rng = substream(103)
    S = random_spd(rng, 6) - 3.0 * np.eye(6)
    lo = min_eigenvalue(S)
    for _ in range(20):
        v = rng.standard_normal(6)
        assert lo <= (v @ S @ v) / (v @ v) + 1e-9


def check_model_monotone_in_order():
    rng = substream(104)
    grid = np.arange(0.05, 0.96, 0.05)
    for _ in range(50):
        m = random_model(rng)
        for scale in (1.0, 0.1):
            theta = m.theta_star + rng.standard_normal(m.dim) * scale
            vals = [renyi_div(m, theta, DivergenceOrder(l)) for l in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert min(vals) > 0.0  # theta is off the truth


def check_model_gradient_fd():
    rng = substream(105)
    for _ in range(100):
        m = random_model(rng)
        theta = m.theta_star + rng.standard_normal(m.dim)
        order = DivergenceOrder(float(rng.uniform(0.05, 0.95)))
        g = renyi_grad(m, theta, order)
        fd, _ = fd_renyi(m, theta, order)
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err <= 1e-5, f"gradient mismatch {err:.3e}"


def check_model_hessian_fd():
    rng = substream(106)
    for _ in range(100):
        m = random_model(rng)
        theta = m.theta_star + rng.standard_normal(m.dim)
        order = DivergenceOrder(float(rng.uniform(0.05, 0.95)))
        H = renyi_hess(m, theta, order)
        _, fd = fd_renyi(m, theta, order)
        err = np.linalg.norm(H - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err <= 1e-4, f"hessian mismatch {err:.3e}"


def check_model_hessian_domination():
    rng = substream(107)
    for _ in range(1000):
        m = random_model(rng, p_max=6)
        theta = m.theta_star + rng.standard_normal(m.dim) * rng.uniform(0.1, 30)
        order = DivergenceOrder(float(rng.uniform(0.02, 0.98)))
        gap = hessian_bound_gap(m, theta, order)
        assert gap >= -1e-8, f"gap {gap:.3e}"


def check_model_tilted_consistency():
    rng = substream(108)
    for _ in range(50):
        m = random_model(rng)
        theta = m.theta_star + rng.standard_normal(m.dim)
        order = DivergenceOrder(float(rng.uniform(0.05, 0.95)))
        tq = tilted(m, theta, order)
        tb = theta - m.theta_star
        want = np.linalg.inv(np.linalg.inv(m.cov) + np.outer(tb, tb) / tq.scale)
        err = np.linalg.norm(tq.covariance - want) / np.linalg.norm(want)
        assert err <= 1e-9, f"tilted covariance mismatch {err:.3e}"


def check_model_kl_limit():
    rng = substream(109)
    for _ in range(20):
        m = random_model(rng)
        direction = rng.standard_normal(m.dim)
        direction /= math.sqrt(direction @ (m.cov @ direction))
        # displacement energy <= 0.1 sigma2 keeps all orders in the
        # near-quadratic regime of the log
        theta = m.theta_star + direction * math.sqrt(0.1 * m.sigma2 * rng.uniform(0.1, 1.0))
        kl = divergences.kl_closed(m, theta)
        for lam, rtol in ((0.9, 0.12), (0.99, 0.012), (0.999, 2e-3)):
            d = renyi_div(m, theta, DivergenceOrder(lam))
            assert abs(d - kl) <= rtol * kl, f"lam={lam}: {d} vs {kl}"


def check_model_draw_law():
    """``draw_features`` rows have covariance cov, and their fits x^T delta
    have variance delta^T cov delta, on random models with the identity or
    an SPD covariance and p up to 120, each to within 6 SE.

    The second fact is the one ``renyi_mc`` rests on when it draws the fit
    gap d ~ N(0, t) in place of the features. With the mean known to be 0,
    entry (i, j) of X^T X / n has variance (cov_ij^2 + cov_ii cov_jj) / n,
    and the mean of (X delta)^2 has variance 2 t^2 / n.
    """
    rng = substream(120)
    n = 4000
    for i in range(12):
        m = random_model(rng, p_max=120)
        if i % 2:
            m = GaussianLinearModel(m.theta_star, m.sigma2, None)
        cov = np.eye(m.dim) if m.cov is None else m.cov
        X = m.draw_features(substream(9000 + i), n)
        diag = np.diag(cov)
        se = np.sqrt((cov ** 2 + np.outer(diag, diag)) / n)
        z_cov = np.max(np.abs(X.T @ X / n - cov) / se)
        assert z_cov <= 6.0, f"p={m.dim}: sample covariance {z_cov:.2f} SE off"

        delta = rng.standard_normal(m.dim)
        t = float(delta @ cov @ delta)
        z_fit = abs(float(np.mean((X @ delta) ** 2)) - t) / (t * math.sqrt(2 / n))
        assert z_fit <= 6.0, f"p={m.dim}: fit variance {z_fit:.2f} SE off"


def check_divergences_mc_agreement():
    """Criterion 4: ``renyi_mc`` agrees with ``renyi_div`` within 3 SE.

    The 3-SE test needs the sampled ratio power to have a finite variance:
    at every order >= 1/2, and at order lam < 1/2 only for displacement
    energy t < sigma2 / (2 (1 - lam) (1 - 2 lam)), 4 sigma2 / 3 at 0.25.
    Every instance here respects that. The sweep draws 100 models with
    t <= sigma2 and runs orders 0.25, 0.5 and 0.9 on each at 1e5 samples;
    at least 99 instances must agree at every order. Thirteen more
    instances at orders 0.5 and 0.9 reach t of about 24 sigma2, and all of
    them must agree.
    """
    rng = substream(404)
    orders = [DivergenceOrder(lam) for lam in (0.25, 0.5, 0.9)]
    passed = 0
    for i in range(100):
        m = random_model(rng)
        direction = rng.standard_normal(m.dim)
        direction /= math.sqrt(direction @ (m.cov @ direction))
        theta = m.theta_star + direction * math.sqrt(
            float(rng.uniform(0.05, 1.0)) * m.sigma2)
        agree = True
        for j, order in enumerate(orders):
            est = divergences.renyi_mc(m, theta, order, 100_000,
                                       seed=40_000 + 3 * i + j)
            if abs(est.value - renyi_div(m, theta, order)) > 3 * est.std_error:
                agree = False
        passed += agree
    assert passed >= 99, f"{passed}/100 instances within 3 SE (need >= 99)"

    rng = substream(110)
    for i in range(20):
        m = random_model(rng)
        theta = m.theta_star + rng.standard_normal(m.dim) * 0.7
        if i % 3 == 0:
            continue
        order = DivergenceOrder(0.5 if i % 3 == 1 else 0.9)
        est = divergences.renyi_mc(m, theta, order, 100_000, seed=7000 + i)
        gap = abs(est.value - renyi_div(m, theta, order))
        assert gap <= 3 * est.std_error, \
            f"instance {i}, order {order.lam}: {gap:.3e} > 3 SE"


def check_divergences_alpha_properties():
    rng = substream(111)
    for _ in range(1000):
        m = random_model(rng)
        scale = 10 ** rng.uniform(-2, 4)
        theta = m.theta_star + rng.standard_normal(m.dim) * scale
        alpha = float(rng.uniform(-0.99, 0.99))
        a = divergences.AlphaOrder(alpha)
        val = divergences.alpha_div(m, theta, a)
        assert 0.0 <= val <= 4.0 / (1.0 - alpha ** 2) + 1e-12
        lam = DivergenceOrder((1.0 - alpha) / 2.0)
        slack = renyi_div(m, theta, lam) - (1.0 - alpha) / 2.0 * val
        assert slack >= -1e-12, f"order relation violated by {slack:.3e}"
        h2 = divergences.hellinger_sq(m, theta)
        d0 = divergences.alpha_div(m, theta, divergences.AlphaOrder(0.0))
        assert abs(d0 - 2.0 * h2) <= 1e-12 * max(1.0, 2.0 * h2), \
            f"alpha=0 gives {d0!r}, twice Hellinger {2.0 * h2!r}"
        bhatta = divergences.bhattacharyya(m, theta)
        assert h2 <= bhatta + 1e-12
        assert bhatta == renyi_div(m, theta, DivergenceOrder(0.5))


def check_penalty_kraft():
    """Criterion 7: ``kraft_sum`` <= 1 for every p in 1..10000, 5/6 at p = 1,
    and at p = 2 its closed form against the grid it sums.

    The enumeration adds exp(-beta * grid_codelength(z, 2, beta)) over
    ||z||_1 <= 6. Every term is positive, so the closed form minus that sum
    is exactly the missing ||z||_1 >= 7 mass. With 4k labels at ||z||_1 = k,
    each weighing x^k / 2 for x = 1/8, that tail is
    R_7 = sum_{k>=7} 2k x^k = 2 x^7 (7 - 6x) / (1 - x)^2 = 7.785e-6, summed
    from the geometric series rather than from ``kraft_sum``'s product form.
    """
    for p in range(1, 10_001):
        assert penalty.kraft_sum(p) <= 1.0, f"p={p}: {penalty.kraft_sum(p)}"
    assert abs(penalty.kraft_sum(1) - 5.0 / 6.0) < 1e-15
    x = 1.0 / 8.0
    tail = 2.0 * x ** 7 * (7.0 - 6.0 * x) / (1.0 - x) ** 2
    labels = [np.array([z1, z2]) for z1 in range(-6, 7) for z2 in range(-6, 7)
              if abs(z1) + abs(z2) <= 6]
    for beta in (0.25, 0.5, 1.0):
        truncated = sum(math.exp(-beta * penalty.grid_codelength(z, 2, beta))
                        for z in labels)
        gap = penalty.kraft_sum(2) - truncated
        assert abs(gap - tail) <= 1e-14, \
            f"beta={beta}: closed - truncated {gap:.12e}, R_7 {tail:.12e}"


def check_penalty_rounding_moments():
    draws = 100_000
    w = np.array([1.0, 2.0, 0.5])
    theta = np.array([0.3, -1.7, 2.2])
    # components are independent: one call rounds `draws` copies at once
    spec = penalty.QuantizerSpec(delta=0.8, w_star=np.tile(w, draws))
    t = penalty.randomize_quantize(np.tile(theta, draws), spec,
                                   seed=13_000).reshape(draws, 3)
    se = spec.delta / w / math.sqrt(draws)  # step bounds the per-draw spread
    assert np.all(np.abs(t.mean(axis=0) - theta) <= 4 * se)
    assert np.all(np.abs(np.abs(t).mean(axis=0) - np.abs(theta)) <= 4 * se)
    var_limit = (spec.delta / w) * np.abs(theta)
    se_sq = (spec.delta / w) ** 2 / math.sqrt(draws)
    assert np.all(((t - theta) ** 2).mean(axis=0) <= var_limit + 4 * se_sq)


def check_penalty_ratio_consistency():
    for lam in (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9):
        order = DivergenceOrder(lam)
        got = penalty.min_coefficients(
            200, 1000, order, beta=1.0 - lam, eps=1e-15, sigma2=1.3).mu1
        ratio = got / penalty.fixed_design_mu1(200, 1000, 1.3)
        assert abs(ratio - penalty.design_ratio(order)) <= 1e-9
    grid = [penalty.design_ratio(DivergenceOrder(l))
            for l in np.linspace(0.001, 0.999, 100)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[0] >= 1.0


def check_typical_set_simplification():
    for eps in np.arange(1e-3, 1.0 + 1e-9, 1e-3):
        assert 0.5 * (eps - math.log1p(eps)) >= eps ** 2 / 7.0


def check_typical_set_chain():
    for n in (10, 100, 1000):
        for p in (1, 10, 1000):
            for eps in np.arange(0.1, 0.95, 0.1):
                t = typical_set.prob_lower_bounds(n, p, float(eps))
                assert 0.0 <= t.exact_product <= 1.0
                assert t.exact_product >= t.linearized - 1e-12
                assert t.linearized >= t.simplified - 1e-12


def check_typical_set_membership_freq():
    """Frequency within 3 SE of the exact P = (1 - q_up - q_lo)^p."""
    n, p, eps = 50, 5, 0.3
    draws = 10_000
    rng = substream(112)
    hits = sum(typical_set.is_typical(
                   penalty.column_mean_squares(rng.standard_normal((n, p))),
                   np.eye(p), eps)
               for _ in range(draws))
    freq = hits / draws
    bound = typical_set.prob_lower_bounds(n, p, eps).exact_product
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / draws)
    assert freq >= bound - 3 * se, f"{freq} < {bound}"
    log_up, log_lo = log_gamma_tails(n, eps)
    exact = (1.0 - math.exp(log_up) - math.exp(log_lo)) ** p
    assert abs(freq - exact) <= 3 * se, f"{freq} vs exact {exact}"


def check_typical_set_gamma_tail():
    """q_up <= e^{-D}, q_lo <= e^{-D_lo} and D_lo >= D: 2 e^{-D} bounds
    both exact tails, with no sampling."""
    for n in (2, 10, 50, 200, 1000):
        for eps in (j / 100.0 for j in range(1, 100)):
            d_up = typical_set.sanov_exponent(n, eps)
            d_lo = (n / 2.0) * (-eps - math.log1p(-eps))
            log_up, log_lo = log_gamma_tails(n, eps)
            assert log_up <= -d_up, f"n={n}, eps={eps}: {log_up} > {-d_up}"
            assert log_lo <= -d_lo, f"n={n}, eps={eps}: {log_lo} > {-d_lo}"
            assert d_lo >= d_up, f"n={n}, eps={eps}: {d_lo} < {d_up}"


def check_typical_set_column_decomposition():
    rng = substream(114)
    for _ in range(50):
        X = rng.standard_normal((30, 4)) * rng.uniform(0.8, 1.2)
        cov = np.diag(rng.uniform(0.5, 2.0, size=4))
        eps = float(rng.uniform(0.05, 0.5))
        mean_sq = penalty.column_mean_squares(X)
        whole = typical_set.is_typical(mean_sq, cov, eps)
        per_col = all(
            typical_set.is_typical(mean_sq[j:j + 1], cov[j:j + 1, j:j + 1],
                                   eps)
            for j in range(4))
        assert whole == per_col


def _small_problem(rng, n=40, p=12, snr=2.0):
    cfg = sim.ExperimentConfig(n=n, p=p, seed=0, snr=snr, sparsity=4)
    return cfg.build_model(), cfg.draw_problem(rng)


def check_lasso_descent_and_kkt():
    rng = substream(115)
    probs = [_small_problem(rng)[1] for _ in range(20)]
    for _ in range(10):
        # p > n at a fixed small mu1: hundreds of iterations each
        X = rng.standard_normal((30, 40))
        theta_star = np.zeros(40)
        theta_star[:5] = rng.standard_normal(5)
        Y = X @ theta_star + rng.standard_normal(30)
        probs.append(lasso.LassoProblem(
            X, Y, 1.0, penalty.PenaltyCoefficients(0.05, 0.01)))
    for prob in probs:
        report = lasso.solve(prob)
        assert report.converged
        diffs = np.diff(report.objective_trace)
        assert np.all(diffs <= 1e-12), f"ascent step {diffs.max():.3e}"
        # the reported residual is the exact one, never the loop's bound,
        # also when the budget runs out mid-descent
        for got in (report, lasso.solve(prob, max_iter=5)):
            want = lasso.kkt_residual(prob, got.theta_hat)
            assert got.kkt_residual == want, \
                f"reported residual {got.kkt_residual!r}, exact {want!r}"
        assert report.kkt_residual <= 1e-6


def check_lasso_orthonormal_closed_form():
    rng = substream(116)
    n, p = 60, 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * math.sqrt(n)
    theta_star = sim.default_theta_star(p, sparsity=4)
    Y = X @ theta_star + rng.standard_normal(n)
    coeffs = penalty.PenaltyCoefficients(0.4, 0.01)
    prob = lasso.LassoProblem(X, Y, 1.0, coeffs)
    report = lasso.solve(prob, tol=1e-10)
    closed = lasso.soft_threshold(X.T @ Y / n, coeffs.mu1 * 1.0)
    assert np.max(np.abs(report.theta_hat - closed)) <= 1e-6
    assert np.all(np.diff(report.objective_trace) <= 1e-12)


def check_lasso_paper_scale():
    cfg = sim.ExperimentConfig(n=200, p=1000, seed=0, snr=1.5)
    prob = cfg.draw_problem(substream(117))
    report = lasso.solve(prob)
    assert report.converged and report.iterations <= 5000
    assert report.kkt_residual <= 1e-6
    assert np.all(np.diff(report.objective_trace) <= 1e-12)


def check_bounds_floor_identity():
    rng = substream(118)
    model, prob = _small_problem(rng, n=60, p=8, snr=1.0)
    cfg = bounds.BoundConfig(DivergenceOrder(0.5), 0.5, 0.5, 0.03)
    cert = bounds.regret_certificate(prob, model, cfg,
                                     lasso.solve(prob).theta_hat)
    floor = bounds.probability_floor(prob.n, prob.p, cfg.eps, cfg.tau,
                                     cfg.beta)
    triple = typical_set.prob_lower_bounds(prob.n, prob.p, cfg.eps)
    want = triple.exact_product - math.exp(-cfg.tau * prob.n * cfg.beta)
    assert abs(floor.floor - max(0.0, want)) <= 1e-12
    assert cert.bound == cert.main_term + cfg.tau


def check_bounds_main_term_is_minimum():
    rng = substream(119)
    model, prob = _small_problem(rng)
    report = lasso.solve(prob, tol=1e-9)
    main = bounds.regret_main_term(prob, model.theta_star, report.theta_hat)
    for radius in (0.3, 1.0):
        for _ in range(100):
            probe = report.theta_hat + rng.standard_normal(prob.p) * radius
            probe_val = bounds.regret_main_term(prob, model.theta_star, probe)
            assert probe_val >= main - 1e-9


def check_bounds_alpha_monotone_in_probability():
    a = divergences.AlphaOrder(0.2)
    grid = np.linspace(math.exp(-1.0) + 1e-3, 1.0, 100)
    vals = [bounds.alpha_bound_at_probability(0.7, 0.55, a, float(pt))
            for pt in grid]
    assert all(b <= a_ + 1e-12 for a_, b in zip(vals, vals[1:]))


def check_sim_determinism():
    cfg = sim.ExperimentConfig(n=30, p=10, seed=2024, snr=1.0, num_trials=4,
                               eps=0.9, tau=0.2, sparsity=3)
    first = [sim.run_trial(cfg, i) for i in range(4)]
    again = [sim.run_trial(cfg, i) for i in reversed(range(4))][::-1]
    assert first == again
    assert sim.run_experiment(cfg)[0] == first  # pooled on more than one CPU


def check_sim_hellinger_chain():
    cfg = sim.ExperimentConfig(n=40, p=15, seed=77, snr=10.0,
                               num_trials=50,
                               eps=0.9, tau=0.2, sparsity=5)
    records, summary = sim.run_experiment(cfg)
    assert summary.num_converged == 50
    # the chain must hold at solver output, not only at the theta = 0 exit
    assert sum(r.report.iterations > 0 for r in records) >= 25
    for r in records:
        assert r.two_hellinger_sq <= r.d_bhatta + 1e-12


def check_sim_dominance_floor():
    cfg = sim.ExperimentConfig(n=50, p=20, seed=31, snr=10.0,
                               num_trials=1000,
                               eps=0.9, tau=0.2)
    records, summary = sim.run_experiment(cfg)
    # every trial converges, so the fraction below is over all 1000 trials
    assert summary.num_converged == 1000
    # the bound must dominate at solver output, not only at the theta = 0 exit
    assert sum(r.report.iterations > 0 for r in records) >= 500
    floor = bounds.probability_floor(50, 20, 0.9, 0.2, 0.5)
    k = summary.num_converged
    f = summary.dominance_fraction
    se = math.sqrt(max(f * (1 - f), 1e-12) / k)
    assert f >= floor.floor - 3 * se, f"{f} < {floor.floor}"
    typ = summary.typical_fraction
    se_t = math.sqrt(max(typ * (1 - typ), 1e-12) / len(records))
    assert typ >= floor.chain.exact_product - 3 * se_t


CHECKS = [
    ("model.sqrt_roundtrip", check_model_sqrt_roundtrip),
    ("model.rayleigh_bound", check_model_rayleigh),
    ("model.order_monotonicity", check_model_monotone_in_order),
    ("model.gradient_fd", check_model_gradient_fd),
    ("model.hessian_fd", check_model_hessian_fd),
    ("model.hessian_domination", check_model_hessian_domination),
    ("model.tilted_consistency", check_model_tilted_consistency),
    ("model.kl_limit", check_model_kl_limit),
    ("model.draw_law", check_model_draw_law),
    ("divergences.mc_agreement", check_divergences_mc_agreement),
    ("divergences.alpha_properties", check_divergences_alpha_properties),
    ("penalty.kraft", check_penalty_kraft),
    ("penalty.rounding_moments", check_penalty_rounding_moments),
    ("penalty.ratio_consistency", check_penalty_ratio_consistency),
    ("typical_set.simplification", check_typical_set_simplification),
    ("typical_set.bound_chain", check_typical_set_chain),
    ("typical_set.membership_freq", check_typical_set_membership_freq),
    ("typical_set.gamma_tail", check_typical_set_gamma_tail),
    ("typical_set.column_decomposition", check_typical_set_column_decomposition),
    ("lasso.descent_and_kkt", check_lasso_descent_and_kkt),
    ("lasso.orthonormal_closed_form", check_lasso_orthonormal_closed_form),
    ("lasso.paper_scale", check_lasso_paper_scale),
    ("bounds.floor_identity", check_bounds_floor_identity),
    ("bounds.main_term_minimum", check_bounds_main_term_is_minimum),
    ("bounds.alpha_monotone", check_bounds_alpha_monotone_in_probability),
    ("sim.determinism", check_sim_determinism),
    ("sim.hellinger_chain", check_sim_hellinger_chain),
    ("sim.dominance_floor", check_sim_dominance_floor),
]


def run_verification() -> int:
    """Run every check, print one line each, return the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any failure marks the check
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return failures
