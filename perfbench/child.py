"""One workload instance in a fresh process: set up, run, write a result file.

    python3 perfbench/child.py <workload> <config_seed> <workdir> <trace 0|1>

The parent (``run.py``) starts this with ``src`` on PYTHONPATH and the BLAS
thread count pinned. Set-up is timed from just before ``import mdlasso``
to just after ``build_model``, so interpreter start-up is not part of it.
The result is written to ``<workdir>/result.json``; the CLI's own stdout is
captured into it rather than mixed with the parent's output.
"""

import contextlib
import io
import json
import os
import sys
import time

# Workload definitions. The sim workloads are the reference protocol
# (n=200, p=1000, k=10, identity covariance); risk-mc is the library's
# risk-bound estimator at a smaller size, cross-checked by renyi_mc.
CONFIG = """\
n = {n}
p = {p}
snr = {snr}
seed = {seed}
num_trials = {trials}
lambda = 0.5
beta = 0.5
eps = 0.5
tau = 0.03
sparsity = 10
magnitude = 1.0
"""
WORKLOADS = {
    "sim-null": dict(n=200, p=1000, snr=0.5, trials=100),
    "sim-dense": dict(n=200, p=1000, snr=10, trials=100),
    "risk-mc": dict(n=50, p=100, snr=2, trials=1),
}
RISK_NUM_MC = 2000
RISK_MC_SAMPLES = 1_000_000


def operations(workload):
    """Trials (sim) or risk-bound draws (risk-mc) one instance attempts."""
    return RISK_NUM_MC if workload == "risk-mc" else WORKLOADS[workload]["trials"]


def config_text(workload, seed):
    return CONFIG.format(seed=seed, **WORKLOADS[workload])


def run(workload, seed, workdir, trace):
    """Set up and run one instance; with ``trace``, also record its spans."""
    text = config_text(workload, seed)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()

    t0 = time.perf_counter()
    import mdlasso
    from mdlasso import cli
    try:
        if tracer is not None:
            tracer.install()
        cfg = cli.parse_config(text)
        model = cfg.build_model()
        out = {"setup_s": time.perf_counter() - t0, "module": mdlasso.__file__}
        if workload.startswith("sim-"):
            out.update(_run_sim(cli, cfg, text, workdir))
        else:
            out.update(_run_risk(cfg, model, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def _run_sim(cli, cfg, text, workdir):
    """One ``mdlasso simulate`` run through the CLI entry point."""
    cfg_path = os.path.join(workdir, "run.cfg")
    csv_path = os.path.join(workdir, "trials.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    stdout = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["simulate", "--config", cfg_path, "--out", csv_path])
    return {"run_s": time.perf_counter() - t1, "ops": cfg.num_trials,
            "rc": rc, "stdout": stdout.getvalue(), "csv": csv_path}


def _run_risk(cfg, model, tracer):
    """One risk-bound estimate, then a Monte-Carlo check of one solution."""
    from mdlasso import bounds, divergences, lasso, model as model_mod
    from mdlasso.penalty import min_coefficients
    from mdlasso.seeding import substream

    bc = cfg.bound_config()
    coeffs = min_coefficients(cfg.n, cfg.p, bc.order, bc.beta, bc.eps,
                              model.sigma2)
    draws = [0]

    def generator(rng):
        if tracer is not None:
            tracer.trial = draws[0]
        draws[0] += 1
        X = model.draw_features(rng, cfg.n)
        Y = model.draw_response(rng, X)
        return lasso.LassoProblem(X, Y, model.sigma2, coeffs)

    t1 = time.perf_counter()
    est = bounds.risk_bound_rhs(model, bc, generator, num_mc=RISK_NUM_MC,
                                seed=cfg.seed)
    report = lasso.solve(generator(substream(cfg.seed, RISK_NUM_MC)))
    mc = divergences.renyi_mc(model, report.theta_hat, bc.order,
                              RISK_MC_SAMPLES, cfg.seed)
    return {
        "run_s": time.perf_counter() - t1, "ops": est.total, "rc": 0,
        "accepted": est.accepted, "total": est.total, "value": est.value,
        "solve_converged": bool(report.converged),
        "renyi_mc": mc.value, "renyi_mc_se": mc.std_error,
        "renyi_div": model_mod.renyi_div(model, report.theta_hat, bc.order),
    }


def main(argv):
    workload, seed, workdir, trace = argv
    out = run(workload, int(seed), workdir, trace == "1")
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
