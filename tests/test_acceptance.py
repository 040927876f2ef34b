"""Acceptance suite: the criterion with no other home, printing one line.

Criteria 1, 2, 4, 5, 6, 7, 8 and 9 are asserted where their invariant
lives: in a unit test or a ``verify.CHECKS`` entry of at least the same size
and at most the same tolerance (the README maps each criterion to its home);
criterion 4, the Monte-Carlo comparison, is the check
``divergences.mc_agreement``. Criterion 3 remains here: the paper's
reference protocol, 300 trials at n=200, p=1000 over three SNRs, which
nothing else runs. Seeds are fixed, so the suite is deterministic.
"""

from mdlasso.sim import ExperimentConfig, run_experiment


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


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
