"""Merge benchmark results files into one summary with medians and quartiles.

    python3 perfbench/summarize.py OUT.json .perfbench/results/*.json

For each workload and trace mode, lists every run's seed, metric values
and, for untraced runs, unscaled values and calibration mean; and gives
each metric's median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
"""

import json
import statistics
import sys


def summarize(paths):
    groups = {}
    environment = None
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        env = res["environment"]
        environment = environment or {k: v for k, v in env.items()
                                      if k not in ("seed", "config_seeds",
                                                   "workload")}
        key = f"{env['workload']} trace={res['trace']}"
        groups.setdefault(key, []).append({
            "seed": env["seed"], "config_seeds": env["config_seeds"],
            "correct": res["correct"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()},
            "raw_metrics": res.get("raw_metrics"),
            "calibration_mean_s": (res.get("calibration") or {}).get("mean_s"),
        })
    out = {"environment": environment, "groups": {}}
    for key, runs in sorted(groups.items()):
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None}
        out["groups"][key] = {"runs": runs, "stats": stats}
    return out


if __name__ == "__main__":
    summary = summarize(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for key, group in summary["groups"].items():
        print(key, f"({len(group['runs'])} runs)")
        for name, s in group["stats"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median {s['median']:<14.6g} spread {spread}")
