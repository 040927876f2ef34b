"""Record the outputs the benchmark checks, from the code at hand.

    python3 perfbench/record_expected.py

Runs every workload once, untraced, on each config seed of the pool and
writes ``expected.json``: the trial CSV's SHA-256 for the sim workloads, and
``accepted``, ``total`` and ``value`` of the risk-bound estimate for
risk-mc. Record only at a commit whose outputs are the reference; the
benchmark then holds every later commit to them byte for byte.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run


def main():
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
    expected = {}
    try:
        for workload in run.child.WORKLOADS:
            expected[workload] = {}
            for seed in range(run.POOL):
                out = run.run_child(workload, seed, workdir, trace=False)
                if out["exit"] != 0:
                    sys.exit(f"{workload} seed {seed} failed: {out['error']}")
                if workload.startswith("sim-"):
                    with open(out["csv"], "rb") as fh:
                        want = {"csv_sha256":
                                hashlib.sha256(fh.read()).hexdigest()}
                else:
                    want = {k: out[k] for k in ("accepted", "total", "value")}
                expected[workload][str(seed)] = want
                problems = run.check(workload, seed, out, expected)
                print(workload, seed, want, "; ".join(problems), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
