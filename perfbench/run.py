"""mdlasso benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sim-dense --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. For ``--seconds`` seconds (and at least
``MIN_CHILDREN`` times) it starts one fresh child process per workload
instance (``child.py``) with ``src`` on PYTHONPATH and the BLAS thread count
pinned to ``BLAS_THREADS``, and checks every instance's output:

- ``sim-*``: the CSV's SHA-256 must equal the digest recorded at the parent
  commit in ``expected.json``, and the CLI summary must show
  converged = trials;
- ``risk-mc``: ``accepted``, ``total`` and ``value`` must equal their
  recorded values exactly, and ``renyi_mc`` must lie within 3 standard
  errors of the closed-form ``renyi_div``.

Inputs come from ``--seed``: it orders a pool of ``POOL`` config seeds whose
outputs were recorded, and instance i uses the i-th. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
instances on the same inputs and reports the per-layer metrics of the
traced ones (``spans.py``) plus the tracing overhead.

The host this runs on may be shared, and its speed can drift by a third
within minutes. So after each untraced instance, ``--trace 0`` also runs a
fixed reference job (``calibrate.py``, which does not import mdlasso) for
about ``CAL_SHARE`` of the instance's time, and reports the time metrics
scaled by ``CAL_REF_S`` over that job's mean wall time in the run. The
unscaled values are printed as ``raw.*`` and kept in the results file.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a table before it prints each metric by name
with its unit. A results file with the run's environment goes to
``.perfbench/results/`` (or ``--results``). Exit code 0 when every output
checked out, 1 when any did not, 2 when the checkout has no program.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import spans  # noqa: E402

POOL = 32
MIN_CHILDREN = 3
BLAS_THREADS = 1
HARD_LIMIT_S = 170  # a whole run, however slow its instances
UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "cpu_s": "s",
         "peak_rss_mb": "MB", "success_frac": "ratio"}
TIMES = ("setup_s", "wall_s", "cpu_s")
# About the mean wall time of calibrate.py on the reference host (2-vCPU
# Intel Xeon KVM guest, scipy-openblas 0.3.31, one BLAS thread, Python
# 3.11.7), and the share of each round's instance time spent re-measuring it.
CAL_REF_S = 0.40
CAL_SHARE = 0.25
SUMMARY = re.compile(r"^trials=(\d+) converged=(\d+) ", re.M)


def expected_outputs():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd, workdir, timeout):
    """Run ``cmd`` in ``workdir`` with the child environment.

    Returns its exit code, wall time and resource usage. A child still
    running after ``timeout`` seconds is killed.
    """
    with open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=workdir,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def child_error(workdir):
    with open(os.path.join(workdir, "stderr.txt"), encoding="utf-8",
              errors="replace") as fh:
        return fh.read()[-2000:]


def run_child(workload, seed, workdir, trace, timeout=HARD_LIMIT_S):
    """Run one instance; return its result dict plus wall, CPU and peak RSS.

    An instance still running after ``timeout`` seconds is killed and
    reported as failed.
    """
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), workdir, "1" if trace else "0"]
    code, wall, usage = spawn(cmd, workdir, timeout)
    out = {}
    if code == 0:
        with open(result_path, encoding="utf-8") as fh:
            out = json.load(fh)
    else:
        out["error"] = child_error(workdir)
    out.update(exit=code, wall_s=wall,
               cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0)
    return out


def calibrate(workdir, seconds, timeout=HARD_LIMIT_S):
    """Wall times of ``calibrate.py`` runs that add up to about ``seconds``
    (at least one). Raises RuntimeError if one fails."""
    walls = []
    while not walls or sum(walls) + walls[-1] / 2 <= seconds:
        code, wall, _ = spawn([sys.executable,
                               os.path.join(HERE, "calibrate.py")],
                              workdir, timeout)
        if code != 0:
            raise RuntimeError(f"calibrate.py exited with {code}: "
                               f"{child_error(workdir)}")
        walls.append(wall)
    return walls


def check(workload, seed, out, expected):
    """Problems with one instance's output; empty when it is correct."""
    if out["exit"] != 0:
        return [f"child exited with {out['exit']}: {out.get('error', '')}"]
    problems = []
    if not out["module"].startswith(os.path.join(ROOT, "src") + os.sep):
        problems.append(f"imported mdlasso from {out['module']}")
    want = expected[workload].get(str(seed))
    if want is None:
        return problems + [f"no recorded output for config seed {seed}"]
    if workload.startswith("sim-"):
        with open(out["csv"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if out["rc"] != 0:
            problems.append(f"simulate returned {out['rc']}")
        if digest != want["csv_sha256"]:
            problems.append(f"CSV digest {digest} != {want['csv_sha256']}")
        m = SUMMARY.search(out["stdout"])
        if not m or m.group(1) != m.group(2) or int(m.group(1)) != out["ops"]:
            problems.append(f"summary does not show converged = trials: "
                            f"{out['stdout']!r}")
    else:
        for key in ("accepted", "total", "value"):
            if out[key] != want[key]:
                problems.append(f"{key} {out[key]!r} != recorded {want[key]!r}")
        if not out["solve_converged"]:
            problems.append("cross-check solve did not converge")
        if abs(out["renyi_mc"] - out["renyi_div"]) > 3.0 * out["renyi_mc_se"]:
            problems.append(
                f"renyi_mc {out['renyi_mc']} is more than 3 SE "
                f"({out['renyi_mc_se']}) from renyi_div {out['renyi_div']}")
    return problems


def environment(workload, seed, config_seeds):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_state(),
        "workload": workload,
        "seed": seed,
        "config_seeds": config_seeds,
    }


def git_state():
    """Commit SHA and dirty flag, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def end_to_end(outs, attempted, failed, cal_walls):
    """End-to-end metrics and the unscaled values they were scaled from.

    Over completed instances: ``setup_s`` and ``peak_rss_mb`` are medians,
    ``wall_s`` and ``cpu_s`` means, and ``trials_per_s`` their total
    operations over their total run time. Runs hold as few as six
    instances, and on those the mean varies less from run to run than the
    median. ``success_frac`` is over all instances. The time metrics are
    scaled by the host's speed in this run, ``CAL_REF_S`` over the mean
    calibration wall time, so they read as on a host where
    ``calibrate.py`` takes ``CAL_REF_S``.
    """
    good = [o for o in outs if "run_s" in o]
    raw = {key: statistics.median(o[key] for o in good)
           for key in ("setup_s", "peak_rss_mb")}
    raw.update({key: statistics.fmean(o[key] for o in good)
                for key in ("wall_s", "cpu_s")})
    raw["trials_per_s"] = (sum(o["ops"] for o in good)
                           / sum(o["run_s"] for o in good))
    speed = CAL_REF_S / statistics.fmean(cal_walls)
    metrics = {key: raw[key] * speed for key in TIMES}
    metrics["trials_per_s"] = raw["trials_per_s"] / speed
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics["success_frac"] = 1.0 - failed / attempted
    return {key: metrics[key] for key in UNITS}, raw


def more_rounds(done, elapsed, rounds, seconds):
    """Whether to start another round of instances.

    A round starts only if it should end within ``seconds``, so a run lasts
    about ``seconds`` whatever one instance costs; the first
    ``MIN_CHILDREN`` rounds run unless they would pass ``HARD_LIMIT_S``.
    """
    if not rounds:
        return True
    end = elapsed + statistics.median(rounds)
    return end <= seconds or (done < MIN_CHILDREN and end <= HARD_LIMIT_S)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=child.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="results file (default: under "
                        ".perfbench/results/ in the checkout)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mdlasso", "__init__.py")):
        print(f"no mdlasso sources under {ROOT}/src", file=sys.stderr)
        return 2
    expected = expected_outputs()
    order = random.Random(args.seed).sample(range(POOL), POOL)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)

    runs = []  # (config seed, traced, output, problems)
    attempted = failed = 0
    start = time.perf_counter()
    rounds = []
    cal_walls = []  # calibrate.py wall times, after each untraced round
    try:
        i = 0
        while more_rounds(i, time.perf_counter() - start, rounds,
                          args.seconds):
            round_start = time.perf_counter()
            seed = order[i % POOL]
            # a traced run pairs each traced instance with an untraced one on
            # the same input, alternating which goes first
            modes = [False] if not args.trace else \
                [False, True] if i % 2 == 0 else [True, False]
            for traced in modes:
                out = run_child(args.workload, seed, workdir, traced,
                                max(1.0, HARD_LIMIT_S
                                    - (time.perf_counter() - start)))
                problems = check(args.workload, seed, out, expected)
                # a failed instance fails every trial or draw it attempted
                attempted += child.operations(args.workload)
                failed += child.operations(args.workload) if problems else 0
                if problems:
                    print(f"config seed {seed}: " + "; ".join(problems),
                          file=sys.stderr)
                runs.append((seed, traced, out, problems))
            if not args.trace:
                cal_walls += calibrate(
                    workdir, CAL_SHARE * out["wall_s"],
                    max(1.0, HARD_LIMIT_S - (time.perf_counter() - start)))
            rounds.append(time.perf_counter() - round_start)
            i += 1
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not any(problems for *_, problems in runs)
    untraced = [out for _, traced, out, _ in runs if not traced]
    if not any("run_s" in o for o in untraced):
        print("no workload instance completed", file=sys.stderr)
        return 1
    if args.trace:
        traced = [out for _, t, out, _ in runs if t and "spans" in out]
        if not traced:
            print("no traced instance completed", file=sys.stderr)
            return 1
        metrics = spans.median_metrics(
            [spans.layer_metrics(o["spans"]) for o in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(o["wall_s"] for o in traced)
            - statistics.median(o["wall_s"] for o in untraced))
        units = spans.UNITS
        raw = calibration = None
    else:
        metrics, raw = end_to_end(untraced, attempted, failed, cal_walls)
        units = UNITS
        calibration = {"ref_s": CAL_REF_S,
                       "mean_s": statistics.fmean(cal_walls),
                       "walls_s": cal_walls}

    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':34s} {failed / attempted:16.6g} ratio")
        for name in TIMES + ("trials_per_s",):
            print(f"{'raw.' + name:34s} {raw[name]:16.6g} {units[name]}")
        print(f"{'calibration_mean_s':34s} "
              f"{calibration['mean_s']:16.6g} s "
              f"(reference {CAL_REF_S} s, {len(cal_walls)} runs)")
    print(f"{'instances':34s} {len(runs):16d} count")

    results = {
        "environment": environment(args.workload, args.seed,
                                   [seed for seed, *_ in runs]),
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "raw_metrics": raw,
        "calibration": calibration,
        "instances": [{k: v for k, v in out.items()
                       if k not in ("spans", "stdout", "csv", "module")}
                      | {"config_seed": seed, "traced": traced,
                         "problems": problems}
                      for seed, traced, out, problems in runs],
    }
    path = args.results or os.path.join(
        scratch, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": results["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
