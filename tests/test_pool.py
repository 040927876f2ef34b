"""The trial pool's contract: ``mdlasso.pool.map_indices``.

Each behaviour is driven through ``map_indices`` with a cheap function.
Each caller (``run_experiment``, ``risk_bound_rhs``, ``renyi_mc``) has one
test that its pooled result equals its serial one, the ``mc_agreement``
sweep one that it forks once, and each pool failure line of the CLI has
one test. This is the one test module that patches
``pool.usable_cpus``, calls ``map_indices`` or defines ``can_fork``, and
``pool.py`` is the one source module that starts processes
(``test_only_the_pool_module_starts_processes``).
"""

import ast
import builtins
import contextlib
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import numpy as np
import pytest

from mdlasso import divergences, pool, sim, verify
from mdlasso.bounds import risk_bound_rhs
from mdlasso.cli import emit_csv, main, parse_config
from mdlasso.divergences import McEstimate, renyi_mc
from mdlasso.errors import NumericalFailureError
from mdlasso.model import DivergenceOrder, GaussianLinearModel, renyi_div
from mdlasso.sim import ExperimentConfig, run_experiment

ROOT = pathlib.Path(__file__).resolve().parents[1]
# trials 2, 7, 8, 10 and 11 return theta = 0 after 0 iterations, the rest iterate
MIXED_DOC = ("n = 50\np = 20\neps = 0.9\ntau = 0.2\nsparsity = 5\n"
             "seed = 11\nsnr = 5\nnum_trials = 12\n")
can_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the trial pool needs fork and sched_getaffinity")


def cpus(monkeypatch, count):
    monkeypatch.setattr(pool, "usable_cpus", lambda: count)


def forks(monkeypatch):
    """The pids of the workers forked from here on; in worker k, the k
    forked before it."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    """Every child process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``
    (a forked child inherits the handler but not the timer)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class SlowToSend(NumericalFailureError):
    """An error that takes 0.25 s to pickle, as a large one would to send."""

    def __reduce__(self):
        time.sleep(0.25)
        return super().__reduce__()


def run_python(code):
    """Run ``code`` in a fresh interpreter with ``src`` on its path and
    ``PYTHONUNBUFFERED`` unset, so that its stdout is block-buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)


def simulate_fails(tmp_path, capsys):
    """``simulate`` on ``MIXED_DOC``, which must exit 1 and write no CSV;
    its stderr lines."""
    doc, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    doc.write_text(MIXED_DOC)
    capsys.readouterr()
    with deadline(15):
        assert main(["simulate", "--config", str(doc), "--out", str(out)]) == 1
    assert not out.exists()
    assert_no_child_left()
    return capsys.readouterr().err.splitlines()


def pids_of_a_map(count):
    return os.getpid(), pool.map_indices(lambda i: os.getpid(), count)


@can_fork
class TestTrialPool:
    def test_one_cpu_runs_in_process(self, monkeypatch):
        cpus(monkeypatch, 1)
        assert pool.map_indices(lambda i: (i, os.getpid()), 12) \
            == [(i, os.getpid()) for i in range(12)]

    @pytest.mark.parametrize("count", [0, -2])
    def test_empty_count_forks_nobody(self, monkeypatch, count):
        # in-process whatever the CPU count: no index file, no fork
        cpus(monkeypatch, 2)
        pids = forks(monkeypatch)
        monkeypatch.setattr(tempfile, "TemporaryFile", None)
        assert pool.map_indices(lambda i: i, count) == []
        assert pids == []

    def test_pool_matches_serial(self, monkeypatch, tmp_path):
        cfg = parse_config(MIXED_DOC)
        cpus(monkeypatch, 1)
        serial, serial_summary = run_experiment(cfg)
        cpus(monkeypatch, 3)
        forked = forks(monkeypatch)
        pooled, pooled_summary = run_experiment(cfg)
        assert len(forked) == 3
        assert_no_child_left()
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

        def failing(i):
            if i == 9 and os.getpid() != parent:
                raise NumericalFailureError("index 9 failed in a worker")
            return i

        with pytest.raises(NumericalFailureError) as caught:
            pool.map_indices(failing, 12)
        assert type(caught.value) is NumericalFailureError
        assert str(caught.value) == "index 9 failed in a worker"
        assert_no_child_left()
        real = sim.run_trial

        def failing_trial(cfg, trial_index):
            failing(trial_index)
            return real(cfg, trial_index)

        monkeypatch.setattr(sim, "run_trial", failing_trial)  # inherited
        assert simulate_fails(tmp_path, capsys) \
            == ["error: index 9 failed in a worker"]

    def test_worker_error_stops_further_claims(self, monkeypatch, tmp_path):
        # the failing worker takes 0.25 s to send its error, so the caller
        # cannot stop the other in time: that one must stop by itself
        cpus(monkeypatch, 2)
        log = tmp_path / "indices"
        log.write_text("")

        def failing(i):
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            if i == 0:
                raise SlowToSend("index 0 failed")
            time.sleep(0.005)
            return i

        with pytest.raises(SlowToSend, match="index 0 failed"):
            pool.map_indices(failing, 100)
        assert len(log.read_text().split()) < 10
        assert_no_child_left()

    def test_unpicklable_worker_error_comes_back_as_its_repr(self,
                                                             monkeypatch):
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def failing(i):
            if os.getpid() != parent:
                exc = ValueError(f"index {i} failed")
                exc.hook = lambda: None  # a lambda does not pickle
                raise exc
            return i

        with pytest.raises(RuntimeError,
                           match=r"^ValueError\('index \d+ failed'\)$"):
            pool.map_indices(failing, 10)
        assert_no_child_left()

    def test_interrupted_map_kills_its_workers(self, monkeypatch):
        cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(TimeoutError), deadline(0.2):
            pool.map_indices(lambda i: time.sleep(20), 4)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_dead_worker_raises(self, monkeypatch, tmp_path, capsys):
        # a worker killed mid-map (by the OOM killer, say) sends no results
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def dies(i):
            if i == 5 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.001)
            return i

        start = time.monotonic()
        with deadline(15), pytest.raises(
                ChildProcessError,
                match=r"^pool worker \d+ ended with status -9 before"):
            pool.map_indices(dies, 50)
        assert time.monotonic() - start < 5
        assert_no_child_left()
        # every worker dies with most of 20 000 indices unclaimed: the map
        # raises instead of waiting on the rest of the queue
        with deadline(15), pytest.raises(ChildProcessError):
            pool.map_indices(lambda i: os.kill(os.getpid(), signal.SIGKILL),
                             20_000)
        assert_no_child_left()
        real = sim.run_trial

        def dying_trial(cfg, trial_index):
            dies(trial_index)
            return real(cfg, trial_index)

        monkeypatch.setattr(sim, "run_trial", dying_trial)
        err = simulate_fails(tmp_path, capsys)
        assert len(err) == 1 and err[0].startswith("i/o error: pool worker ")

    def test_dead_worker_noticed_before_the_others_finish(self, monkeypatch):
        # the last worker forked dies at its first claim; the caller must not
        # wait for the first to run out the queue (50 x 20 ms) before it raises
        cpus(monkeypatch, 2)
        forked = forks(monkeypatch)  # inherited

        def work(i):
            if len(forked) == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.02)
            return i

        start = time.monotonic()
        with deadline(15), pytest.raises(
                ChildProcessError,
                match=r"^pool worker \d+ ended with status -9 before"):
            pool.map_indices(work, 50)
        assert time.monotonic() - start < 0.5
        assert_no_child_left()

    def test_failed_fork_leaves_no_child_or_descriptor(self, monkeypatch):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(pool, "_blas_threads",
                            lambda: (lambda: 1, lambda threads: None))
        real_fork = os.fork
        calls = []

        def fork():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            pool.map_indices(lambda i: time.sleep(0.01), 20)
        assert len(calls) == 2
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_blas_setter_looked_up_once(self, monkeypatch):
        cpus(monkeypatch, 2)
        pool._blas_threads.cache_clear()
        real_open = builtins.open
        lookups = []

        def counting_open(file, *args, **kwargs):
            if file == "/proc/self/maps":
                lookups.append(os.getpid())
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for _ in range(2):
            assert pool.map_indices(lambda i: i, 4) == [0, 1, 2, 3]
        assert lookups == [os.getpid()]

    def test_unwritable_temp_dir_is_an_io_error(self, monkeypatch, tmp_path,
                                                capsys):
        # the index file is the pool's one file; without it no worker starts
        cpus(monkeypatch, 2)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        err = simulate_fails(tmp_path, capsys)
        assert len(err) == 1 and err[0].startswith("i/o error: [Errno 2]")

    def test_serial_inside_a_pool_worker(self, monkeypatch):
        cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as outer:
            worker, inner = outer.apply(pids_of_a_map, (4,))
        assert worker != os.getpid() and inner == [worker] * 4

    def test_workers_hold_blas_to_one_thread(self, monkeypatch):
        # a worker inherits one OpenBLAS thread and starts none: setting the
        # count in a worker starts a server thread that spins on its CPU
        cpus(monkeypatch, 2)
        if pool._blas_threads() is None:
            pytest.skip("no OpenBLAS thread setter: the map runs in-process")
        get_threads, _ = pool._blas_threads()
        before = get_threads()
        a = np.ones((200, 200))

        def threads(i):
            a @ a
            tasks = len(os.listdir("/proc/self/task"))  # its OS threads
            return os.getpid(), get_threads(), tasks

        got = pool.map_indices(threads, 4)
        assert os.getpid() not in {pid for pid, _, _ in got}
        assert {(count, tasks) for _, count, tasks in got} == {(1, 1)}
        assert get_threads() == before

    def test_no_blas_setter_runs_in_process(self, monkeypatch):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(pool, "_blas_threads", lambda: None)
        assert pool.map_indices(lambda i: os.getpid(), 4) == [os.getpid()] * 4

    def test_other_python_thread_runs_in_process(self, monkeypatch):
        cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            pids = pool.map_indices(lambda i: os.getpid(), 4)
        finally:
            release.set()
            other.join()
        assert pids == [os.getpid()] * 4

    def test_pool_after_renyi_mc(self, monkeypatch):
        # renyi_mc maps its three chunks on the pool and leaves no thread
        # behind, so a later map may still fork
        cpus(monkeypatch, 2)
        before = threading.active_count()
        model = GaussianLinearModel(np.zeros(3), 1.0, None)
        forked = forks(monkeypatch)
        renyi_mc(model, np.ones(3), DivergenceOrder(0.5), 40_000, seed=1)
        assert len(forked) == 2
        assert threading.active_count() == before
        assert os.getpid() not in pool.map_indices(lambda i: os.getpid(), 4)

    def test_finds_the_openblas_thread_setter(self):
        try:
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        except (AttributeError, KeyError):
            pytest.skip("numpy does not report its BLAS")
        if "openblas" not in blas:
            pytest.skip(f"numpy uses {blas}, not OpenBLAS")
        assert pool._blas_threads() is not None

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

    def test_unpinned_worker_when_pinning_fails(self, monkeypatch):
        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)  # inherited
        cpus(monkeypatch, 2)
        values = pool.map_indices(lambda i: (i * i, os.getpid()), 8)
        assert [square for square, _ in values] == [i * i for i in range(8)]
        assert os.getpid() not in {pid for _, pid in values}

    def test_uneven_count_in_order_each_index_once(self, monkeypatch,
                                                   tmp_path):
        # more workers than CPUs, racing on the queue; a claim that two
        # workers made, or that none did, shows in the log
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

    @pytest.mark.parametrize("workers", ["two", "oversubscribed"])
    def test_queue_longer_than_a_pipe_buffer(self, monkeypatch, workers):
        # 20 000 index words (160 KB) in the shared temporary file, more
        # than the 64 KB pipe the queue once was: workers racing on the
        # file's one offset must claim each 8-byte word whole, once
        cpus(monkeypatch, 2 if workers == "two"
             else 2 * len(os.sched_getaffinity(0)) + 1)
        with deadline(60):
            assert pool.map_indices(lambda i: i, 20_000) \
                == list(range(20_000))
        assert_no_child_left()

    def test_map_inside_a_worker_runs_in_it(self, monkeypatch):
        cpus(monkeypatch, 2)
        for worker, inner in pool.map_indices(lambda i: pids_of_a_map(4), 6):
            assert worker != os.getpid() and inner == [worker] * 4

    def test_std_streams_flushed_around_the_workers(self):
        # without PYTHONUNBUFFERED a worker's writes sit in its stdout
        # buffer, and text the caller buffered before the map would be
        # copied into every worker
        out = run_python("""
            import os, sys
            from mdlasso import pool
            pool.usable_cpus = lambda: 2
            sys.stdout.write("A")

            def fn(i):
                sys.stdout.write(f"[w{i}]")
                return os.getpid()

            assert os.getpid() not in pool.map_indices(fn, 8)
            sys.stdout.write("B\\n")
        """).stdout
        assert out.startswith("A") and out.count("A") == 1
        assert all(f"[w{i}]" in out for i in range(8))
        assert out.endswith("B\n") and out.count("B") == 1

    def test_pool_does_not_import_multiprocessing(self):
        out = run_python("""
            import os, sys
            import mdlasso
            from mdlasso import pool
            pool.usable_cpus = lambda: 2
            assert os.getpid() not in pool.map_indices(
                lambda i: os.getpid(), 8)
            print("multiprocessing" in sys.modules)
        """).stdout
        assert out == "False\n"


@can_fork
class TestRiskBoundOnThePool:
    def test_pool_matches_serial(self, monkeypatch):
        cfg = ExperimentConfig(n=40, p=20, seed=15, snr=1.0)  # eps = 0.5

        def estimate():
            return risk_bound_rhs(cfg.build_model(), cfg.bound_config(),
                                  cfg.draw_problem, num_mc=100, seed=cfg.seed)

        cpus(monkeypatch, 1)
        serial = estimate()
        cpus(monkeypatch, 2)
        forked = forks(monkeypatch)
        pooled = estimate()
        assert len(forked) == 2
        assert 10 <= pooled.accepted < 100
        assert repr(pooled) == repr(serial)
        for name in vars(serial):
            assert getattr(pooled, name) == getattr(serial, name), name


@can_fork
class TestRenyiMcOnThePool:
    # one chunk (mapped in-process), five with a ragged last one, and 62
    @pytest.mark.parametrize("num_samples, workers",
                             [(10_000, 0), (70_000, 2), (1_000_000, 2)])
    def test_pool_matches_serial(self, monkeypatch, num_samples, workers):
        model = GaussianLinearModel(np.array([0.5, -1.0, 0.0]), 0.8, None)
        theta, order = np.array([0.1, 0.2, -0.4]), DivergenceOrder(0.25)
        cpus(monkeypatch, 1)
        serial = renyi_mc(model, theta, order, num_samples, seed=4)
        cpus(monkeypatch, 2)
        forked = forks(monkeypatch)
        pooled = renyi_mc(model, theta, order, num_samples, seed=4)
        assert len(forked) == workers
        assert pooled == serial

    def test_mc_agreement_sweep_forks_once(self, monkeypatch, tmp_path):
        # its 313 renyi_mc calls run in the two workers of one map
        log = tmp_path / "calls"
        log.write_text("")

        def closed_form(model, theta, order, num_samples, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return McEstimate(renyi_div(model, theta, order), 0.0)

        monkeypatch.setattr(divergences, "renyi_mc", closed_form)
        cpus(monkeypatch, 2)
        forked = forks(monkeypatch)
        verify.check_divergences_mc_agreement()
        assert len(forked) == 2
        pids = log.read_text().split()
        assert len(pids) == 313 and set(map(int, pids)) <= set(forked)


def starts_processes(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "multiprocessing"
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "multiprocessing" or (
                    root == "os" and any(a.name == "fork" for a in node.names)):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
    return False


def test_only_the_pool_module_starts_processes():
    found = {path.name for path in (ROOT / "src" / "mdlasso").glob("*.py")
             if starts_processes(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"pool.py"}
    # and only this test module patches the pool's CPU count, calls
    # map_indices or defines can_fork: no other one names them
    naming = {path.name for path in (ROOT / "tests").glob("*.py")
              if re.search(r"\b(usable_cpus|map_indices|can_fork)\b",
                           path.read_text(encoding="utf-8"))}
    assert naming == {"test_pool.py"}
