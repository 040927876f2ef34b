"""The package's one process pool: ``map_indices``.

``map_indices(fn, count)`` returns ``[fn(0), ..., fn(count - 1)]``. Its
callers (``sim.run_experiment``'s trials and ``bounds.risk_bound_rhs``'s
draws) seed index i from its own substream, so the list does not depend
on where each call ran.

The calls run in worker processes started with ``fork``: one per CPU this
process may run on, at most ``count``. Worker k pins itself to the k-th
CPU of the caller's ``os.sched_getaffinity`` set (cycling when there are
more workers than CPUs; unpinned if the kernel refuses), then claims the
next unclaimed index from a counter the workers share, until none is
left. A worker that runs slower, on a busier CPU or with longer calls,
claims fewer indices instead of holding up the map with a fixed share.
Each worker holds its OpenBLAS to one thread, so that the pool runs as
many threads as workers rather than workers times BLAS threads. The calls
run in-process instead when that is one worker, when the platform cannot
fork, when the caller runs other Python threads or is itself a daemonic
pool worker, and when no OpenBLAS is found whose thread count the workers
could set.

Pinned, because the scheduler may leave both workers on one CPU: on a
2-vCPU guest, 4 of 36 unpinned maps of 100 trials at n=200, p=1000,
SNR 0.5 ran both workers' trials mostly on one CPU and took 0.49-0.59 s
against 0.23-0.32 s for the rest; pinned, none did. Self-scheduled,
because equal blocks are not equal work: at SNR 10 the two workers' CPU
times differed by 0-0.74 s over seven maps of one contiguous block each
(2.94 s in an eighth), and by at most 0.06 s over eight self-scheduled
maps. A claim costs one lock round trip on the shared counter, and each
worker hands back one list of ``(index, value)`` pairs, which the caller
puts in index order. On ``sim-null``, where a trial takes ~5 ms, the
benchmark's ``cpu_s`` (the parent plus its reaped workers, median of ten
40 s runs) was 0.844 s with blocks and 0.854 s self-scheduled.

Fork, not spawn: the workers inherit the imported modules, and any patched
module state, instead of importing numpy and this package afresh, which
takes about a third of the time of 100 trials at SNR 0.5. ``fn`` itself
reaches the workers the same way, as a module global set for the pool's
lifetime, so it need not pickle: closures work, and a function it looks up
by name (a replaced ``sim.run_trial``, say) is the one called. Only each
worker's CPU and the count go to the workers, and only the pairs come
back, pickled.

An exception in a worker is re-raised in the caller with its type, and
the other workers claim no further index once it is raised. The
pool is joined before ``map_indices`` returns, so the workers' CPU time is
counted to this process's reaped children. Side effects of ``fn`` in a
worker (a counter it bumps, state its closure holds) die with the worker.
"""

import os
import sys
import threading
from typing import Callable, Optional, TypeVar

from .seeding import usable_cpus

T = TypeVar("T")

# the running pool's function and its shared next unclaimed index,
# inherited by the forked workers
_fn: Optional[Callable[[int], object]] = None
_next = None


def _worker_count(count: int) -> int:
    """CPUs this process may run on, capped at ``count``.

    1 without fork; in a process that runs other Python threads, since a
    fork copies only the calling thread and a lock another thread holds
    stays held in the child; and in a daemonic process such as a
    ``multiprocessing`` pool worker, which may not start children.
    """
    mp = sys.modules.get("multiprocessing")
    if (not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
            or threading.active_count() > 1
            or (mp is not None and mp.current_process().daemon)):
        return 1
    return min(usable_cpus(), count)


# OpenBLAS's thread-count setter under the names its builds export
_BLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")


def _blas_thread_setter():
    """``set_num_threads`` of the OpenBLAS that numpy has loaded, or None.

    The library is looked up in /proc/self/maps; None where that file, an
    OpenBLAS library or the symbol is missing (another BLAS, for example).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    import ctypes
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                return setter
    return None


def _drain(cpu: int, count: int) -> list:
    """Pin this worker to ``cpu``, then call ``_fn`` on the next unclaimed
    index below ``count`` until none is left; ``(index, value)`` pairs."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the CPU left this process's set since it was read
        pass
    pairs = []
    while True:
        with _next.get_lock():
            i = _next.value
            _next.value = i + 1
        if i >= count:
            return pairs
        try:
            pairs.append((i, _fn(i)))
        except BaseException:
            with _next.get_lock():  # the map fails: no worker claims more
                _next.value = count
            raise


def map_indices(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, on the pool the module docstring
    describes."""
    global _fn, _next
    workers = _worker_count(count)
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        return [fn(i) for i in range(count)]
    import multiprocessing  # ~8 ms, paid only by runs that start a pool
    ctx = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    tasks = [(cpus[k % len(cpus)], count) for k in range(workers)]
    _fn, _next = fn, ctx.Value("q", 0)
    try:
        with ctx.Pool(workers, initializer=set_blas_threads,
                      initargs=(1,)) as pool:
            parts = pool.starmap(_drain, tasks, chunksize=1)
            pool.close()
            pool.join()
    finally:
        _fn = _next = None
    results = [None] * count
    for part in parts:
        for i, value in part:
            results[i] = value
    return results
