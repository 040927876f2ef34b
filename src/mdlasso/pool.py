"""The package's one process pool: ``map_indices``.

``map_indices(fn, count)`` returns ``[fn(0), ..., fn(count - 1)]``. Its
callers (``sim.run_experiment``'s trials and ``bounds.risk_bound_rhs``'s
draws) seed index i from its own substream, so the list does not depend
on where each call ran.

The calls run in worker processes started with ``fork``: one per CPU this
process may run on, at most ``count``, each taking one contiguous block of
indices. Each worker holds its OpenBLAS to one thread, so that the pool
runs as many threads as workers rather than workers times BLAS threads.
The calls run in-process instead when that is one worker, when the
platform cannot fork, when the caller runs other Python threads or is
itself a daemonic pool worker, and when no OpenBLAS is found whose thread
count the workers could set.

Fork, not spawn: the workers inherit the imported modules, and any patched
module state, instead of importing numpy and this package afresh, which
takes about a third of the time of 100 trials at SNR 0.5. ``fn`` itself
reaches the workers the same way, as a module global set for the pool's
lifetime, so it need not pickle: closures work, and a function it looks up
by name (a replaced ``sim.run_trial``, say) is the one called. Only the
index blocks and the results are pickled. One block per worker, because
every further hand-off costs CPU: at n=200, p=1000, SNR 0.5 on a 2-vCPU
guest, one trial per task took 42% more CPU than the serial loop and one
block per worker 7% more.

An exception in a worker is re-raised in the caller with its type. The
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

# the function of the running pool, inherited by its forked workers
_fn: Optional[Callable[[int], object]] = None


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


def _run_block(block: range) -> list:
    return [_fn(i) for i in block]


def map_indices(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, on the pool the module docstring
    describes."""
    global _fn
    workers = _worker_count(count)
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        return [fn(i) for i in range(count)]
    import multiprocessing  # ~8 ms, paid only by runs that start a pool
    size = -(-count // workers)
    blocks = [range(start, min(start + size, count))
              for start in range(0, count, size)]
    ctx = multiprocessing.get_context("fork")
    _fn = fn
    try:
        with ctx.Pool(len(blocks), initializer=set_blas_threads,
                      initargs=(1,)) as pool:
            results = pool.map(_run_block, blocks)
            pool.close()
            pool.join()
    finally:
        _fn = None
    return [value for block in results for value in block]
