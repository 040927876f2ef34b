"""The package's one process pool: ``map_indices``.

``map_indices(fn, count)`` returns ``[fn(0), ..., fn(count - 1)]``. Its
callers (``sim.run_experiment``, ``bounds.risk_bound_rhs``) seed index i
from its own substream, so the list does not depend on where each call ran.

The calls run in workers started with ``os.fork``, one per CPU in this
process's ``os.sched_getaffinity`` set and at most ``count``. They inherit
the imported modules and patched module state, so ``fn`` need not pickle.
Worker k pins itself to the k-th CPU (cycling; unpinned if the kernel
refuses) and holds its OpenBLAS to one thread. It then claims indices one at
a time, each an 8-byte word read from a pipe that the caller fills with
every index and closes, so a worker on a busier CPU claims fewer (the README
has the measurements). It sends back one pickled list of ``(index, value)``
pairs on a pipe of its own. A map of 100 no-op indices took a median 10 ms
in a fresh process on a 2-vCPU guest, against 42 ms on the
``multiprocessing.Pool`` this replaced. The calls run in-process instead
when that is one worker, without fork, when the caller runs other Python
threads or is a worker of this pool or of a daemonic ``multiprocessing``
one, and when no OpenBLAS is found whose thread count could be set. The
caller flushes ``sys.stdout`` and ``sys.stderr`` before it forks, else each
worker would write the caller's buffered text again; each worker flushes
them before its ``os._exit``, which would drop what it wrote.

An exception in a worker is re-raised with its type (as a ``RuntimeError``
with its repr if it does not pickle), and that worker empties the pipe, so
no worker claims a further index. A worker that dies without sending its
pairs (killed by a signal, say) raises ``ChildProcessError`` with its pid
and status. Every worker is reaped, and killed first if still running (the
map failed or was interrupted), before ``map_indices`` returns or raises,
so none outlives the call and its CPU time counts to the caller's reaped
children. Side effects of ``fn`` in a worker die with the worker.
"""

import os
import pickle
import struct
import sys
import threading
from contextlib import suppress
from typing import Callable, TypeVar

T = TypeVar("T")

_in_worker = False  # True in a worker map_indices forked: maps in-process
_WRITE = 512  # bytes per queue write: whole words, within POSIX's PIPE_BUF


def usable_cpus() -> int:
    """CPUs this process may run on: its ``os.sched_getaffinity`` set."""
    return len(os.sched_getaffinity(0))


def _worker_count(count: int) -> int:
    """CPUs this process may run on, capped at ``count``; 1 without fork,
    with other Python threads (a lock one holds stays held in the child),
    in a worker of this pool (whose pool would multiply the processes) and
    in a daemonic ``multiprocessing`` worker, which may not start children."""
    mp = sys.modules.get("multiprocessing")
    if (_in_worker
            or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
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


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()


def _work(fn, queue, feed, out, cpu, set_blas_threads) -> None:
    """A forked worker: claim and call, send ``(ok, pairs or exception)``."""
    global _in_worker
    _in_worker, status = True, 1
    try:
        os.close(feed)  # else the queue never reaches its end
        with suppress(OSError):  # the CPU left this process's set, say
            os.sched_setaffinity(0, {cpu})
        set_blas_threads(1)
        pairs = []
        try:
            while word := os.read(queue, 8):
                if len(word) != 8:
                    raise RuntimeError(f"torn index word {word!r}")
                i = int.from_bytes(word, "little")
                pairs.append((i, fn(i)))
            payload = pickle.dumps((True, pairs))
        except BaseException as exc:
            while os.read(queue, _WRITE):  # the map fails: none claims more
                pass
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:  # exc does not pickle and unpickle
                payload = pickle.dumps((False, RuntimeError(repr(exc))))
        with open(out, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)  # never back into the caller's stack


def map_indices(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, on the pool the module docstring
    describes."""
    workers = _worker_count(count)
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        return [fn(i) for i in range(count)]
    cpus = sorted(os.sched_getaffinity(0))
    _flush_std_streams()  # else every worker writes the buffered text again
    pairs = []
    queue, feed = fds = list(os.pipe())  # the descriptors open here
    children = {}  # each worker not yet reaped: the read end of its results
    try:
        for k in range(workers):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, queue, feed, fds[-1], cpus[k % len(cpus)],
                      set_blas_threads)
            children[pid] = fds[-2]
            os.close(fds.pop())
        os.close(fds.pop(fds.index(queue)))
        # Each write is whole 8-byte words and at most PIPE_BUF bytes, which
        # a pipe takes in one piece, and each read asks for whole words, so
        # the pipe only ever holds whole words: an 8-byte read gets one.
        words = memoryview(struct.pack(f"<{count}Q", *range(count)))
        with suppress(BrokenPipeError):  # no worker left; the reads say why
            for start in range(0, len(words), _WRITE):
                os.write(feed, words[start:start + _WRITE])
        os.close(fds.pop(fds.index(feed)))
        for pid, read in list(children.items()):
            fds.remove(read)
            with open(read, "rb") as fh:
                payload = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if not payload or status:
                raise ChildProcessError(f"pool worker {pid} ended with status "
                                        f"{status} before sending its results")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            pairs += value
    finally:
        for fd in fds:
            os.close(fd)
        for pid in children:  # the map failed or was interrupted
            import signal  # ~0.7 ms at import time, paid only here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [value for _, value in sorted(pairs)]
