"""The package's one process pool: ``map_indices``.

``map_indices(fn, count)`` returns ``[fn(0), ..., fn(count - 1)]``. Its
callers (``sim.run_experiment``, ``bounds.risk_bound_rhs``,
``divergences.renyi_mc`` and ``verify``'s ``divergences.mc_agreement``
sweep) seed index i from its own stream, so the list does not depend on
where each call ran.

The calls run in workers started with ``os.fork``, one per CPU in this
process's ``os.sched_getaffinity`` set and at most ``count``. They inherit
the imported modules and patched module state, so ``fn`` need not pickle.
Worker k pins itself to the k-th CPU (cycling; unpinned if the kernel
refuses). The caller sets its OpenBLAS to one thread before it forks and
back once every worker is reaped, so each worker inherits one BLAS thread.
A worker does not set the count itself: that starts an OpenBLAS server
thread, which spins on the worker's CPU for about 0.1 s and was seen to
halve the worker's speed. The caller's restore starts that spin in the
caller, as any threaded BLAS call does (0.128 s of caller CPU in a 0.3 s
sleep after a map, 0.123 s after a lone 300 x 300 product, 2 vCPUs), so
it only moves forward a cost the caller's next threaded product pays
anyway. Before it forks, the caller writes every index
once, as an 8-byte word, to a temporary file and rewinds it; the workers
share that open file, and with it one file offset. Linux locks a shared
regular file's offset for each read, so each worker's 8-byte ``os.read``
claims the next whole word, and a worker on a busier CPU claims fewer
(CHANGES.md has the measurements). The file must be a regular
one: a memfd's offset is not locked, and two workers were seen to claim one
index. A worker sends back one pickled list of ``(index, value)`` pairs on
a pipe of its own, and the caller takes the pipes in the order the workers
finish. A map of 100 no-op indices took a median 11-14 ms in a fresh
process on a 2-vCPU guest (two sets of ten runs). The calls run in-process
instead when that is at most one worker (a ``count`` <= 0 maps nothing),
without fork, when the caller runs other Python threads or is a worker of
this pool or of a daemonic ``multiprocessing`` one, and when no OpenBLAS
is found whose thread count could be read and set. The caller flushes
``sys.stdout`` and ``sys.stderr`` before it forks, else each worker would
write the caller's buffered text again; each worker flushes them before
its ``os._exit``, which would drop what it wrote.

An exception in a worker is re-raised with its type (as a ``RuntimeError``
with its repr if it does not pickle), and that worker moves the shared
offset to the end of the file, so no worker claims a further index. A
worker that dies without sending its pairs (killed by a signal, say) raises
``ChildProcessError`` with its pid and status as soon as its pipe closes.
A temporary directory (``tempfile.gettempdir()``) that cannot be written
raises its ``OSError`` before any worker starts. Every worker is reaped,
and killed first if still running (the map failed or was interrupted),
before ``map_indices`` returns or raises, so none outlives the call and its
CPU time counts to the caller's reaped children. Side effects of ``fn`` in
a worker die with the worker.
"""

import functools
import os
import pickle
import select
import struct
import sys
import tempfile
import threading
from contextlib import suppress
from typing import Callable, TypeVar

T = TypeVar("T")

_in_worker = False  # True in a worker map_indices forked: maps in-process


def usable_cpus() -> int:
    """CPUs this process may run on: its ``os.sched_getaffinity`` set."""
    return len(os.sched_getaffinity(0))


def _worker_count(count: int) -> int:
    """How many workers ``map_indices`` forks, 1 meaning it maps in-process:
    the CPUs this process may run on, capped at ``count`` and at least 1;
    1 without fork, with other Python threads (a lock one holds stays held
    in the child), in a worker of this pool or a daemonic
    ``multiprocessing`` one (a pool in each worker of another multiplies
    the processes), and when no OpenBLAS is found whose thread count could
    be read and set."""
    mp = sys.modules.get("multiprocessing")
    if (_in_worker
            or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
            or threading.active_count() > 1
            or (mp is not None and mp.current_process().daemon)):
        return 1
    workers = min(usable_cpus(), count)
    return 1 if workers <= 1 or _blas_threads() is None else workers


# OpenBLAS's thread-count setter under the names its builds export; the
# getter's name has "get" for "set"
_BLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")


@functools.cache
def _blas_threads():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS that numpy
    has loaded, or None.

    The library is looked up in /proc/self/maps, once per process; None
    where that file, an OpenBLAS library or either symbol is missing
    (another BLAS, for example).
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
            getter = getattr(lib, name.replace("set_", "get_", 1), None)
            if setter is not None and getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()


def _work(fn, queue, out, cpu) -> None:
    """A forked worker: claim and call, send ``(ok, pairs or exception)``."""
    global _in_worker
    _in_worker, status = True, 1
    try:
        with suppress(OSError):  # the CPU left this process's set, say
            os.sched_setaffinity(0, {cpu})
        pairs = []
        try:
            while word := os.read(queue, 8):
                i = int.from_bytes(word, "little")
                pairs.append((i, fn(i)))
            payload = pickle.dumps((True, pairs))
        except BaseException as exc:
            os.lseek(queue, 0, os.SEEK_END)  # the map fails: none claims more
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
    if workers == 1:
        return [fn(i) for i in range(count)]
    get_blas_threads, set_blas_threads = _blas_threads()
    blas_threads = get_blas_threads()
    cpus = sorted(os.sched_getaffinity(0))
    pairs, fds = [], []  # the (index, value) pairs back; the pipe ends open
    children = {}  # the read end of each worker not yet reaped: its pid
    poller = select.poll()
    with tempfile.TemporaryFile() as queue:
        queue.write(struct.pack(f"<{count}Q", *range(count)))
        queue.seek(0)  # writes the words out; the workers share this offset
        _flush_std_streams()  # else each worker writes the buffered text again
        try:
            set_blas_threads(1)  # what each worker inherits
            for k in range(workers):
                fds += os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(fn, queue.fileno(), fds[-1], cpus[k % len(cpus)])
                os.close(fds.pop())
                children[fds[-1]] = pid
                poller.register(fds[-1], select.POLLIN)
            while children:  # in the order the workers finish
                for read, _ in poller.poll():
                    # a worker writes only at its end: this read waits for
                    # no more than the rest of its results
                    payload = bytearray()
                    while chunk := os.read(read, 1 << 16):
                        payload += chunk
                    poller.unregister(read)
                    pid = children[read]
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del children[read]
                    if not payload or status:
                        raise ChildProcessError(f"pool worker {pid} ended "
                                                f"with status {status} before"
                                                " sending its results")
                    ok, value = pickle.loads(payload)
                    if not ok:
                        raise value
                    pairs += value
        finally:
            for fd in fds:
                os.close(fd)
            for pid in children.values():  # the map failed or was interrupted
                import signal  # ~0.7 ms at import time, paid only here
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            set_blas_threads(blas_threads)
    return [value for _, value in sorted(pairs)]
