"""The determinism contract across OpenBLAS kernels.

The same config and seed give the same trial CSV bytes and ``bounds``
stdout whichever kernel OpenBLAS dispatches to, and on this file's config
the same ``risk_bound_rhs`` value; that value is not rounded, and on some
other seeds its last bit moves with the kernel (see the README). The
solution's own bits are not covered: they differ between kernels by about
1e-16 relative, and the 10 printed digits round that away. ``bounds``
prints its ``kkt_residual``, a difference of terms of order 1 near the 1e-6
tolerance, to 3 digits for the same reason. The configs iterate ISTA
(SNR 10), where the kernels' products differ.

``OPENBLAS_CORETYPE`` acts only on the process that loads the library, so
each kernel runs this file as a script in a subprocess of its own, which
prints its outputs and the core name its OpenBLAS reports as JSON.
"""

import contextlib
import ctypes
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

from mdlasso import cli, pool
from mdlasso.bounds import risk_bound_rhs

ROOT = pathlib.Path(__file__).resolve().parents[1]
KERNELS = (None, "Haswell", "Sandybridge")  # None: the library's own pick
CONFIG = """\
n = 50
p = 200
snr = 10
seed = 3
num_trials = 20
"""
RISK_CONFIG = CONFIG.replace("p = 200", "p = 100")  # ~1/4 typical draws
RISK_DRAWS = 200


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def openblas_build():
    """(core name, build config) of the OpenBLAS in which
    ``pool._blas_threads`` found its symbols, or None where it found none
    or the library names no core."""
    blas = pool._blas_threads()
    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)  # glibc's, say
    if blas is None or dladdr is None:
        return None
    setter = blas[1]
    dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    dladdr.restype = ctypes.c_int
    info = _DlInfo()
    if not dladdr(ctypes.cast(setter, ctypes.c_void_p), ctypes.byref(info)):
        return None
    lib = ctypes.CDLL(info.dli_fname.decode())
    found = []
    for what in ("get_corename", "get_config"):
        fn = getattr(lib, setter.__name__.replace("set_num_threads", what),
                     None)
        if fn is None:
            return None
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        found.append(fn().decode())
    return tuple(found)


def outputs(workdir):
    """This process's core name, trial CSV and ``bounds`` stdout on
    ``CONFIG``, and its risk estimate on ``RISK_CONFIG``."""
    cfg_path = os.path.join(workdir, "run.cfg")
    csv_path = os.path.join(workdir, "trials.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["simulate", "--config", cfg_path,
                         "--out", csv_path]) == 0
        mark = stdout.tell()
        assert cli.main(["bounds", "--config", cfg_path]) == 0
    with open(csv_path, encoding="utf-8") as fh:
        csv = fh.read()
    cfg = cli.parse_config(RISK_CONFIG)
    model = cfg.build_model()
    est = risk_bound_rhs(model, cfg.bound_config(), cfg.draw_problem,
                         RISK_DRAWS, cfg.seed)
    return {"core": openblas_build()[0], "csv": csv,
            "bounds": stdout.getvalue()[mark:], "risk": est.value.hex()}


def start_under(kernel, workdir):
    """This file as a script in a subprocess under ``kernel``."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, __file__, str(workdir)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    build = openblas_build()
    if (build is None or "DYNAMIC_ARCH" not in build[1]
            or platform.machine().lower() not in ("x86_64", "amd64")):
        pytest.skip("needs a DYNAMIC_ARCH OpenBLAS on x86-64 to switch "
                    "kernels with OPENBLAS_CORETYPE")
    children = []
    for i, kernel in enumerate(KERNELS):
        (tmp_path / str(i)).mkdir()
        children.append(start_under(kernel, tmp_path / str(i)))
    runs = []
    try:
        for child in children:
            out, err = child.communicate(timeout=60)
            assert child.returncode == 0, err
            runs.append(json.loads(out))
    finally:
        for child in children:
            child.kill()  # a no-op for those that have exited
            child.wait()
    cores = [run["core"] for run in runs]
    assert len(set(cores)) == len(KERNELS), cores  # else nothing was switched
    first = runs[0]
    assert "solver_iterations = 0" not in first["bounds"]
    for run in runs[1:]:
        assert run["csv"] == first["csv"], run["core"]
        assert run["risk"] == first["risk"], run["core"]
        assert run["bounds"] == first["bounds"], run["core"]


if __name__ == "__main__":
    print(json.dumps(outputs(sys.argv[1])))
