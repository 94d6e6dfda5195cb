"""Seeded output does not depend on the CPU's choice of kernels.

numpy picks some of its loops at import from the CPU it runs on: the
array power, the complex product and the complex absolute value among
them, and their last bits differ from one CPU to another.  Each command
below runs in a fresh interpreter with every dispatched feature turned
off (``NPY_DISABLE_CPU_FEATURES``, which leaves numpy its baseline
loops) and must print what the default run prints.  The commands cover
rho on the hypertree balls, a real and a complex certificate family,
and real lambda2 searches at t = 3 and t = 4, whose steps take square
and cube roots, and a complex one.  OpenBLAS picks its kernels by
CPU too; the radial certificates, which once summed with a BLAS dot
product, must print the same numbers under its oldest x86-64 kernel
(``OPENBLAS_CORETYPE=Prescott``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

#: the dispatched features this CPU has; the others are off already
DISPATCHED = [f for f in umath.__cpu_dispatch__
              if umath.__cpu_features__.get(f)]

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(args, cwd, **settings):
    """stdout of a fresh interpreter run with the environment ``settings``
    added to a clean one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for name in ("HGSPEC_SEED", "NPY_DISABLE_CPU_FEATURES",
                 "OPENBLAS_CORETYPE"):
        env.pop(name, None)
    env.update(settings)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _hgspec(argv, cwd, disabled=()):
    settings = {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)} \
        if disabled else {}
    return _python(["-m", "hgspec.cli", *argv], cwd, **settings)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("dispatch")
    _hgspec(["gen", "hypertree", "--t", "3", "--k", "3", "--radius", "5",
             "-o", "ht335.txt"], cwd)
    _hgspec(["gen", "random-regular", "--t", "3", "--k", "3", "--n", "300",
             "--seed", "1", "-o", "rr300.txt"], cwd)
    _hgspec(["gen", "random-regular", "--t", "4", "--k", "3", "--n", "200",
             "--seed", "5", "-o", "rr200_t4.txt"], cwd)
    return cwd


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches nothing here")
@pytest.mark.parametrize("argv", [
    ["sweep", "hypertree", "--t", "3", "--k", "3", "--radii", "1:6"],
    ["verify", "ht335.txt", "--check", "mu", "--j", "1", "--k", "3"],
    ["verify", "ht335.txt", "--check", "mu", "--j", "2", "--k", "3"],
    ["lambda2", "rr300.txt"],
    ["lambda2", "rr200_t4.txt"],
    ["lambda2", "rr200_t4.txt", "--complex-search", "--restarts", "4"],
], ids=["sweep-hypertree", "verify-mu-j1", "verify-mu-j2", "lambda2-real",
        "lambda2-real-t4", "lambda2-complex"])
def test_stdout_independent_of_cpu_dispatch(workdir, argv):
    assert _hgspec(argv, workdir) == _hgspec(argv, workdir, DISPATCHED)


#: radial certificates of balls and of a random regular instance, with
#: the analytic floors whose slack sums over the layers
CERTIFICATES = """
from hgspec import hypertree_ball, random_regular_linear, rho_lower_certificate
cases = [(hypertree_ball(4, 3, 4), r) for r in (2, 3)]
cases += [(hypertree_ball(3, 3, 5), r) for r in (3, 4)]
cases += [(random_regular_linear(3, 3, 300, 1), r) for r in (2, 3)]
for h, r in cases:
    cert = rho_lower_certificate(h, 0, r, k=3)
    print(repr(cert.quotient), repr(cert.metadata["analytic_floor"]))
"""


def test_certificates_independent_of_blas_kernel(tmp_path):
    assert _python(["-c", CERTIFICATES], tmp_path) == \
        _python(["-c", CERTIFICATES], tmp_path, OPENBLAS_CORETYPE="Prescott")
