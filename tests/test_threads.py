"""Seeded CLI output does not depend on the BLAS thread count.

OpenBLAS splits long dot products and norms across its threads, and the
partial sums then add up in another order.  Each command below runs in
a fresh interpreter with one thread and with two, and must print the
same bytes.  The sweep reaches the r = 7 ball (21,845 edges) and the
lambda2 input has 30,000 edges, both well past the lengths at which
OpenBLAS starts to split a reduction.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _hgspec(argv, cwd, threads):
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("HGSPEC_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "hgspec.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("threads")
    _hgspec(["gen", "random-regular", "--t", "3", "--k", "3", "--n", "30000",
             "--seed", "19", "-o", "rr30000.txt"], cwd, 1)
    return cwd


@pytest.mark.parametrize("argv", [
    ["sweep", "hypertree", "--t", "3", "--k", "3", "--radii", "7:7"],
    ["lambda2", "rr30000.txt", "--restarts", "8", "--seed", "19"],
], ids=["sweep-hypertree-r7", "lambda2-rr30000"])
def test_stdout_independent_of_blas_threads(workdir, argv):
    assert _hgspec(argv, workdir, 1) == _hgspec(argv, workdir, 2)
