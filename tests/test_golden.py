"""CLI stdout compared byte for byte with recorded outputs in tests/golden/.

Each case runs ``hgspec`` commands in-process from a scratch directory,
so the file paths echoed in the reports are the bare names below.  The
set covers every subcommand and generator family, both solvers (the
complex ascent too) and every ``verify`` check.  The outputs were
recorded from earlier versions of the code: the first ten before the
per-source BFS loops were replaced by the bit-parallel search, the next
twelve before the edge store, validator, operator kernels and generator
dispatch were merged, and the Alon-Boppana case with ``--k 3`` before
the certificate constructions were merged into one radial core.  Eleven
of them were recorded again, in their last digits only, when the
operator kernels and solvers moved to one pairwise summation rule, and
eight when rho moved to Newton-Noda iteration, which also dropped the
solver stanza's "shift" line.  The two lambda2 cases were recorded
again, in their "iterations" counts only, when the ascent stopped on its
predicted gain instead of a step floor.  Eight were recorded again, in
their last digits only, when every solver value came to be formed by the
one edge-product kernel of the public forms.  The two Alon-Boppana cases
on rr300 were recorded again, failing with ``"trivial": true``, when a
certificate of radius d = 0 stopped counting as a pass.  Six were
recorded again, in their rho, gap, residual and iterations numbers
only, when rho came to be solved on one value per cell of the coarsest
equitable partition and certified on all vertices.  Four were
recorded again, in their last digits only, when every array power came
to be formed by multiplies and every complex product and magnitude by
real operations, so that no output depends on numpy's CPU dispatch.
The five that print a lambda2 estimate were recorded again, in their
estimates and the lambda2 iteration counts and residuals only, when the
ascent became shifted power steps under one evaluation budget.  A
change that alters any byte of them (a different center, diameter path,
certificate or solver trajectory, or a last bit of rho) fails here.
To record a new golden set on purpose, run ``PYTHONPATH=src python
tests/test_golden.py`` from the root of a checkout.  For each file it
rewrites, it lists every number that changed, old -> new with the
relative change, or the whole diff when more than numbers changed.
"""

import difflib
import io
import re
from pathlib import Path

import pytest

from hgspec.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"

#: (golden file name, argv); the gen commands write the inputs the
#: later commands read
CASES = [
    (f"gen_rr300_s{s}.json",
     ["gen", "random-regular", "--t", "3", "--k", "3", "--n", "300",
      "--seed", str(s), "-o", f"rr300_s{s}.txt"])
    for s in (1, 2, 3)
] + [
    ("gen_rr200_t4_s5.json",
     ["gen", "random-regular", "--t", "4", "--k", "3", "--n", "200",
      "--seed", "5", "-o", "rr200_t4_s5.txt"]),
    ("gen_hypertree_t3_k3_r5.json",
     ["gen", "hypertree", "--t", "3", "--k", "3", "--radius", "5",
      "-o", "ht335.txt"]),
    ("gen_complete_t3_n7.txt", ["gen", "complete", "--t", "3", "--n", "7"]),
] + [
    (f"verify_{check}_rr300_s{s}.json",
     ["verify", f"rr300_s{s}.txt", "--check", check])
    for s in (1, 2) for check in ("alon-boppana", "radial")
] + [
    # the lowest-id center of this instance is vertex 1, not 0
    ("verify_radial_rr300_s3.json",
     ["verify", "rr300_s3.txt", "--check", "radial"]),
    ("verify_g-monotone_rr300_s1.json",
     ["verify", "rr300_s1.txt", "--check", "g-monotone"]),
    ("verify_mu_j1_ht335.json",
     ["verify", "ht335.txt", "--check", "mu", "--j", "1", "--k", "3"]),
    ("verify_acyclic-bound_ht335.json",
     ["verify", "ht335.txt", "--check", "acyclic-bound"]),
    # the only Alon-Boppana case whose certificate radius d is above 0
    ("verify_alon-boppana_k3_ht335.json",
     ["verify", "ht335.txt", "--check", "alon-boppana", "--k", "3"]),
    ("radius_rr300_s1.json", ["radius", "rr300_s1.txt"]),
    ("lambda2_rr300_s1.json", ["lambda2", "rr300_s1.txt"]),
    ("lambda2_complex_rr200_t4_s5.json",
     ["lambda2", "rr200_t4_s5.txt", "--complex-search", "--restarts", "4"]),
    ("bounds_t3_k3.json", ["bounds", "--t", "3", "--k", "3"]),
    ("sweep_hypertree_t3_k3_r1-6.csv",
     ["sweep", "hypertree", "--t", "3", "--k", "3", "--radii", "1:6"]),
    ("sweep_complete_t3_n5-9.csv",
     ["sweep", "complete", "--t", "3", "--ns", "5:9"]),
    ("sweep_random-regular_t3_k3_n30-60-15.csv",
     ["sweep", "random-regular", "--t", "3", "--k", "3", "--ns", "30:60:15"]),
]

#: the cases that exit 1: their Alon-Boppana certificate has radius d = 0
FAILING = {"verify_alon-boppana_rr300_s1.json",
           "verify_alon-boppana_rr300_s2.json"}


def _run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _moved_numbers(name, old, new):
    """(where, old, new) for every number that differs between two outputs.

    ``where`` is the line and the JSON key or CSV column.  Raises
    ``ValueError`` when the outputs differ in more than numbers.
    """
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        raise ValueError(f"{name}: more than numbers changed")
    lines = new.splitlines()
    header = lines[0].split(",") if name.endswith(".csv") else None
    moved = []
    for row, (a, b) in enumerate(zip(old.splitlines(), lines), 1):
        if header:
            cells = zip(header, a.split(","), b.split(","))
        else:
            key = re.match(r'\s*"([^"]+)":', b)
            cells = ((key.group(1) if key else "", p, q) for p, q in
                     zip(_NUMBER.findall(a), _NUMBER.findall(b)))
        moved += [(f"line {row} {col}".rstrip(), p, q)
                  for col, p, q in cells if p != q]
    return moved


def _report_change(name, old, new):
    """Print what re-recording ``name`` changes (nothing when equal)."""
    if old == new:
        return
    try:
        moved = _moved_numbers(name, old, new)
    except ValueError as exc:
        print(exc)
        print("".join(difflib.unified_diff(old.splitlines(True),
                                           new.splitlines(True))), end="")
        return
    print(f"{name}: {len(moved)} numbers moved")
    for where, p, q in moved:
        rel = abs(float(q) - float(p)) / abs(float(p)) if float(p) else None
        print(f"  {where}: {p} -> {q}"
              + (f" (relative {rel:.2g})" if rel is not None else ""))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every case once, in order, from one scratch directory."""
    mp = pytest.MonkeyPatch()
    mp.delenv("HGSPEC_SEED", raising=False)
    mp.chdir(tmp_path_factory.mktemp("golden"))
    try:
        return {name: _run(argv) for name, argv in CASES}
    finally:
        mp.undo()


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_stdout_matches_golden(outputs, name):
    code, text = outputs[name]
    assert code == (1 if name in FAILING else 0)
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert text == expected


def test_moved_numbers_lists_each_change():
    old = '{\n  "rho": 3.0000000000000013,\n  "iterations": 71\n}\n'
    new = '{\n  "rho": 3,\n  "iterations": 69\n}\n'
    assert _moved_numbers("a.json", old, new) == [
        ("line 2 rho", "3.0000000000000013", "3"),
        ("line 3 iterations", "71", "69")]
    assert _moved_numbers("a.csv", "n,rho,gap\n5,2.5,-1e-3\n",
                          "n,rho,gap\n5,2.5,-2e-3\n") == [
        ("line 2 gap", "-1e-3", "-2e-3")]
    with pytest.raises(ValueError, match="more than numbers"):
        _moved_numbers("a.json", '{"passed": true}', '{"passed": false}')


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("HGSPEC_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name, argv in CASES:
            code, text = _run(argv)
            if code != (1 if name in FAILING else 0):
                raise SystemExit(f"{name}: exit {code}")
            path = GOLDEN / name
            if path.exists():
                _report_change(name, path.read_text(encoding="utf-8"), text)
            else:
                print(f"{name}: new")
            path.write_text(text, encoding="utf-8", newline="\n")
