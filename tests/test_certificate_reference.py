"""Certificate numbers compared bit for bit with a frozen reference.

``tests/golden/certificates.json`` holds, for each case below, the
quotient, the sha256 of the witness vector and the whole metadata
(analytic floor and slack included) of a certificate, or the type and
message of the error it raised, or the fields of a radial check.  The
reference was recorded before the radial vector, the boundary slack and
the centre separation were each merged into one helper in
``hgspec.constructions``; one complex form value was recorded again,
in its rounding noise, when the operator kernels moved to column-wise
multiplies, and one quotient and that form value again when array
powers, complex products and complex magnitudes stopped depending on
numpy's CPU dispatch.  Five radial quotients and four analytic floors
were recorded again, in their last digits, when their layer sums moved
from a BLAS dot product to ``np.sum``.  Floats are compared through their shortest
round-trip text, so any change of a last bit fails here; so does a new,
missing or reordered metadata key.  To record it again on purpose, run
``PYTHONPATH=src python tests/test_certificate_reference.py`` from the
root of a checkout.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hgspec import (Error, hypertree_ball, lambda2_lower_certificate,
                    mu_lower_certificate, radial_vector, random_regular_linear,
                    rho_lower_certificate, verify_radial_inequality)
from hgspec.reports import vector_sha256

from conftest import cycle_graph

REFERENCE = Path(__file__).resolve().parent / "golden" / "certificates.json"


def _plain(value):
    """JSON-ready copy of a metadata value; complex as [real, imag]."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def _certificate(build, *args, **kwargs):
    try:
        cert = build(*args, **kwargs)
    except Error as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"kind": cert.bound_kind, "quotient": float(cert.quotient),
            "vector_sha256": vector_sha256(cert.vector),
            "metadata": _plain(cert.metadata)}


def _radial_check(h, o):
    res = verify_radial_inequality(h, o)
    return {"passed": res.passed, "min_slack": res.min_slack,
            "worst_vertex": res.worst_vertex,
            "vector_sha256": vector_sha256(radial_vector(h, o))}


def _cases():
    """(name, thunk) pairs; a thunk computes its record when called."""
    rr300 = random_regular_linear(3, 3, 300, 1)
    ball335 = hypertree_ball(3, 3, 5)
    ball434 = hypertree_ball(4, 3, 4)
    c12, c31 = cycle_graph(12), cycle_graph(31)
    cases = [(f"rho rr300_s1 r={r}",
              partial(_certificate, rho_lower_certificate, rr300, 0, r))
             for r in range(4)]
    cases += [(f"rho {label} k=3 r={r}",
               partial(_certificate, rho_lower_certificate, ball, 0, r, k=3))
              for label, ball in (("ball335", ball335), ("ball434", ball434))
              for r in range(5)]
    cases += [(f"lambda2 {label} k={k}",
               partial(_certificate, lambda2_lower_certificate, h, k=k))
              for label, h, k in (("C12", c12, None), ("C31", c31, None),
                                  ("ball335", ball335, 3))]
    cases += [(f"mu ball335 k=3 j={j}",
               partial(_certificate, mu_lower_certificate, ball335, j, k=3))
              for j in range(1, 4)]
    cases += [(f"radial {label} o=0", partial(_radial_check, h, 0))
              for label, h in (("rr300_s1", rr300), ("C12", c12))]
    return cases


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return {name: make() for name, make in _cases()}


def test_case_names_match_reference(recorded, computed):
    assert list(computed) == list(recorded)


@pytest.mark.parametrize("name", [name for name, _ in _cases()])
def test_certificate_matches_reference(recorded, computed, name):
    assert json.dumps(computed[name]) == json.dumps(recorded[name])


if __name__ == "__main__":
    snapshot = {name: make() for name, make in _cases()}
    REFERENCE.write_text(json.dumps(snapshot, indent=1) + "\n",
                         encoding="utf-8", newline="\n")
    print(f"wrote {len(snapshot)} cases to {REFERENCE}")
