"""Property tests of the operator and the solvers against dense oracles.

The adjacency tensor is built densely (entry 1/(t-1)! on every
permutation of every edge) on hypergraphs of at most 8 vertices and
compared with the matrix-free ``apply_adjacency``, ``adjacency_form``
and the Jacobian product of the rho solver.  At t = 2 the tensor is the
adjacency matrix A, so rho is the largest eigenvalue of A, to within the
solver's Collatz-Wielandt bracket, and lambda2 is the spectral norm of
A - (2m/n^2) J, which the real and the complex search both stay under.
Further properties: emitting then parsing gives back the same
hypergraph; the CLI ends every fuzzed edge-list text with exit code 0,
1 or 2 and at most one ``hgspec:`` line on stderr; every certificate
quotient on a random regular instance is at least its analytic floor,
restated here from the paper.  Hypothesis runs derandomized and without
a database.
"""

import contextlib
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgspec import (DiameterTooSmall, GenerationFailed, Hypergraph,
                    InfeasibleParams, SolverConfig, adjacency_form,
                    apply_adjacency, distances_from, edge_contributions,
                    emit_hypergraph, g_value, lambda2_estimate,
                    lambda2_lower_certificate, parse_hypergraph,
                    random_regular_linear, rho_lower_certificate,
                    spectral_radius, threshold)
from hgspec.cli import run_command
from hgspec.forms import _jacobian

from conftest import adjacency_matrix

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def hypergraphs(draw, t_values=(2, 3, 4), max_n=8):
    t = draw(st.sampled_from(t_values))
    n = draw(st.integers(t, max_n))
    candidates = list(itertools.combinations(range(n), t))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True,
                          max_size=len(candidates)))
    return Hypergraph(n, t, edges)


@st.composite
def connected_graphs(draw, max_n=8):
    """A random spanning tree on 2..max_n vertices plus extra edges."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.sets(st.sampled_from(
        list(itertools.combinations(range(n), 2)))))
    return Hypergraph(n, 2, sorted(tree | extra))


def dense_tensor(h):
    tensor = np.zeros((h.n,) * h.t)
    for edge in h.edges:
        for perm in itertools.permutations(edge):
            tensor[perm] = 1.0 / math.factorial(h.t - 1)
    return tensor


@PROPERTY
@given(data=st.data())
def test_operator_matches_dense_tensor(data):
    h = data.draw(hypergraphs())
    entries = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(entries, min_size=h.n, max_size=h.n)))
    if data.draw(st.booleans()):
        x = x + 1j * np.array(data.draw(st.lists(entries, min_size=h.n,
                                                 max_size=h.n)))
    ax = dense_tensor(h)
    for _ in range(h.t - 1):
        ax = ax @ x
    # |terms| <= 2^t per edge, at most C(8, 4) = 70 edges
    np.testing.assert_allclose(apply_adjacency(h, x), ax, rtol=1e-12,
                               atol=1e-11)
    np.testing.assert_allclose(adjacency_form(h, x), x @ ax, rtol=1e-12,
                               atol=1e-11)


@PROPERTY
@given(data=st.data())
def test_jacobian_matches_dense_tensor(data):
    # (t-1) X M(x) X w with M(x) = T x^(t-2), the Jacobian of A x^[t-1]
    # divided by t - 1, at a positive x
    h = data.draw(hypergraphs())
    x = np.array(data.draw(st.lists(st.floats(0.1, 2), min_size=h.n,
                                    max_size=h.n)))
    w = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=h.n,
                                    max_size=h.n)))
    jac = dense_tensor(h)
    for _ in range(h.t - 2):
        jac = jac @ x
    got = _jacobian(h, edge_contributions(h, x), w, np.empty((h.m, h.t)),
                    np.empty(h.m))
    np.testing.assert_allclose(got, (h.t - 1) * x * (jac @ (x * w)),
                               rtol=1e-12, atol=1e-11)


@PROPERTY
@given(h=connected_graphs())
def test_t2_spectral_radius_is_largest_eigenvalue(h):
    top = float(np.linalg.eigvalsh(adjacency_matrix(h))[-1])
    res = spectral_radius(h)
    assert abs(res.value - top) <= res.residual * res.value \
        + 4 * np.spacing(top)


@PROPERTY
@given(h=connected_graphs(), complex_search=st.booleans())
def test_t2_lambda2_estimate_is_a_lower_estimate(h, complex_search):
    shifted = adjacency_matrix(h) - 2 * h.m / h.n ** 2 * np.ones((h.n, h.n))
    norm = float(np.max(np.abs(np.linalg.eigvalsh(shifted))))
    cfg = SolverConfig(restarts=4, complex_search=complex_search)
    value = lambda2_estimate(h, cfg).value
    assert value <= norm + 1e-9


@PROPERTY
@given(h=hypergraphs(max_n=12))
def test_emit_then_parse_round_trips(h):
    text = emit_hypergraph(h)
    back = parse_hypergraph(text)
    assert back == h
    assert emit_hypergraph(back) == text


_NOISE = st.lists(st.sampled_from(["#", "x", "1.5", "-1", "0", "2", "7",
                                   "99999999999999999999", "1e3", ""]),
                  max_size=4).map(" ".join)


@st.composite
def edge_list_texts(draw):
    """Edge lists, about half well formed, the rest with one fault."""
    t = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    n = draw(st.integers(0, 8))
    edges = list(itertools.combinations(range(n), t)) or [tuple(range(t))]
    rows = [" ".join(map(str, e))
            for e in draw(st.lists(st.sampled_from(edges), unique=True,
                                     max_size=12))]
    fault = draw(st.sampled_from([None, None, None, "count", "noise"]))
    m = len(rows) + (draw(st.sampled_from([-1, 1])) if fault == "count" else 0)
    lines = [f"{t} {n} {m}"] + rows
    if fault == "noise":
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@PROPERTY
@given(text=edge_list_texts(),
       command=st.sampled_from([["radius"], ["lambda2", "--restarts", "2"],
                                ["verify", "--check", "radial"]]))
def test_cli_exit_codes_on_fuzzed_text(text, command):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "h.txt"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_command([command[0], str(path), *command[1:]],
                               out=io.StringIO())
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("hgspec: ")


def _radial_floor(t, k, layer_sizes):
    """rho(t,k) - t (k-1) |S_r| g(r)^t / sum_i |S_i| g(i)^t."""
    g = [g_value(t, k, i) for i in range(len(layer_sizes))]
    norm = sum(size * gi ** t for size, gi in zip(layer_sizes, g))
    return threshold(t, k) - t * (k - 1) * layer_sizes[-1] * g[-1] ** t / norm


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(t=st.sampled_from([2, 3, 4]), k=st.integers(2, 4),
       n=st.integers(8, 120), seed=st.integers(0, 2 ** 16))
def test_certificate_quotients_reach_their_floors(t, k, n, seed):
    assume(n * k % t == 0)
    try:
        h = random_regular_linear(t, k, n, seed, max_attempts=20)
    except (InfeasibleParams, GenerationFailed):
        assume(False)
    assume(h.is_connected)
    dist = distances_from(h, 0).dist
    for radius in range(int(dist.max()) + 1):
        sizes = [int(np.sum(dist == i)) for i in range(radius + 1)]
        cert = rho_lower_certificate(h, 0, radius)
        assert cert.quotient >= _radial_floor(t, k, sizes) - 1e-9
    try:
        cert = lambda2_lower_certificate(h)
    except DiameterTooSmall:
        return
    assert cert.quotient >= cert.metadata["analytic_floor"] - 1e-9
