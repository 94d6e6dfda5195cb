"""Property tests of the operator and the solvers against dense oracles.

The adjacency tensor is built densely (entry 1/(t-1)! on every
permutation of every edge) on hypergraphs of at most 8 vertices and
compared with the matrix-free ``apply_adjacency`` and
``adjacency_form``.  At t = 2 the tensor is the adjacency matrix A, so
rho is the largest eigenvalue of A and lambda2 is the spectral norm of
A - (2m/n^2) J.  Hypothesis runs derandomized and without a database.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspec import (Hypergraph, SolverConfig, adjacency_form, apply_adjacency,
                    lambda2_estimate, spectral_radius)

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
@given(h=connected_graphs())
def test_t2_spectral_radius_is_largest_eigenvalue(h):
    top = float(np.linalg.eigvalsh(adjacency_matrix(h))[-1])
    assert abs(spectral_radius(h).value - top) <= 1e-8


@PROPERTY
@given(h=connected_graphs())
def test_t2_lambda2_estimate_is_a_lower_estimate(h):
    shifted = adjacency_matrix(h) - 2 * h.m / h.n ** 2 * np.ones((h.n, h.n))
    norm = float(np.max(np.abs(np.linalg.eigvalsh(shifted))))
    value = lambda2_estimate(h, SolverConfig(restarts=4)).value
    assert value <= norm + 1e-9
