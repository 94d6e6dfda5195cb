"""Shared instance builders for the test suite."""

import mpmath
import numpy as np
import pytest

from hgspec import Hypergraph


def cycle_graph(n):
    """Graph cycle C_n as a 2-uniform hypergraph (2-regular)."""
    return Hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Hypergraph(n, 2, [(i, i + 1) for i in range(n - 1)])


def loose_path(edges):
    """t=3 loose path with the given number of edges: {0,1,2},{2,3,4},..."""
    n = 2 * edges + 1
    return Hypergraph(n, 3, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(edges)])


def loose_cycle3():
    """The 3-edge loose cycle {0,1,2},{2,3,4},{4,5,0}."""
    return Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])


def tight_cycle3(n):
    """Tight 3-uniform cycle: edges {i, i+1, i+2} mod n; 3-regular."""
    return Hypergraph(n, 3, [(i, (i + 1) % n, (i + 2) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Hypergraph(10, 2, outer + inner + spokes)


def random_connected_graph(n, p, seed):
    """Seeded G(n, p), resampled until connected."""
    rng = np.random.default_rng(seed)
    while True:
        mask = np.triu(rng.random((n, n)) < p, 1)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if not edges:
            continue
        h = Hypergraph(n, 2, edges)
        if h.is_connected:
            return h


def adjacency_matrix(h):
    """Dense symmetric adjacency matrix of a 2-uniform hypergraph."""
    assert h.t == 2
    a = np.zeros((h.n, h.n))
    for (i, j) in h.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def is_equitable(h, cell):
    """True iff every vertex of a cell sees the same multiset of
    other-member cell tuples over its edges; exact, in pure Python."""
    views = [[] for _ in range(h.n)]
    for edge in h.edges:
        for v in edge:
            views[v].append(tuple(sorted(int(cell[u]) for u in edge
                                         if u != v)))
    seen = {}
    return all(seen.setdefault(int(cell[v]), sorted(views[v]))
               == sorted(views[v]) for v in range(h.n))


def same_partition(a, b):
    """True iff the cell labellings a and b split the vertices alike."""
    pairs = set(zip(map(int, a), map(int, b)))
    return len(pairs) == len(set(map(int, a))) == len(set(map(int, b)))


def layer_perron_value(t, k, r, dps=50):
    """rho of the hypertree ball B_r(t, k) from its (r+1)-variable layer map.

    The Perron vector is constant on each layer, with values y_0..y_r:

        lam y_0^(t-1) = k y_1^(t-1)
        lam y_i^(t-1) = y_(i-1) y_i^(t-2) + (k-1) y_(i+1)^(t-1)
        lam y_r^(t-1) = y_(r-1) y_r^(t-2)

    A float shifted power iteration on the map gives the start, and
    mpmath's Newton solver then finishes at ``dps`` digits with y_0 = 1.
    """
    def layer_map(y):
        out = [k * y[1] ** (t - 1)]
        out += [y[i - 1] * y[i] ** (t - 2) + (k - 1) * y[i + 1] ** (t - 1)
                for i in range(1, r)]
        return out + [y[r - 1] * y[r] ** (t - 2)]

    y = np.ones(r + 1)
    for _ in range(3000):
        y = (np.array(layer_map(y)) + y ** (t - 1)) ** (1.0 / (t - 1))
        y /= y[0]
    start = [layer_map(y)[0]] + list(y[1:])
    with mpmath.workdps(dps):
        def defect(lam, *rest):
            ys = [mpmath.mpf(1)] + list(rest)
            return [f - lam * v ** (t - 1) for f, v in zip(layer_map(ys), ys)]
        sol = mpmath.findroot(defect, [mpmath.mpf(v) for v in start])
        assert all(v > 0 for v in sol), "not the Perron solution"
        return sol[0]


@pytest.fixture(scope="session")
def small_ball_335():
    from hgspec import hypertree_ball
    return hypertree_ball(3, 3, 5)
