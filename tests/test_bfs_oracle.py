"""BFS, eccentricities, diameters, the multi-center certificate's centre
separation and the structural predicates checked against independent
oracles.

Two oracles: networkx on the Levi (vertex-edge incidence) graph, where
hypergraph distance is half the Levi distance and acyclicity is
``is_forest``, and a frozen copy of the earlier pure-Python per-source
loops, which fixes the tie-breaking of ``diameter_and_path`` and
``min_eccentricity_vertex``.  The tests' own linearity check
(``conftest.is_linear``) is held to a comparison of every pair of edges.
"""

import functools

import numpy as np
import pytest

from hgspec import (Hypergraph, UNREACHABLE, diameter_and_path,
                    distances_from, hypertree_ball, lambda2_lower_certificate,
                    min_eccentricity_vertex, random_regular_linear)
from hgspec.hypergraph import _eccentricities, _padded_incidence, is_acyclic

from conftest import (cycle_graph, edge_tuples, is_linear, loose_cycle3,
                      loose_path, tight_cycle3)


def random_hypergraph(n, t, m, seed):
    """m distinct random t-subsets of range(n); often disconnected."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.choice(n, size=t, replace=False).tolist())))
    return Hypergraph(n, t, sorted(edges))


def levi_distances(h, o):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(h.n + h.m))
    g.add_edges_from((v, h.n + e) for e, edge in enumerate(edge_tuples(h))
                     for v in edge)
    dist = np.full(h.n, UNREACHABLE, dtype=np.int64)
    for node, d in nx.single_source_shortest_path_length(g, o).items():
        if node < h.n:
            assert d % 2 == 0
            dist[node] = d // 2
    return dist


# -- frozen copy of the per-source loops these functions replaced ---------

@functools.cache
def _incidence(h):
    """Per-vertex tuples of incident edge ids, ascending, in plain Python."""
    lists = [[] for _ in range(h.n)]
    for e, edge in enumerate(h.edge_array.tolist()):
        for v in edge:
            lists[v].append(e)
    return tuple(map(tuple, lists))


def _frozen_distances(h, o):
    edges = edge_tuples(h)
    dist = [UNREACHABLE] * h.n
    dist[o] = 0
    edge_done = [False] * h.m
    frontier = [o]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for e in _incidence(h)[v]:
                if edge_done[e]:
                    continue
                edge_done[e] = True
                for u in edges[e]:
                    if dist[u] == UNREACHABLE:
                        dist[u] = level
                        nxt.append(u)
        nxt.sort()
        frontier = nxt
    return dist


def _frozen_lex_path(h, source, dist_to_target):
    edges = edge_tuples(h)
    path = [source]
    current = source
    remaining = dist_to_target[source]
    while remaining > 0:
        best = None
        for e in _incidence(h)[current]:
            for u in edges[e]:
                if dist_to_target[u] == remaining - 1:
                    if best is None or u < best:
                        best = u
        path.append(best)
        current = best
        remaining -= 1
    return path


def frozen_diameter_and_path(h):
    if h.n == 1:
        return 0, [0]
    if is_acyclic(h):
        d0 = _frozen_distances(h, 0)
        u = int(np.argmax(d0))
        du = _frozen_distances(h, u)
        v = int(np.argmax(du))
        best = (du[v], u, v)
    else:
        best = (-1, 0, 0)
        for s in range(h.n):
            ds = _frozen_distances(h, s)
            far = int(np.argmax(ds))
            if ds[far] > best[0]:
                best = (ds[far], s, far)
    diam, s, v = best
    return diam, _frozen_lex_path(h, s, _frozen_distances(h, v))


def frozen_min_eccentricity_vertex(h):
    best_v, best_ecc = 0, None
    for v in range(h.n):
        ecc = max(_frozen_distances(h, v))
        if best_ecc is None or ecc < best_ecc:
            best_v, best_ecc = v, ecc
    return best_v


# -- instances ----------------------------------------------------------------

RANDOM_CASES = [(n, t, m, seed)
                for t in (2, 3, 4)
                for (n, m) in ((9, 3), (20, 8), (40, 30), (70, 60))
                for seed in (0, 1)]

ECC_SIZES = (2, 63, 64, 65, 130)


def hub_and_cycle(n):
    """Vertex 0 in 40 edges (0, 2i+1, 2i+2), a loose cycle of 3-edges
    (2j+1, 2j+2, 2j+3) through 1..n-2, and the isolated vertex n-1: the
    degrees 40, 3, 2 and 1 take four widths of the padded incidence."""
    spokes = [(0, 2 * i + 1, 2 * i + 2) for i in range(40)]
    ring = n - 2  # an even count, at least 82
    cycle = [(2 * j + 1, 2 * j + 2, (2 * j + 2) % ring + 1)
             for j in range(ring // 2)]
    return Hypergraph(n, 3, spokes + cycle)


def _ecc_instances(n):
    """A connected and a disconnected instance on n vertices, and from
    n = 84 on, for even n, a hub on a cycle with an isolated vertex."""
    if n == 2:
        return [Hypergraph(2, 2, [(0, 1)]), Hypergraph(2, 2, [])]
    hub = [hub_and_cycle(n)] if n >= 84 and n % 2 == 0 else []
    return [cycle_graph(n), random_hypergraph(n, 3, n // 3, n)] + hub


def _connected_instances():
    yield from (random_regular_linear(3, 3, n, seed)
                for n in (30, 60, 99) for seed in (0, 1, 2))
    yield from (tight_cycle3(n) for n in (5, 6, 7, 12, 25))
    yield from (cycle_graph(n) for n in (8, 9))
    yield from (loose_path(e) for e in (1, 4))
    yield loose_cycle3()
    yield from (hypertree_ball(3, 3, r) for r in (1, 2, 3))
    yield hypertree_ball(2, 3, 3)
    yield Hypergraph(1, 2, [])


CONNECTED = list(_connected_instances())


@pytest.mark.parametrize("n,t,m,seed", RANDOM_CASES)
def test_distances_match_levi_bfs(n, t, m, seed):
    h = random_hypergraph(n, t, m, seed)
    for o in range(0, n, max(1, n // 7)):
        assert np.array_equal(distances_from(h, o).dist, levi_distances(h, o))


@pytest.mark.parametrize("n", ECC_SIZES)
def test_eccentricities_match_per_source_bfs(n):
    for h in _ecc_instances(n):
        expected = [distances_from(h, v).eccentricity for v in range(h.n)]
        assert _eccentricities(h).tolist() == expected


@pytest.mark.parametrize("n,t,m,seed", RANDOM_CASES)
def test_eccentricities_match_levi_bfs(n, t, m, seed):
    h = random_hypergraph(n, t, m, seed)
    expected = [int(levi_distances(h, v).max()) for v in range(h.n)]
    assert _eccentricities(h).tolist() == expected


def test_padded_incidence_has_at_most_2tm_slots():
    hub = hub_and_cycle(130)
    assert len(_padded_incidence(hub)[2]) == 4
    for n in ECC_SIZES:
        for h in _ecc_instances(n):
            _, _, buckets = _padded_incidence(h)
            assert sum(rows.size for *_, rows in buckets) <= 2 * h.t * h.m
    # a regular input: one width, no pads
    h = random_regular_linear(3, 3, 30, 0)
    (_, _, rows), = _padded_incidence(h)[2]
    assert rows.shape == (3, 30) and np.all(rows < h.m)


def test_eccentricities_with_isolated_ends():
    # degree-0 vertices first, in the middle and last: empty CSR rows
    h = Hypergraph(7, 2, [(1, 2), (2, 4), (4, 5)])
    assert _eccentricities(h).tolist() == [0, 3, 2, 0, 2, 3, 0]
    assert _eccentricities(Hypergraph(1, 3, [])).tolist() == [0]


@pytest.mark.parametrize("h", CONNECTED, ids=repr)
def test_diameter_and_path_match_frozen_loop(h):
    assert diameter_and_path(h) == frozen_diameter_and_path(h)


@pytest.mark.parametrize("h,k", [(cycle_graph(12), None),
                                 (cycle_graph(31), None),
                                 (hypertree_ball(3, 3, 5), 3)],
                         ids=["C12", "C31", "ball335"])
def test_min_center_separation_is_the_levi_distance(h, k):
    # the inputs of the lambda2 cases of tests/golden/certificates.json
    meta = lambda2_lower_certificate(h, k=k).metadata
    centers = meta["centers"]
    assert meta["min_center_separation"] == min(
        int(levi_distances(h, a)[b])
        for i, a in enumerate(centers) for b in centers[i + 1:])


@pytest.mark.parametrize("h", CONNECTED, ids=repr)
def test_min_eccentricity_vertex_matches_frozen_loop(h):
    assert min_eccentricity_vertex(h) == frozen_min_eccentricity_vertex(h)


@pytest.mark.parametrize("n,t,m", [(12, 2, 5), (12, 2, 11), (15, 3, 6),
                                   (15, 3, 7), (20, 4, 5), (30, 3, 14)])
def test_is_acyclic_and_is_linear_match_oracles(n, t, m):
    nx = pytest.importorskip("networkx")
    instances = [random_hypergraph(n, t, m, seed) for seed in range(12)]
    instances += CONNECTED + [loose_cycle3(), Hypergraph(6, 3, [])]
    verdicts = set()
    for h in instances:
        edges = edge_tuples(h)
        g = nx.Graph()
        g.add_nodes_from(range(h.n + h.m))
        g.add_edges_from((v, h.n + e) for e, edge in enumerate(edges)
                         for v in edge)
        linear = all(len(set(a) & set(b)) <= 1
                     for i, a in enumerate(edges) for b in edges[:i])
        assert is_acyclic(h) == nx.is_forest(g)
        assert is_linear(h) == linear
        verdicts.add((is_acyclic(h), linear))
    assert len(verdicts) == 3  # acyclic, cyclic linear, not linear
