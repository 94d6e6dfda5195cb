"""Hypergraph construction, predicates, and metric queries."""

import numpy as np
import pytest

from hgspec import (Hypergraph, NotConnectedError, UNREACHABLE,
                    complete_uniform, diameter_and_path,
                    distances_from, hypertree_ball, is_acyclic, is_linear,
                    min_eccentricity_vertex, random_regular_linear,
                    regular_degree)

from conftest import cycle_graph, loose_cycle3, loose_path


class TestConstruction:
    def test_edges_sorted_and_canonical(self):
        h = Hypergraph(5, 3, [(4, 2, 0), (1, 3, 2)])
        assert h.edges == ((0, 2, 4), (1, 2, 3))

    def test_duplicate_edge_is_hard_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(4, 3, [(0, 1, 2), (2, 1, 0)])

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 3, [(0, 1)])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError, match="repeated"):
            Hypergraph(4, 3, [(0, 1, 1)])

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            Hypergraph(3, 3, [(0, 1, 3)])

    def test_uniformity_bounds(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 1, [(0,)])
        with pytest.raises(ValueError):
            Hypergraph(0, 2, [])

    def test_edge_array_is_a_read_only_view_of_the_index(self):
        # one copy of the edges: the kernels index with the writable
        # _edge_index, which numpy does not copy, callers see a view
        h = Hypergraph(5, 3, [(4, 2, 0), (1, 3, 2)])
        assert np.shares_memory(h.edge_array, h._edge_index)
        assert not h.edge_array.flags.writeable
        with pytest.raises(ValueError):
            h.edge_array[0, 0] = 1


class TestDegrees:
    def test_single_edge(self):
        assert Hypergraph(3, 3, [(0, 1, 2)]).degrees.tolist() == [1, 1, 1]

    def test_complete_3_uniform_on_4(self):
        # each vertex lies in C(3,2) = 3 of the C(4,3) = 4 edges
        assert complete_uniform(4, 3).degrees.tolist() == [3, 3, 3, 3]

    def test_hypertree_ball_radius_1(self):
        h = hypertree_ball(3, 3, 1)
        assert h.degrees.tolist() == [3, 1, 1, 1, 1, 1, 1]

    def test_degree_sum_is_t_m(self):
        for seed in range(4):
            h = random_regular_linear(3, 3, 18, seed)
            assert sum(h.degrees) == h.t * h.m

    def test_regular_degree(self):
        assert regular_degree(complete_uniform(5, 3)) == 6
        assert regular_degree(loose_path(2)) is None


class TestLinearity:
    def test_single_edge_linear(self):
        assert is_linear(Hypergraph(3, 3, [(0, 1, 2)]))

    def test_complete_3_uniform_not_linear(self):
        # {0,1,2} and {0,1,3} share two vertices
        assert not is_linear(complete_uniform(4, 3))

    def test_hypertree_balls_linear(self):
        for (t, k, r) in [(3, 3, 2), (2, 3, 3), (4, 2, 2)]:
            assert is_linear(hypertree_ball(t, k, r))


class TestAcyclicity:
    def test_two_disjoint_edges(self):
        assert is_acyclic(Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]))

    def test_loose_cycle_not_acyclic(self):
        # Levi graph: 9 nodes, 9 links, connected => contains a cycle
        assert not is_acyclic(loose_cycle3())

    def test_hypertree_ball_acyclic(self):
        assert is_acyclic(hypertree_ball(3, 3, 3))

    def test_acyclic_implies_linear(self):
        instances = [
            hypertree_ball(3, 3, 2),
            loose_path(3),
            Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]),
            loose_cycle3(),
            cycle_graph(6),
            complete_uniform(4, 3),
        ]
        for h in instances:
            if is_acyclic(h):
                assert is_linear(h)


class TestDistances:
    def test_source_distance_zero(self):
        for h in (loose_path(3), cycle_graph(7)):
            for o in range(h.n):
                assert distances_from(h, o).dist[o] == 0

    def test_single_edge_distance_one(self):
        dm = distances_from(Hypergraph(3, 3, [(0, 1, 2)]), 0)
        assert dm.dist[2] == 1

    def test_loose_path_by_hand(self):
        # {0,1,2},{2,3,4}: dist(0,4) = 2
        dm = distances_from(loose_path(2), 0)
        assert dm.dist[4] == 2
        assert list(dm.dist) == [0, 1, 1, 2, 2]

    def test_unreachable_marker(self):
        h = Hypergraph(5, 2, [(0, 1), (2, 3)])
        dm = distances_from(h, 0)
        assert dm.dist[4] == UNREACHABLE
        assert not dm.complete

    def test_edge_spread_at_most_one(self):
        # all vertices of an edge lie within one BFS layer of each other
        for seed in range(5):
            h = random_regular_linear(3, 3, 24, seed)
            dm = distances_from(h, 0)
            for edge in h.edges:
                vals = dm.dist[list(edge)]
                assert vals.max() - vals.min() <= 1

    def test_bfs_recurrence(self):
        # dist[v] = 1 + min over edges at v of min dist of the others
        h = random_regular_linear(2, 3, 16, 1)
        dm = distances_from(h, 3)
        for v in range(h.n):
            if v == 3:
                continue
            best = min(
                min(dm.dist[u] for u in h.edges[e] if u != v)
                for e in range(h.m) if v in h.edges[e]
            )
            assert dm.dist[v] == best + 1

    def test_layers_partition_vertices(self):
        h = hypertree_ball(3, 2, 3)
        dm = distances_from(h, 0)
        ecc = dm.eccentricity
        total = sum(len(np.flatnonzero(dm.dist == i)) for i in range(ecc + 1))
        assert total == h.n
        assert len(dm.ball(ecc)) == h.n

    def test_hypertree_layers_contiguous(self):
        h = hypertree_ball(3, 3, 2)
        dm = distances_from(h, 0)
        assert list(np.flatnonzero(dm.dist == 1)) == list(range(1, 7))
        assert list(np.flatnonzero(dm.dist == 2)) == list(range(7, 31))


class TestDiameter:
    def test_single_edge(self):
        assert diameter_and_path(Hypergraph(3, 3, [(0, 1, 2)]))[0] == 1

    def test_complete_3_uniform(self):
        # every pair shares an edge
        assert diameter_and_path(complete_uniform(4, 3))[0] == 1

    @pytest.mark.parametrize("edges", [1, 2, 4, 7])
    def test_loose_path_diameter(self, edges):
        d, path = diameter_and_path(loose_path(edges))
        assert d == edges
        assert len(path) == d + 1

    def test_path_is_valid_walk(self):
        for h in (cycle_graph(9), hypertree_ball(3, 3, 2), loose_cycle3()):
            d, path = diameter_and_path(h)
            assert len(path) == d + 1
            for a, b in zip(path, path[1:]):
                shared = [e for e in h.edges if a in e and b in e]
                assert shared, f"{a} and {b} share no edge"

    def test_cycle_diameter(self):
        assert diameter_and_path(cycle_graph(12))[0] == 6
        assert diameter_and_path(cycle_graph(13))[0] == 6

    def test_hypertree_ball_diameter(self):
        assert diameter_and_path(hypertree_ball(3, 3, 2))[0] == 4

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            diameter_and_path(Hypergraph(4, 2, [(0, 1), (2, 3)]))

    def test_deterministic_path(self):
        h = cycle_graph(8)
        assert diameter_and_path(h) == diameter_and_path(h)

    def test_single_vertex(self):
        assert diameter_and_path(Hypergraph(1, 2, [])) == (0, [0])


def test_min_eccentricity_vertex():
    # path graph P5: the middle vertex is the unique center
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert min_eccentricity_vertex(h) == 2
    # hypertree ball: the root
    assert min_eccentricity_vertex(hypertree_ball(3, 3, 2)) == 0


def test_min_eccentricity_vertex_disconnected_raises():
    with pytest.raises(NotConnectedError):
        min_eccentricity_vertex(Hypergraph(5, 2, [(0, 1), (1, 2)]))


def test_distances_from_isolated_vertex():
    # vertex 2 lies in no edge: an empty CSR row between two full ones
    h = Hypergraph(5, 2, [(0, 1), (3, 4)])
    assert distances_from(h, 2).dist.tolist() == [-1, -1, 0, -1, -1]
    assert distances_from(h, 0).dist.tolist() == [0, 1, -1, -1, -1]


def test_permutation_relabel_preserves_structure():
    rng = np.random.default_rng(0)
    h = random_regular_linear(3, 3, 18, 2)
    perm = rng.permutation(h.n)
    relabeled = Hypergraph(h.n, h.t, [tuple(perm[list(e)]) for e in h.edges])
    assert sorted(relabeled.degrees) == sorted(h.degrees)
    assert is_linear(relabeled) == is_linear(h)
    assert is_acyclic(relabeled) == is_acyclic(h)
    assert diameter_and_path(relabeled)[0] == diameter_and_path(h)[0]
