"""Hypergraph construction, predicates, and metric queries."""

import numpy as np
import pytest

from hgspec import (EdgeError, Hypergraph, NotConnectedError, UNREACHABLE,
                    complete_uniform, diameter_and_path,
                    distances_from, hypertree_ball, is_acyclic,
                    min_eccentricity_vertex, multi_center_vector,
                    parse_hypergraph, random_regular_linear, regular_degree)
from hgspec.cli import run_command
from hgspec.hypergraph import (_REFINE_ROUNDS, _equitable_partition,
                               _incident_edge_ids)

from conftest import (cycle_graph, edge_tuples, is_equitable, is_linear,
                      loose_cycle3, loose_path, path_graph, same_partition)
from test_properties import coarsest_equitable


class TestConstruction:
    def test_edges_sorted_and_canonical(self):
        h = Hypergraph(5, 3, [(4, 2, 0), (1, 3, 2)])
        assert edge_tuples(h) == ((0, 2, 4), (1, 2, 3))

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
            for edge in edge_tuples(h):
                vals = dm.dist[list(edge)]
                assert vals.max() - vals.min() <= 1

    def test_bfs_recurrence(self):
        # dist[v] = 1 + min over edges at v of min dist of the others
        h = random_regular_linear(2, 3, 16, 1)
        dm = distances_from(h, 3)
        edges = edge_tuples(h)
        for v in range(h.n):
            if v == 3:
                continue
            best = min(min(dm.dist[u] for u in edge if u != v)
                       for edge in edges if v in edge)
            assert dm.dist[v] == best + 1

    def test_layers_partition_vertices(self):
        h = hypertree_ball(3, 2, 3)
        dm = distances_from(h, 0)
        ecc = dm.eccentricity
        total = sum(len(np.flatnonzero(dm.dist == i)) for i in range(ecc + 1))
        assert total == h.n
        assert len(dm.ball(ecc)) == h.n

    def test_layer_sizes_count_each_layer(self):
        # unreachable vertices lie in no layer; layers past the
        # eccentricity are empty
        dm = distances_from(Hypergraph(6, 2, [(0, 1), (1, 2), (3, 4)]), 0)
        assert dm.layer_sizes(4) == [1, 1, 1, 0, 0]
        assert dm.layer_sizes(1) == [1, 1]
        assert dm.layer_sizes(-1) == []
        assert all(type(size) is int for size in dm.layer_sizes(4))

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
                shared = [e for e in edge_tuples(h) if a in e and b in e]
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


#: two disjoint edges and an isolated vertex
DISCONNECTED = "3 7 2\n0 1 2\n3 4 5\n"


@pytest.mark.parametrize("search", [diameter_and_path, min_eccentricity_vertex,
                                    multi_center_vector],
                         ids=lambda f: f.__name__)
def test_disconnected_input_meets_the_one_guard(search):
    with pytest.raises(NotConnectedError,
                       match=" require a connected hypergraph$"):
        search(parse_hypergraph(DISCONNECTED))


@pytest.mark.parametrize("check", ["radial", "alon-boppana"])
def test_verify_disconnected_input_is_one_line(check, tmp_path, capsys):
    path = tmp_path / "disconnected.txt"
    path.write_text(DISCONNECTED)
    assert run_command(["verify", str(path), "--check", check]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hgspec: ") and err.count("\n") == 1
    assert err.endswith(" require a connected hypergraph\n")


def test_distances_from_isolated_vertex():
    # vertex 2 lies in no edge: an empty CSR row between two full ones
    h = Hypergraph(5, 2, [(0, 1), (3, 4)])
    assert distances_from(h, 2).dist.tolist() == [-1, -1, 0, -1, -1]
    assert distances_from(h, 0).dist.tolist() == [0, 1, -1, -1, -1]


def test_distances_from_radius_bounds():
    h = cycle_graph(6)
    assert distances_from(h, 0, 0).dist.tolist() == [0, -1, -1, -1, -1, -1]
    assert distances_from(h, 0, 2).dist.tolist() == [0, 1, 2, -1, 2, 1]
    with pytest.raises(ValueError, match="radius"):
        distances_from(h, 0, -1)


def test_permutation_relabel_preserves_structure():
    rng = np.random.default_rng(0)
    h = random_regular_linear(3, 3, 18, 2)
    perm = rng.permutation(h.n)
    relabeled = Hypergraph(h.n, h.t,
                           [tuple(perm[list(e)]) for e in edge_tuples(h)])
    assert sorted(relabeled.degrees) == sorted(h.degrees)
    assert is_acyclic(relabeled) == is_acyclic(h)
    assert diameter_and_path(relabeled)[0] == diameter_and_path(h)[0]


def reference_construction(n, t, rows):
    """The constructor's sorts before the sorted-input shortcut, frozen:
    a lexsort of the row-sorted table and a stable argsort for the CSR.

    Returns (edge array, indptr, indices), or the input index of the
    first later copy of an edge."""
    table = np.array(rows, dtype=np.int64).reshape(-1, t)
    table.sort(axis=1)
    seen = set()
    for i, row in enumerate(map(tuple, table.tolist())):
        if row in seen:
            return i
        seen.add(row)
    table = table[np.lexsort(table.T[::-1])]
    flat = table.ravel()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n), out=indptr[1:])
    return table, indptr, np.argsort(flat, kind="stable") // t


def random_rows(rng, n, t, m, order, duplicate):
    """m distinct t-subsets of range(n): in emitted order, or shuffled
    within and across rows; ``duplicate`` inserts a reordered copy."""
    rows = sorted({tuple(sorted(rng.choice(n, t, replace=False).tolist()))
                   for _ in range(m)})
    if order == "shuffled":
        rows = [tuple(rng.permutation(rows[i]).tolist())
                for i in rng.permutation(len(rows)).tolist()]
    if duplicate and rows:
        copy = tuple(rng.permutation(rows[rng.integers(len(rows))]).tolist())
        rows.insert(int(rng.integers(len(rows) + 1)), copy)
    return rows


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("duplicate", [False, True])
def test_construction_matches_frozen_sorts(t, order, duplicate):
    rng = np.random.default_rng(t)
    for m in [0, 1, 2, 5, 40, 300]:
        for n in [t, t + 3, 60]:
            rows = random_rows(rng, n, t, m, order, duplicate)
            want = reference_construction(n, t, rows)
            for edges in (rows, np.array(rows, dtype=np.int64).reshape(-1, t)):
                if isinstance(want, int):
                    with pytest.raises(EdgeError) as info:
                        Hypergraph(n, t, edges)
                    assert (info.value.index, info.value.kind) == (
                        want, "duplicate")
                    continue
                h = Hypergraph(n, t, edges)
                for got, ref in zip((h.edge_array, h._indptr, h._indices),
                                    want):
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [10, 2 ** 40, 2 ** 62])
def test_incident_edge_ids_at_every_key_range(n):
    # at n = 2**62 the keys vertex * m + edge would overflow int64
    rng = np.random.default_rng(1)
    edges = np.argsort(rng.random((5000, 10)), axis=1)[:, :3]  # distinct
    assert np.array_equal(_incident_edge_ids(edges, n),
                          np.argsort(edges.ravel(), kind="stable") // 3)


class TestEquitablePartition:
    @pytest.mark.parametrize("t,k,r", [(3, 3, 1), (3, 3, 5), (3, 3, 8),
                                       (4, 3, 4), (2, 3, 6), (3, 2, 7)])
    def test_ball_cells_are_the_bfs_layers(self, t, k, r):
        h = hypertree_ball(t, k, r)
        cell = _equitable_partition(h).cell
        assert cell.max() + 1 == r + 1
        assert same_partition(cell, distances_from(h, 0).dist)
        if h.n < 2000:
            assert is_equitable(h, cell)

    @pytest.mark.parametrize("h", [
        random_regular_linear(3, 3, 300, 1), random_regular_linear(4, 3, 200, 5),
        random_regular_linear(2, 3, 50, 0), complete_uniform(7, 3),
        complete_uniform(5, 2), cycle_graph(9)],
        ids=["rr300", "rr200_t4", "rr50_t2", "K7_3", "K5", "C9"])
    def test_regular_inputs_have_one_cell(self, h):
        assert not _equitable_partition(h).cell.any()

    def test_path_folds_onto_its_middle(self):
        cell = _equitable_partition(path_graph(5)).cell
        assert same_partition(cell, [0, 1, 2, 1, 0])
        assert is_equitable(path_graph(5), cell)

    def test_asymmetric_tree_is_discrete(self):
        # the 7-vertex tree with no automorphism but the identity
        h = Hypergraph(7, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                              (2, 6)])
        assert sorted(_equitable_partition(h).cell) == list(range(7))

    def test_single_vertex(self):
        assert _equitable_partition(Hypergraph(1, 2, [])).cell.tolist() == [0]

    def test_gives_up_after_the_round_bound(self):
        # a loose path of E edges folds onto its middle in E/2 + 1 rounds
        short = loose_path(_REFINE_ROUNDS)
        assert same_partition(_equitable_partition(short).cell,
                              coarsest_equitable(short))
        long = loose_path(4 * _REFINE_ROUNDS)
        assert _equitable_partition(long).cell.tolist() == list(range(long.n))
