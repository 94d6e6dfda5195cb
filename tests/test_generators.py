"""Generator family tests: counts, predicates, determinism."""

import numpy as np
import pytest

from hgspec import (GenerationFailed, InfeasibleParams, SizeOverflow,
                    complete_uniform, distances_from,
                    hypertree_ball, is_acyclic, is_linear,
                    random_regular_linear, regular_degree)
from hgspec.generators import _fisher_yates


class TestHypertreeBall:
    def test_radius_zero(self):
        h = hypertree_ball(3, 3, 0)
        assert (h.n, h.m) == (1, 0)

    def test_radius_one_counts(self):
        # 1 + k(t-1) vertices, k edges
        h = hypertree_ball(3, 3, 1)
        assert (h.n, h.m) == (7, 3)

    def test_radius_two_counts(self):
        # layers 6 and 24; edges 3 + 6*(k-1)*... = 15
        h = hypertree_ball(3, 3, 2)
        assert (h.n, h.m) == (31, 15)

    @pytest.mark.parametrize("t,k,r", [(3, 3, 3), (2, 3, 4), (4, 2, 3),
                                       (3, 2, 4)])
    def test_layer_size_formula(self, t, k, r):
        h = hypertree_ball(t, k, r)
        dm = distances_from(h, 0)
        sizes = dm.layer_sizes(r)
        assert sizes[0] == 1
        for i in range(1, r + 1):
            assert sizes[i] == k * (k - 1) ** (i - 1) * (t - 1) ** i
        assert sum(sizes) == h.n

    def test_structure(self):
        h = hypertree_ball(3, 3, 3)
        assert is_acyclic(h)
        assert is_linear(h)
        assert h.is_connected
        # interior degrees k, leaf layer degree 1
        dm = distances_from(h, 0)
        deg = h.degrees
        for v in range(h.n):
            expected = 3 if dm.dist[v] < 3 else 1
            assert deg[v] == expected

    def test_k1_is_single_edge(self):
        h = hypertree_ball(3, 1, 5)
        assert (h.n, h.m) == (3, 1)

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow):
            hypertree_ball(3, 3, 4, max_vertices=100)

    def test_bad_params(self):
        with pytest.raises(InfeasibleParams):
            hypertree_ball(1, 3, 2)
        with pytest.raises(InfeasibleParams):
            hypertree_ball(3, 3, -1)


class TestCompleteUniform:
    def test_single_edge_case(self):
        h = complete_uniform(3, 3)
        assert (h.n, h.m) == (3, 1)

    def test_4_choose_3(self):
        h = complete_uniform(4, 3)
        assert h.m == 4
        assert regular_degree(h) == 3

    def test_k5(self):
        h = complete_uniform(5, 2)
        assert h.m == 10
        assert regular_degree(h) == 4

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow):
            complete_uniform(40, 10, max_edges=1000)

    def test_n_below_t(self):
        with pytest.raises(InfeasibleParams):
            complete_uniform(2, 3)


class TestRandomRegularLinear:
    def test_postconditions(self):
        for (t, k, n, seed) in [(3, 3, 18, 0), (3, 2, 9, 7), (2, 3, 16, 1),
                                (4, 3, 24, 2)]:
            h = random_regular_linear(t, k, n, seed)
            assert h.n == n and h.t == t
            assert h.m == n * k // t
            assert regular_degree(h) == k
            assert is_linear(h)
            assert h.is_connected

    def test_seeded_determinism(self):
        a = random_regular_linear(3, 2, 9, 7)
        b = random_regular_linear(3, 2, 9, 7)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_regular_linear(3, 3, 30, 0)
        b = random_regular_linear(3, 3, 30, 1)
        assert a.edges != b.edges

    def test_divisibility_check(self):
        with pytest.raises(InfeasibleParams):
            random_regular_linear(3, 2, 10, 0)  # 20 not divisible by 3

    def test_generation_failure_on_impossible_corner(self):
        # n = t forces every edge to be the full vertex set; k = 2 would
        # need a duplicate edge, so every attempt is rejected
        with pytest.raises(GenerationFailed):
            random_regular_linear(3, 2, 3, 0, max_attempts=50)



def reference_fisher_yates(rng, items):
    """The earlier shuffle, verbatim: one rng.integers call per index."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 10, 90_000])
@pytest.mark.parametrize("seed", [0, 7])
def test_shuffle_matches_scalar_reference(length, seed):
    # the one-call shuffle draws the same indices from the same stream
    # and leaves the generator in the same state
    got, want = list(range(length)), list(range(length))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _fisher_yates(rng, got)
    reference_fisher_yates(ref_rng, want)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
