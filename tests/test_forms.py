"""Adjacency operator, multilinear form, and t-norm tests."""

import numpy as np
import pytest

from hgspec import (Hypergraph, adjacency_form, apply_adjacency,
                    complete_uniform, edge_contributions, hypertree_ball,
                    multi_center_vector, random_regular_linear, shifted_form,
                    t_norm, t_norm_pow)
from hgspec.forms import _edge_products, _jacobian, _partial_products

from conftest import adjacency_matrix, cycle_graph, random_connected_graph

SINGLE = Hypergraph(3, 3, [(0, 1, 2)])


class TestApply:
    def test_single_edge_ones(self):
        assert np.allclose(apply_adjacency(SINGLE, np.ones(3)), [1, 1, 1])

    def test_single_edge_hand_products(self):
        # pairwise products of (2,3,5)
        out = apply_adjacency(SINGLE, np.array([2.0, 3.0, 5.0]))
        assert np.array_equal(out, [15.0, 10.0, 6.0])

    def test_regular_all_ones_gives_degree(self):
        h = random_regular_linear(3, 4, 30, 0)
        assert np.allclose(apply_adjacency(h, np.ones(h.n)), 4.0)

    def test_t2_matches_matrix_multiplication(self):
        for seed in range(6):
            h = random_connected_graph(9, 0.4, seed)
            a = adjacency_matrix(h)
            x = np.random.default_rng(seed).standard_normal(h.n)
            assert np.allclose(apply_adjacency(h, x), a @ x, atol=1e-12)

    def test_zero_entries_no_shortcut_bias(self):
        x = np.array([0.0, 3.0, 5.0])
        assert np.array_equal(apply_adjacency(SINGLE, x), [15.0, 0.0, 0.0])

    def test_complex_input(self):
        x = np.array([1j, 2.0, 1.0 + 1j])
        out = apply_adjacency(SINGLE, x)
        assert out.dtype == np.complex128
        assert out[0] == 2.0 * (1.0 + 1j)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        h = random_regular_linear(3, 3, 18, 5)
        x = rng.standard_normal(h.n)
        perm = rng.permutation(h.n)
        relabeled = Hypergraph(h.n, h.t, [tuple(perm[list(e)]) for e in h.edges])
        xp = np.empty_like(x)
        xp[perm] = x
        assert np.allclose(apply_adjacency(relabeled, xp)[perm],
                           apply_adjacency(h, x), atol=1e-12)

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(ValueError):
            apply_adjacency(SINGLE, np.ones(4))
        with pytest.raises(ValueError):
            apply_adjacency(SINGLE, np.array([1.0, np.nan, 0.0]))


def cumprod_partial_products(values):
    """Frozen row-wise version of ``_partial_products`` (np.cumprod)."""
    t = values.shape[1]
    prefix = np.ones_like(values)
    suffix = np.ones_like(values)
    if t > 1:
        np.cumprod(values[:, :-1], axis=1, out=prefix[:, 1:])
        np.cumprod(values[:, :0:-1], axis=1, out=suffix[:, -2::-1])
    return prefix * suffix


class TestColumnKernels:
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [0, 1, 7, 5000])
    def test_bits_match_row_wise_products(self, t, m):
        rng = np.random.default_rng(10 * t + m)
        values = rng.standard_normal((m, t)) * np.exp(
            rng.uniform(-30, 30, (m, t)))
        values[rng.random((m, t)) < 0.05] = 0.0
        assert _partial_products(values).tobytes() == \
            cumprod_partial_products(values).tobytes()
        assert _edge_products(values).tobytes() == \
            np.prod(values, axis=1).tobytes()

    @pytest.mark.parametrize("h", [
        random_regular_linear(3, 3, 300, 1), random_regular_linear(4, 3, 200, 5),
        hypertree_ball(3, 3, 5), complete_uniform(7, 3), cycle_graph(9)],
        ids=["rr300", "rr200_t4", "ball335", "K7_3", "C9"])
    def test_jacobian_at_x_is_the_operator(self, h):
        # M(x) x = A x^[t-1], and _jacobian at w = 1 is (t-1) x M(x) x
        x = np.random.default_rng(3).uniform(0.2, 2.0, h.n)
        slots, sums = np.empty((h.m, h.t)), np.empty(h.m)
        jx = _jacobian(h, edge_contributions(h, x), np.ones(h.n), slots,
                       sums)
        np.testing.assert_allclose(jx / ((h.t - 1) * x),
                                   apply_adjacency(h, x), rtol=1e-13)


class TestForm:
    def test_single_edge_ones(self):
        assert adjacency_form(SINGLE, np.ones(3)) == 3.0

    def test_zero_vector(self):
        assert adjacency_form(SINGLE, np.zeros(3)) == 0.0

    def test_complete_uniform_normalized(self):
        # 3 * 4 * (1/4) by hand
        h = complete_uniform(4, 3)
        x = np.full(4, 4 ** (-1 / 3))
        assert adjacency_form(h, x) == pytest.approx(3.0, rel=1e-14)

    def test_homogeneity_degree_t(self):
        rng = np.random.default_rng(0)
        for t, k, n in [(2, 3, 12), (3, 3, 18), (4, 2, 16)]:
            h = random_regular_linear(t, k, n, 1)
            x = rng.standard_normal(n)
            c = 1.7
            assert adjacency_form(h, c * x) == pytest.approx(
                c ** t * adjacency_form(h, x), rel=1e-12)

    def test_inner_product_consistency(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            h = random_regular_linear(3, 3, 24, seed)
            x = rng.standard_normal(h.n)
            form = adjacency_form(h, x)
            dot = float(np.dot(x, apply_adjacency(h, x)))
            assert abs(form - dot) <= 1e-12 * max(1.0, abs(form))

    def test_edge_contributions_order(self):
        h = Hypergraph(4, 2, [(0, 1), (2, 3)])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(edge_contributions(h, x), [2.0, 12.0])

    @pytest.mark.parametrize("case", ["random-x-ball-2-3-12",
                                      "multi-center-ball-3-3-8"])
    def test_pairwise_sum_against_mpmath(self, case):
        # forms of 12,285 and 65,535 edges against a 50-digit sum
        mpmath = pytest.importorskip("mpmath")
        if case.startswith("random"):
            h = hypertree_ball(2, 3, 12)
            x = np.random.default_rng(2).standard_normal(h.n)
        else:
            h = hypertree_ball(3, 3, 8)
            x = multi_center_vector(h, k=3).vector
        with mpmath.workdps(50):
            xs = [mpmath.mpmathify(complex(v)) for v in x]
            exact = h.t * mpmath.fsum(mpmath.fprod(xs[u] for u in e)
                                      for e in h.edge_array.tolist())
            computed = mpmath.mpmathify(complex(adjacency_form(h, x)))
            rel = abs(computed - exact) / abs(exact)
        assert rel <= 1e-13


class TestShiftedForm:
    def test_regular_all_ones_vanishes(self):
        for (t, k, n, seed) in [(3, 3, 18, 0), (2, 3, 12, 1)]:
            h = random_regular_linear(t, k, n, seed)
            assert shifted_form(h, np.ones(n)) == pytest.approx(0.0, abs=1e-10)

    def test_zero_sum_vector_equals_plain_form(self):
        rng = np.random.default_rng(4)
        h = cycle_graph(10)
        x = rng.standard_normal(10)
        x -= x.mean()
        assert shifted_form(h, x) == pytest.approx(adjacency_form(h, x),
                                                   rel=1e-12)

    def test_k4_hand_value(self):
        # A-form = 2 * (-1), J-term 0
        h = complete_uniform(4, 2)
        x = np.array([1.0, -1.0, 0.0, 0.0])
        assert shifted_form(h, x) == pytest.approx(-2.0, abs=1e-14)

    def test_matches_dense_matrix_oracle(self):
        for seed in range(4):
            h = random_connected_graph(8, 0.5, 100 + seed)
            a = adjacency_matrix(h)
            b = a - (2 * h.m / h.n ** 2) * np.ones((h.n, h.n))
            x = np.random.default_rng(seed).standard_normal(h.n)
            assert shifted_form(h, x) == pytest.approx(float(x @ b @ x),
                                                       rel=1e-11)


class TestTNorm:
    def test_basis_vector(self):
        e = np.zeros(7)
        e[3] = 1.0
        assert t_norm(e, 4) == 1.0

    def test_all_ones(self):
        assert t_norm(np.ones(8), 3) == pytest.approx(8 ** (1 / 3), rel=1e-14)

    def test_euclidean_special_case(self):
        assert t_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0, abs=1e-14)

    def test_zero_vector(self):
        assert t_norm(np.zeros(5), 3) == 0.0

    def test_complex_modulus(self):
        z = np.array([3.0 + 4.0j])
        assert t_norm(z, 2) == pytest.approx(5.0, abs=1e-14)

    def test_norm_pow_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(20)
        assert t_norm_pow(x, 3) == pytest.approx(t_norm(x, 3) ** 3, rel=1e-12)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            t_norm(np.ones(3), 1)
