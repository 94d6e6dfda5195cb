"""Adjacency operator, multilinear form, and t-norm tests."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspec import (Hypergraph, adjacency_form, apply_adjacency,
                    complete_uniform, hypertree_ball, multi_center_vector,
                    random_regular_linear, shifted_form, t_norm, t_norm_pow)
from hgspec.forms import (_ShiftedForm, _edge_products, _magnitude,
                          _operator, _power, _product, _quotient, _root,
                          _support_form, _t_norm_of)
from hgspec.hypergraph import _equitable_partition

from conftest import (adjacency_matrix, cycle_graph, edge_tuples, loose_path,
                      partition_of, path_graph, random_connected_graph)
from test_properties import connected_hypergraphs

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
        relabeled = Hypergraph(h.n, h.t,
                               [tuple(perm[list(e)]) for e in edge_tuples(h)])
        xp = np.empty_like(x)
        xp[perm] = x
        assert np.allclose(apply_adjacency(relabeled, xp)[perm],
                           apply_adjacency(h, x), atol=1e-12)

    def test_edgeless_real_input_stays_float(self):
        # np.bincount of no weights gives integers
        out = apply_adjacency(Hypergraph(2, 2, []), [1.0, 2.0])
        assert out.dtype == np.float64 and np.array_equal(out, [0.0, 0.0])

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(ValueError):
            apply_adjacency(SINGLE, np.ones(4))
        with pytest.raises(ValueError):
            apply_adjacency(SINGLE, np.array([1.0, np.nan, 0.0]))


def loose_path_t(t, edges):
    """The t-uniform loose path: consecutive edges share one vertex."""
    step = t - 1
    return Hypergraph(step * edges + 1, t,
                      [range(step * e, step * e + t) for e in range(edges)])


def cumprod_partial_products(values):
    """Leave-one-out products of the rows of an (m, t) array, by
    np.cumprod along the rows."""
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
        # m disjoint edges: position (e, j) reads entry (e, j) of the
        # values (one more, isolated vertex when m = 0)
        h = Hypergraph(max(m * t, 1), t, np.arange(m * t).reshape(m, t))
        products = _operator(h, values.dtype)
        x = np.zeros(h.n)
        x[:m * t] = values.ravel()
        assert products.monomials(x).tobytes() == \
            _edge_products(values).tobytes() == \
            np.prod(values, axis=1).tobytes()
        products.apply()
        assert products._loo.tobytes() == \
            cumprod_partial_products(values).tobytes()

    @pytest.mark.parametrize("h", [
        random_regular_linear(3, 3, 300, 1), random_regular_linear(4, 3, 200, 5),
        hypertree_ball(3, 3, 5), complete_uniform(7, 3), cycle_graph(9)],
        ids=["rr300", "rr200_t4", "ball335", "K7_3", "C9"])
    def test_jacobian_at_x_is_the_operator(self, h):
        # M(x) x = A x^[t-1], and the Jacobian product at w = 1 is
        # (t-1) x M(x) x
        x = np.random.default_rng(3).uniform(0.2, 2.0, h.n)
        products = _operator(h, np.float64)
        products.monomials(x)
        jx = products.jacobian(np.ones(h.n))
        np.testing.assert_allclose(jx / ((h.t - 1) * x),
                                   apply_adjacency(h, x), rtol=1e-13)

    @pytest.mark.parametrize("h", [
        random_regular_linear(3, 3, 300, 1), hypertree_ball(3, 3, 5),
        hypertree_ball(4, 3, 3), complete_uniform(7, 3), path_graph(6),
        loose_path(9)],
        ids=["rr300", "ball335", "ball433", "K7_3", "P6", "loose9"])
    def test_cell_table_is_the_operator_on_cell_constant_vectors(self, h):
        # on the table of an equitable partition, A y and the Jacobian
        # products are those of the lifted vector y[cell] at every vertex
        part = _equitable_partition(h)
        cell, size = part.cell, part.size
        cells = _quotient(h, part)
        rng = np.random.default_rng(4)
        y, w = rng.uniform(0.2, 2.0, (2, size.size))
        cells.monomials(y)
        np.testing.assert_allclose(cells.apply()[cell],
                                   apply_adjacency(h, y[cell]), rtol=1e-13)
        jw = cells.jacobian(w)
        vertices = _operator(h, np.float64)
        vertices.monomials(y[cell])
        full = vertices.jacobian(w[cell])
        np.testing.assert_allclose(jw[cell], full, rtol=1e-13)
        assert size.sum() == h.n

    @pytest.mark.parametrize("h", [
        hypertree_ball(3, 3, 4), random_regular_linear(4, 3, 200, 5),
        complete_uniform(7, 3)], ids=["ball334", "rr200_t4", "K7_3"])
    def test_discrete_quotient_is_the_operator_bit_for_bit(self, h):
        # on singletons every vertex is its cell's representative, so the
        # cell table is the edge index in order, each position kept
        part = partition_of(np.arange(h.n))
        cells = _quotient(h, part)
        vertices = _operator(h, np.float64)
        rng = np.random.default_rng(5)
        x, w = rng.uniform(0.2, 2.0, (2, h.n))
        assert part.size.tobytes() == np.ones(h.n).tobytes()
        assert cells.t == vertices.t == h.t
        for products in (cells, vertices):
            products.monomials(x)
        assert cells.xe.tobytes() == vertices.xe.tobytes()
        assert cells.apply().tobytes() == vertices.apply().tobytes()
        assert cells.jacobian(w).tobytes() == vertices.jacobian(w).tobytes()

    @pytest.mark.parametrize("table", ["vertices", "ball", "irregular"])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_jacobian_bits_are_the_per_column_loop(self, t, table):
        # the Jacobian product against a restatement of a loop that forms
        # one leave-one-out column at a time: S_e = ((w_0 + w_1) + ...),
        # then (S_e - w_j) * x^e; the ball's layers and the loose path's
        # cells drop the targets of their non-representative positions
        if table == "irregular":
            h = loose_path_t(t, 7)
        else:
            h = hypertree_ball(t, 3, 3)
        if table == "vertices":
            products = _operator(h, np.float64)
            bins = h.n
        else:
            part = _equitable_partition(h)
            products = _quotient(h, part)
            bins = part.size.size
            assert bins < h.n
            assert np.any(products._targets == bins)
        rng = np.random.default_rng(t)
        x = rng.uniform(0.2, 2.0, bins)
        w = rng.standard_normal(bins)
        w[rng.random(bins) < 0.2] = -0.0
        products.monomials(x)
        products.apply()
        vals = w[products._index]
        sums = vals[0] + vals[1]
        for row in vals[2:]:
            sums += row
        loo = np.empty((vals.shape[1], t))
        for j in range(t):
            loo[:, j] = (sums - vals[j]) * products.xe
        want = np.bincount(products._targets, loo.ravel(), bins + 1)[:bins]
        assert products.jacobian(w).tobytes() == want.tobytes()


class TestShiftedFormEvaluator:
    @pytest.mark.parametrize("complex_entries", [False, True],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("h", [
        cycle_graph(9), random_regular_linear(3, 3, 300, 1),
        random_regular_linear(4, 3, 200, 5), complete_uniform(7, 5)],
        ids=["C9", "rr300", "rr200_t4", "K7_5"])
    def test_bits_of_the_public_kernels(self, h, complex_entries):
        # the value is the public shifted form and the gradient
        # t (A x - (t m / n) (sum x / n)^(t-1)) from the public operator,
        # bit for bit, at the point of the last value call, zeros of
        # either sign included
        rng = np.random.default_rng(11)
        x = rng.standard_normal(h.n)
        if complex_entries:
            x = x + 1j * rng.standard_normal(h.n)
        x[rng.random(h.n) < 0.1] = -0.0
        x[rng.random(h.n) < 0.1] = 0.0
        t, m, n = h.t, h.m, h.n
        form = _ShiftedForm(h, x.dtype)
        for y in (x, -2 * x):
            form.value(rng.standard_normal(h.n).astype(x.dtype))
            total = complex(y.sum()) if complex_entries else float(y.sum())
            mean = total / n
            assert form.value(y) == adjacency_form(h, y) - t * m * mean ** t
            expected = t * (apply_adjacency(h, y)
                            - t * m / n * mean ** (t - 1))
            assert form.gradient().tobytes() == expected.tobytes()


class TestExactArithmetic:
    """The helpers that keep the bits of every CPU alike."""

    @pytest.mark.parametrize("k", range(7))
    def test_power_multiplies_from_the_left(self, k):
        base = np.random.default_rng(k).uniform(0.1, 3.0, 500)
        expected = np.ones_like(base)
        if k:
            expected = base.copy()
            for _ in range(k - 1):
                expected = expected * base
        assert _power(base, k).tobytes() == expected.tobytes()
        out = np.empty_like(base)
        assert _power(base, k, out) is out
        assert out.tobytes() == expected.tobytes()
        if k == 2:
            assert out.tobytes() == (base ** 2).tobytes()

    def test_complex_product_rounds_each_product(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 300)) + 1j * rng.standard_normal(
            (2, 300))
        expected = np.array([
            complex(p.real * q.real - p.imag * q.imag,
                    p.real * q.imag + p.imag * q.real)
            for p, q in zip(a.tolist(), b.tolist())])
        assert _product(a, b, np.empty_like(a)).tobytes() == \
            expected.tobytes()
        scalar = complex(a[0])
        assert _product(scalar, b, b.copy()).tobytes() == np.array([
            complex(scalar.real * q.real - scalar.imag * q.imag,
                    scalar.real * q.imag + scalar.imag * q.real)
            for q in b.tolist()]).tobytes()
        # out may be either factor
        first, second = a.copy(), b.copy()
        _product(first, b, first)
        _product(a, second, second)
        assert first.tobytes() == second.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 109, 399])
    def test_root_is_within_two_ulps(self, k):
        # the lambda2 step's |G|^(1/k), across the double range,
        # subnormals and exact powers included
        rng = np.random.default_rng(k)
        base = np.concatenate([10.0 ** rng.uniform(-300, 300, 200),
                               rng.uniform(0.0, 4.0, 100),
                               [0.0, 5e-324, 1e-310, 1.0, 2.0 ** k]])
        out = np.empty_like(base)
        assert _root(base, k, out) is out
        assert out[-5] == 0.0 and out[-2] == 1.0
        with mpmath.workdps(40):
            for b, r in zip(base[:-5].tolist() + base[-4:].tolist(),
                            out[:-5].tolist() + out[-4:].tolist()):
                exact = mpmath.root(mpmath.mpf(b), k)
                assert abs(mpmath.mpf(r) - exact) <= 2 * math.ulp(r)

    def test_magnitude_is_hypot(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(300) * 10.0 ** rng.uniform(-200, 200, 300) \
            + 1j * rng.standard_normal(300)
        mags = _magnitude(z)
        with mpmath.workdps(50):
            for v, mag in zip(z.tolist(), mags.tolist()):
                exact = mpmath.sqrt(mpmath.mpf(v.real) ** 2
                                    + mpmath.mpf(v.imag) ** 2)
                assert abs(mpmath.mpf(mag) - exact) <= math.ulp(mag)
        assert _magnitude(z.real).tobytes() == np.abs(z.real).tobytes()


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

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_weights_count_entries_as_cells(self, t):
        # entry v stands for weights[v] vertices of the same value
        rng = np.random.default_rng(t)
        x, size = rng.random(30) + 0.1, rng.integers(1, 9, 30)
        got = _t_norm_of(x.copy(), t, weights=size.astype(np.float64))
        assert got == pytest.approx(t_norm(np.repeat(x, size), t), rel=1e-14)


def value_bits(value):
    """The bits of the real and the imaginary part of a scalar."""
    z = complex(value)
    return np.float64(z.real).tobytes() + np.float64(z.imag).tobytes()


#: entries whose edge products are exact and cancel in pairs, zeros of
#: both signs among them
CANCELLING = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0])


class TestSupportForm:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_bits_of_the_dense_form_and_norm(self, data):
        # the form and the t-norm power of a vector that is +0.0 off its
        # support, from the edges at the support, against the dense
        # kernels on all of h: a zero total keeps its sign too
        h = data.draw(connected_hypergraphs(t_values=(2, 3, 4, 5),
                                            max_tree=4))
        kind = data.draw(st.sampled_from(["empty", "one", "subset", "all"]))
        if kind == "empty":
            support = np.zeros(0, dtype=np.int64)
        elif kind == "one":
            support = np.array([data.draw(st.integers(0, h.n - 1))])
        elif kind == "subset":
            support = np.flatnonzero(data.draw(st.lists(
                st.booleans(), min_size=h.n, max_size=h.n)))
        else:
            support = np.arange(h.n)
        entries = CANCELLING | st.floats(-2, 2)
        size = support.size
        values = np.array(data.draw(st.lists(entries, min_size=size,
                                             max_size=size)), dtype=float)
        if data.draw(st.booleans()):
            values = values + 1j * np.array(data.draw(st.lists(
                entries, min_size=size, max_size=size)))
        y = np.zeros(h.n, dtype=values.dtype)
        y[support] = values
        form = _support_form(h, y, support)
        assert value_bits(form) == value_bits(adjacency_form(h, y))
        # |y| on the support alone, as the multi-center quotient takes it
        mags = np.zeros(h.n)
        mags[support] = _magnitude(values)
        assert mags.tobytes() == _magnitude(y).tobytes()
        assert value_bits(t_norm_pow(mags, h.t)) == \
            value_bits(t_norm_pow(y, h.t))
