"""Solver tests against brute-force and dense-matrix oracles."""

import mpmath
import numpy as np
import pytest

from hgspec import (Hypergraph, NoConvergence, NotConnectedError,
                    SolverConfig, adjacency_form, apply_adjacency,
                    complete_uniform, hypertree_ball, lambda2_estimate,
                    random_regular_linear, spectral_radius, t_norm)

from conftest import (adjacency_matrix, cycle_graph, layer_perron_value,
                      path_graph, petersen, random_connected_graph)


def brute_force_single_edge_radius():
    """Grid maximization of 3*x0*x1*x2 over the nonnegative unit 3-norm
    sphere, parameterized by the weight simplex (a, b, c) = (x0^3, x1^3, x2^3).
    Independent of the solver."""
    best = 0.0
    steps = 200
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            a = i / steps
            b = j / steps
            c = max(1.0 - a - b, 0.0)
            best = max(best, 3.0 * (a * b * c) ** (1.0 / 3.0))
    return best


class TestSpectralRadius:
    def test_single_edge_unit_value(self):
        # oracle: brute-force grid gives 1.0 (attained at equal weights)
        oracle = brute_force_single_edge_radius()
        assert oracle == pytest.approx(1.0, abs=1e-4)
        h = Hypergraph(3, 3, [(0, 1, 2)])
        res = spectral_radius(h)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_complete_3_uniform_is_regular_value(self):
        res = spectral_radius(complete_uniform(4, 3))
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_path_graph_sqrt2(self):
        h = path_graph(3)
        oracle = float(np.linalg.eigvalsh(adjacency_matrix(h))[-1])
        assert oracle == pytest.approx(np.sqrt(2), abs=1e-12)
        assert spectral_radius(h).value == pytest.approx(oracle, abs=1e-9)

    def test_result_contract(self):
        h = complete_uniform(5, 2)
        res = spectral_radius(h)
        assert t_norm(res.vector, 2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.vector >= 0)
        assert res.residual <= 1e-10
        assert res.iterations >= 1
        # value recovered as the form at the fixed point
        assert adjacency_form(h, res.vector) == pytest.approx(res.value,
                                                              rel=1e-12)

    @pytest.mark.parametrize("t,k,n,seed", [(3, 3, 18, 0), (3, 4, 18, 1),
                                            (4, 3, 16, 2), (2, 4, 15, 3)])
    def test_regular_gives_k(self, t, k, n, seed):
        h = random_regular_linear(t, k, n, seed)
        assert spectral_radius(h).value == pytest.approx(k, abs=1e-9)

    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    @pytest.mark.parametrize("build,ball", [
        pytest.param(lambda: path_graph(4), None, id="path4"),
        pytest.param(lambda: cycle_graph(7), None, id="cycle7"),
        pytest.param(petersen, None, id="petersen"),
        pytest.param(lambda: random_connected_graph(9, 0.4, 5), None,
                     id="gnp9"),
        pytest.param(lambda: hypertree_ball(3, 3, 2), (3, 3, 2), id="ball332"),
        pytest.param(lambda: hypertree_ball(4, 3, 2), (4, 3, 2), id="ball432"),
        pytest.param(lambda: hypertree_ball(2, 3, 4), (2, 3, 4), id="ball234"),
    ])
    def test_bracket_contains_oracle(self, build, ball, tol):
        # the Collatz-Wielandt bracket, recomputed from the returned vector
        # with the public operator, holds rho; the oracle is eigvalsh for
        # graphs and the layer map (t, k, r) for balls
        h = build()
        if ball is None:
            oracle = float(np.linalg.eigvalsh(adjacency_matrix(h))[-1])
        else:
            oracle = float(layer_perron_value(*ball))
        res = spectral_radius(h, SolverConfig(tol=tol))
        x = res.vector
        assert np.all(x > 0)
        ratios = apply_adjacency(h, x) / x ** (h.t - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
        assert res.residual == (hi - lo) / hi <= tol
        assert lo <= res.value <= hi
        slack = 4 * np.spacing(hi)
        assert lo - slack <= oracle <= hi + slack

    @pytest.mark.parametrize("t,r", [(3, r) for r in range(1, 7)]
                             + [(4, r) for r in range(1, 5)])
    def test_ball_matches_layer_map_oracle(self, t, r):
        res = spectral_radius(hypertree_ball(t, 3, r))
        oracle = layer_perron_value(t, 3, r)
        err = float(abs(mpmath.mpf(res.value) - oracle))
        assert err <= res.residual * res.value + 4 * np.spacing(res.value)

    def test_edge_addition_never_decreases(self):
        rng = np.random.default_rng(11)
        h = random_regular_linear(3, 3, 18, 6)
        base = spectral_radius(h).value
        existing = set(h.edges)
        while True:
            cand = tuple(sorted(rng.choice(h.n, size=3, replace=False).tolist()))
            if cand not in existing:
                break
        grown = Hypergraph(h.n, h.t, list(h.edges) + [cand])
        assert spectral_radius(grown).value >= base - 1e-9

    def test_determinism_bitwise(self):
        h = random_regular_linear(3, 3, 24, 9)
        a = spectral_radius(h)
        b = spectral_radius(h)
        assert a.value == b.value
        assert a.vector.tobytes() == b.vector.tobytes()
        assert (a.iterations, a.residual) == (b.iterations, b.residual)

    def test_not_connected(self):
        with pytest.raises(NotConnectedError):
            spectral_radius(Hypergraph(4, 2, [(0, 1), (2, 3)]))

    def test_no_convergence(self):
        cfg = SolverConfig(tol=1e-30, max_iters=3)
        with pytest.raises(NoConvergence) as err:
            spectral_radius(path_graph(3), cfg)
        assert err.value.iterations == 3
        assert err.value.residual > 0

    def test_single_vertex(self):
        res = spectral_radius(Hypergraph(1, 2, []))
        assert res.value == 0.0


class TestLambda2:
    def test_k4_is_one(self):
        # dense oracle: A - (3/4)J has eigenvalues {0, -1, -1, -1}
        h = complete_uniform(4, 2)
        b = adjacency_matrix(h) - (2 * h.m / 16) * np.ones((4, 4))
        assert max(abs(np.linalg.eigvalsh(b))) == pytest.approx(1.0, abs=1e-12)
        assert lambda2_estimate(h).value == pytest.approx(1.0, abs=1e-9)

    def test_petersen_is_two(self):
        h = petersen()
        b = adjacency_matrix(h) - (2 * h.m / 100) * np.ones((10, 10))
        assert max(abs(np.linalg.eigvalsh(b))) == pytest.approx(2.0, abs=1e-12)
        assert lambda2_estimate(h).value == pytest.approx(2.0, abs=1e-8)

    def test_matches_dense_oracle_on_random_graphs(self):
        for seed in range(6):
            h = random_connected_graph(8 + seed % 4, 0.45, 300 + seed)
            a = adjacency_matrix(h)
            b = a - (2 * h.m / h.n ** 2) * np.ones((h.n, h.n))
            oracle = float(np.max(np.abs(np.linalg.eigvalsh(b))))
            est = lambda2_estimate(h)
            assert est.value == pytest.approx(oracle, abs=1e-6)

    def test_result_is_feasible_point_value(self):
        from hgspec import shifted_form
        h = petersen()
        res = lambda2_estimate(h)
        v = res.vector
        assert t_norm(v, 2) == pytest.approx(1.0, abs=1e-10)
        assert abs(shifted_form(h, v)) == pytest.approx(res.value, rel=1e-10)

    def test_determinism_bitwise(self):
        h = random_regular_linear(2, 3, 14, 4)
        a = lambda2_estimate(h)
        b = lambda2_estimate(h)
        assert a.value == b.value
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_seed_changes_restart_stream(self):
        h = petersen()
        a = lambda2_estimate(h, SolverConfig(restarts=4, seed=0))
        b = lambda2_estimate(h, SolverConfig(restarts=4, seed=123))
        # same optimum found from different streams
        assert a.value == pytest.approx(b.value, abs=1e-8)

    def test_complex_search_flag(self):
        h = complete_uniform(4, 2)
        res = lambda2_estimate(h, SolverConfig(restarts=8, complex_search=True))
        assert np.iscomplexobj(res.vector)
        assert res.value == pytest.approx(1.0, abs=1e-7)

    def test_not_connected(self):
        with pytest.raises(NotConnectedError):
            lambda2_estimate(Hypergraph(4, 2, [(0, 1), (2, 3)]))

    def test_no_convergence_with_tiny_budget(self):
        cfg = SolverConfig(tol=1e-30, max_iters=2, restarts=2)
        with pytest.raises(NoConvergence):
            lambda2_estimate(petersen(), cfg)

    def test_t3_estimate_dominates_uniform_candidate(self):
        from hgspec import shifted_form, t_norm_pow
        h = random_regular_linear(3, 3, 18, 8)
        rng = np.random.default_rng(0)
        est = lambda2_estimate(h, SolverConfig(restarts=16)).value
        for _ in range(20):
            y = rng.standard_normal(h.n)
            feasible = abs(shifted_form(h, y)) / t_norm_pow(y, 3)
            assert est >= feasible - 1e-8


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
