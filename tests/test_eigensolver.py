"""Solver tests against brute-force and dense-matrix oracles, and the
lambda2 ascent against a frozen copy of the step-floor ascent it
replaced."""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgspec import (EigenResult, Hypergraph, NoConvergence,
                    NotConnectedError, SolverConfig, adjacency_form,
                    apply_adjacency, complete_uniform, eigensolver,
                    hypertree_ball, lambda2_estimate, random_regular_linear,
                    shifted_form, spectral_radius, t_norm)
from hgspec.forms import _shifted_grad

from conftest import (adjacency_matrix, cycle_graph, layer_perron_value,
                      path_graph, petersen, random_connected_graph)
from test_properties import PROPERTY, connected_graphs


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

    @pytest.mark.parametrize("build,cfg", [
        pytest.param(lambda: random_regular_linear(2, 3, 2000, 0),
                     SolverConfig(restarts=1), id="rr2000_t2"),
        pytest.param(lambda: Hypergraph(8, 2, [(0, 1), (0, 2), (0, 4),
                                               (0, 5), (1, 2), (1, 3),
                                               (2, 5), (3, 6), (4, 5),
                                               (4, 7)]),
                     SolverConfig(restarts=4, complex_search=True),
                     id="graph8_complex"),
    ])
    def test_long_ascent_keeps_a_finite_step(self, build, cfg):
        # thousands of accepted steps: with the step grown 1.25-fold on
        # each and no bound, it overflowed to inf, every later trial
        # point was NaN and the restarts ran out their budgets
        h = build()
        a = adjacency_matrix(h)
        b = a - (2 * h.m / h.n ** 2) * np.ones((h.n, h.n))
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(b))))
        res = lambda2_estimate(h, cfg)
        assert res.iterations < cfg.max_iters
        assert np.all(np.isfinite(res.vector))
        assert res.value == pytest.approx(oracle, abs=1e-9)

    def test_no_convergence_with_tiny_budget(self):
        cfg = SolverConfig(tol=1e-30, max_iters=2, restarts=2)
        with pytest.raises(NoConvergence):
            lambda2_estimate(petersen(), cfg)

    def test_t3_estimate_dominates_uniform_candidate(self):
        from hgspec import t_norm_pow
        h = random_regular_linear(3, 3, 18, 8)
        rng = np.random.default_rng(0)
        est = lambda2_estimate(h, SolverConfig(restarts=16)).value
        for _ in range(20):
            y = rng.standard_normal(h.n)
            feasible = abs(shifted_form(h, y)) / t_norm_pow(y, 3)
            assert est >= feasible - 1e-8


@pytest.mark.parametrize("complex_search", [False, True])
@pytest.mark.parametrize("build", [
    pytest.param(lambda: random_regular_linear(3, 3, 300, 1), id="rr300_s1"),
    pytest.param(lambda: random_regular_linear(4, 3, 200, 5),
                 id="rr200_t4_s5"),
    pytest.param(lambda: hypertree_ball(3, 3, 5), id="ball335"),
    pytest.param(lambda: complete_uniform(7, 3), id="K7_3"),
    pytest.param(lambda: random_regular_linear(3, 3, 3000, 0),
                 id="rr3000_s0"),
])
def test_value_is_the_public_form_at_the_vector(build, complex_search):
    # both solvers form x^e with the one kernel the public forms use, so
    # the reported value is the form at the returned vector, bit for bit
    h = build()
    cfg = SolverConfig(complex_search=complex_search)
    rho = spectral_radius(h, cfg)
    assert rho.value == adjacency_form(h, rho.vector)
    lam = lambda2_estimate(h, cfg)
    assert lam.value == abs(shifted_form(h, lam.vector))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


# --- the ascent against a frozen copy of the step-floor ascent it replaced

#: the replaced ascent's constants, frozen with it
REF_STEP_FLOOR = 1e-17
REF_GAIN_FLOOR = 1e-13


def reference_sphere_residual(x, f_abs, sigma_grad, t):
    if np.iscomplexobj(x):
        psi = np.abs(x) ** (t - 2) * x
    else:
        psi = np.sign(x) * np.abs(x) ** (t - 1)
    return float(np.max(np.abs(sigma_grad / t - f_abs * psi)))


def reference_ascend(h, x0, cfg, step_cap=np.inf):
    """The earlier ``eigensolver._ascend``, verbatim but for its names
    and ``step_cap``.

    It ended a restart only when step halving ran the step below
    ``REF_STEP_FLOOR``, and grew the step without bound; ``step_cap``
    bounds it as the ascent now does, so that the stop alone is compared.
    Its trials are evaluated with the public ``shifted_form``: the form
    has one product order, so that gives the bits of the private kernel
    the copy called.
    """
    t = h.t
    x = x0 / t_norm(x0, t)
    f, grad = _shifted_grad(h, x)
    evals = 1
    eta = 0.1
    converged = False
    residual = np.inf
    while evals < cfg.max_iters:
        if abs(f) == 0.0:
            sigma_grad = grad
        elif np.iscomplexobj(x):
            phase = np.conj(f) / abs(f)
            sigma_grad = np.conj(phase * grad)
        else:
            sigma_grad = grad if f >= 0 else -grad
        residual = reference_sphere_residual(x, abs(f), sigma_grad, t)
        if residual <= cfg.tol:
            converged = True
            break
        gnorm = float(np.sqrt(np.sum(np.abs(sigma_grad) ** 2)))
        if gnorm == 0.0:
            break
        direction = sigma_grad / gnorm
        accepted = False
        while evals < cfg.max_iters:
            y = x + eta * direction
            y /= t_norm(y, t)
            fy = shifted_form(h, y)
            evals += 1
            if abs(fy) > abs(f) * (1.0 + REF_GAIN_FLOOR):
                x = y
                f, grad = _shifted_grad(h, x)
                eta = min(eta * 1.25, step_cap)
                accepted = True
                break
            eta *= 0.5
            if eta < REF_STEP_FLOOR:
                break
        if not accepted:
            converged = eta < REF_STEP_FLOOR or residual <= cfg.tol
            break
    return EigenResult(value=float(abs(f)), vector=x, iterations=evals,
                       residual=residual), converged


def _restarts(monkeypatch, ascend, h, cfg):
    """lambda2_estimate run with ``ascend``, and each restart's result."""
    runs = []

    def recorded(*args):
        run = ascend(*args)
        runs.append(run)
        return run

    monkeypatch.setattr(eigensolver, "_ascend", recorded)
    best = lambda2_estimate(h, cfg)
    monkeypatch.undo()
    return best, runs


def _assert_matches(monkeypatch, reference, h, cfg):
    """Every restart reaches the reference's point in no more evaluations."""
    ref, ref_runs = _restarts(monkeypatch, reference, h, cfg)
    got, runs = _restarts(monkeypatch, eigensolver._ascend, h, cfg)
    assert (got.value, got.residual) == (ref.value, ref.residual)
    assert got.vector.tobytes() == ref.vector.tobytes()
    assert got.iterations <= ref.iterations
    assert len(runs) == len(ref_runs) == cfg.restarts
    for (run, converged), (ref_run, ref_converged) in zip(runs, ref_runs):
        assert (run.value, run.residual) == (ref_run.value, ref_run.residual)
        assert converged == ref_converged
        assert run.iterations <= ref_run.iterations


@pytest.mark.parametrize("build,cfg", [
    pytest.param(lambda: random_regular_linear(3, 3, 300, 1), SolverConfig(),
                 id="rr300_s1"),
    pytest.param(lambda: random_regular_linear(3, 3, 300, 2), SolverConfig(),
                 id="rr300_s2"),
    pytest.param(lambda: random_regular_linear(3, 3, 300, 3), SolverConfig(),
                 id="rr300_s3"),
    pytest.param(lambda: random_regular_linear(4, 3, 200, 5), SolverConfig(),
                 id="rr200_t4_s5"),
    pytest.param(lambda: random_regular_linear(4, 3, 200, 5),
                 SolverConfig(restarts=4, complex_search=True),
                 id="rr200_t4_s5_complex"),
    pytest.param(lambda: hypertree_ball(3, 3, 5), SolverConfig(),
                 id="ball335"),
    pytest.param(lambda: random_regular_linear(3, 3, 3000, 0), SolverConfig(),
                 id="rr3000_s0"),
])
def test_ascent_matches_step_floor_reference(monkeypatch, build, cfg):
    # on these inputs the step stays below the cap, and the stop on the
    # predicted gain ends each restart where the step floor ended it
    _assert_matches(monkeypatch, reference_ascend, build(), cfg)


#: the reference with the step bounded as the ascent bounds it
capped_reference = functools.partial(reference_ascend,
                                     step_cap=eigensolver._STEP_CAP)


@PROPERTY
@given(h=connected_graphs(), complex_search=st.booleans())
def test_stop_matches_step_floor_on_random_graphs(h, complex_search):
    # the stop is a first-order prediction; with the same step cap, it
    # ends every restart where halving down to the step floor ended it
    cfg = SolverConfig(restarts=4, complex_search=complex_search)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches(monkeypatch, capped_reference, h, cfg)


@pytest.mark.parametrize("complex_search", [False, True])
@pytest.mark.parametrize("t,k,n,seed", [
    (3, 3, 30, 0), (3, 3, 30, 5), (3, 2, 18, 1), (3, 2, 18, 2),
    (4, 3, 40, 0), (4, 2, 32, 1),
])
def test_stop_matches_step_floor_on_small_hypergraphs(monkeypatch, t, k, n,
                                                      seed, complex_search):
    # some of these restarts take the step past the cap
    cfg = SolverConfig(restarts=8, complex_search=complex_search)
    _assert_matches(monkeypatch, capped_reference,
                    random_regular_linear(t, k, n, seed), cfg)
