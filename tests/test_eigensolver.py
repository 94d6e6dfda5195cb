"""Solver tests against brute-force, dense-matrix and reduced-search
references, and the lambda2 runs against their stated rules: the
objective rises at every accepted step, and the evaluations stay within
the budget."""

import hashlib

import mpmath
import numpy as np
import pytest

from hgspec import (Hypergraph, NoConvergence,
                    NotConnectedError, SolverConfig, adjacency_form,
                    apply_adjacency, complete_uniform, eigensolver, forms,
                    hypertree_ball, lambda2_estimate, random_regular_linear,
                    shifted_form, spectral_radius, t_norm)
from hgspec.forms import _magnitude, _power
from hgspec.hypergraph import _REFINE_ROUNDS, _equitable_partition

from conftest import (adjacency_matrix, complete_lambda2_reference,
                      cycle_graph, edge_tuples, layer_perron_value, loose_path,
                      partition_of, path_graph, petersen,
                      random_connected_graph, same_partition)
from test_properties import coarsest_equitable


def tree_with_chords_and_tail(n, chords, tail, seed):
    """A seeded random tree on n vertices (vertex i hangs from a uniform
    earlier one), plus up to ``chords`` random edges, plus a path of
    ``tail`` new vertices hung from vertex 0."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for a, b in rng.integers(0, n, (chords, 2)).tolist():
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges |= {(0, n)} | {(n + i, n + i + 1) for i in range(tail - 1)}
    return Hypergraph(n + tail, 2, sorted(edges))


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
        pytest.param(lambda: complete_uniform(5, 2), None, id="K5"),
        pytest.param(lambda: cycle_graph(7), None, id="cycle7"),
        pytest.param(petersen, None, id="petersen"),
        pytest.param(lambda: random_connected_graph(9, 0.4, 5), None,
                     id="gnp9"),
        pytest.param(lambda: hypertree_ball(3, 3, 2), (3, 3, 2), id="ball332"),
        pytest.param(lambda: hypertree_ball(4, 3, 2), (4, 3, 2), id="ball432"),
        pytest.param(lambda: hypertree_ball(2, 3, 4), (2, 3, 4), id="ball234"),
        pytest.param(lambda: random_regular_linear(3, 3, 300, 1), 3,
                     id="rr300_s1"),
        pytest.param(lambda: complete_uniform(7, 3), 15, id="K7_3"),
    ])
    def test_bracket_contains_oracle(self, build, ball, tol):
        # the Collatz-Wielandt bracket, recomputed from the returned vector
        # with the public operator, holds rho; the oracle is eigvalsh for
        # graphs, the layer map (t, k, r) for balls and the degree for
        # regular hypergraphs
        h = build()
        if ball is None:
            oracle = float(np.linalg.eigvalsh(adjacency_matrix(h))[-1])
        elif isinstance(ball, int):
            oracle = float(ball)
        else:
            oracle = float(layer_perron_value(*ball))
        res = spectral_radius(h, SolverConfig(tol=tol))
        x = res.vector
        assert np.all(x > 0)
        ratios = apply_adjacency(h, x) / _power(x, h.t - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
        assert res.residual == (hi - lo) / hi <= tol
        assert lo <= res.value <= hi
        slack = 4 * np.spacing(hi)
        assert lo - slack <= oracle <= hi + slack

    @pytest.mark.parametrize("t,r", [(3, r) for r in range(1, 9)]
                             + [(4, r) for r in range(1, 7)])
    def test_ball_matches_layer_map_oracle(self, t, r):
        res = spectral_radius(hypertree_ball(t, 3, r))
        oracle = layer_perron_value(t, 3, r)
        err = float(abs(mpmath.mpf(res.value) - oracle))
        assert err <= res.residual * res.value + 4 * np.spacing(res.value)

    def test_edge_addition_never_decreases(self):
        rng = np.random.default_rng(11)
        h = random_regular_linear(3, 3, 18, 6)
        base = spectral_radius(h).value
        existing = set(edge_tuples(h))
        while True:
            cand = tuple(sorted(rng.choice(h.n, size=3, replace=False).tolist()))
            if cand not in existing:
                break
        grown = Hypergraph(h.n, h.t, list(edge_tuples(h)) + [cand])
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

    def test_not_connected_before_refinement(self, monkeypatch):
        def refine(h):
            raise AssertionError("refined a disconnected input")
        monkeypatch.setattr(eigensolver, "_equitable_partition", refine)
        with pytest.raises(NotConnectedError):
            spectral_radius(Hypergraph(4, 2, [(0, 1), (2, 3)]))

    def test_unequitable_partition_falls_back_to_the_vertices(self,
                                                              monkeypatch):
        # P5's degree partition {ends}, {inner} is not equitable: the
        # middle vertex sees two inner neighbours, the others an end and
        # an inner one.  The cell solve cannot certify on all vertices,
        # so the solver restarts on singletons and returns their result.
        # The partition comes from refinement, or is refined on as the
        # known partition of the instance, which gives it back.
        ends = partition_of([0, 1, 1, 1, 0])
        monkeypatch.setattr(eigensolver, "_equitable_partition",
                            lambda h: partition_of(np.arange(h.n)))
        want = spectral_radius(path_graph(5))
        for given in ["refined", "known"]:
            h = path_graph(5)
            if given == "known":
                h._known = ends
                assert same_partition(_equitable_partition(h).cell,
                                      ends.cell)
                refine = _equitable_partition
            else:
                refine = lambda h: ends  # noqa: E731
            monkeypatch.setattr(eigensolver, "_equitable_partition", refine)
            got = spectral_radius(h)
            assert got.value == want.value
            assert got.vector.tobytes() == want.vector.tobytes()
            assert got.residual == want.residual <= 1e-10
            assert got.iterations > want.iterations
            assert got.value == pytest.approx(np.sqrt(3), rel=1e-10)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_generated_ball_matches_its_edges_alone(self, t, k):
        # a generated ball refines on its layers; the same edges in a
        # fresh instance refine on all n vertices, bit for bit alike
        for r in range(9):
            ball = hypertree_ball(t, k, r)
            if ball.n > 2000:
                break
            bare = Hypergraph(ball.n, ball.t, ball.edge_array)
            assert ball._known is not None and bare._known is None
            part = _equitable_partition(ball)
            assert part.cell.dtype == np.int64
            # cells, representatives and sizes, bit for bit
            for got, want in zip(part, _equitable_partition(bare)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            a, b = spectral_radius(ball), spectral_radius(bare)
            assert a.value == b.value
            assert a.vector.tobytes() == b.vector.tobytes()
            assert (a.residual, a.iterations) == (b.residual, b.iterations)

    def test_ball_is_certified_on_its_layers(self, monkeypatch):
        # one Newton-Noda run, on the r + 1 layer values, and no restart
        tables = []
        solve = eigensolver._newton_noda

        def spy(products, size, *args):
            tables.append(size.size)
            return solve(products, size, *args)
        monkeypatch.setattr(eigensolver, "_newton_noda", spy)
        res = spectral_radius(hypertree_ball(3, 3, 6))
        assert tables == [7]
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("build,want", [
        (lambda: loose_path(4 * _REFINE_ROUNDS),
         (1.5870920377581728, 9, 1.6949401267985678e-11,
          "7e6eeaab7e92000f63fe904e25d9d5a4c96a791ed0a3d176c08213fd1c282154")),
        (lambda: tree_with_chords_and_tail(2000, 1000, 1, 1),
         (4.372170480545555, 12, 2.2211720435416035e-12,
          "5f667a66cd49b1238b1d119823e64558a37c261a51b6b5f53456a440db075e8f")),
    ], ids=["loose", "tree2000"])
    def test_many_unknown_solves_keep_their_bits(self, build, want):
        # CG runs on all 257 vertices of the loose path, where refinement
        # gives up, and on the tree's 1,970 cells; the goldens solve on
        # one cell or on a ball's layers, so only these pin CG's bits on
        # many unknowns
        res = spectral_radius(build())
        assert (res.value, res.iterations, res.residual,
                hashlib.sha256(res.vector.tobytes()).hexdigest()) == want

    @pytest.mark.parametrize("build,built", [
        (lambda: hypertree_ball(3, 3, 6), 2),
        (lambda: loose_path(4 * _REFINE_ROUNDS), 1)], ids=["ball336", "loose"])
    def test_one_operator_per_table(self, monkeypatch, build, built):
        # the ball solves on its layers and lifts; refinement gives up on
        # the loose path, which solves on its vertices alone
        tables = []
        build_products = forms._Products.__init__

        def spy(products, members, targets, bins, dtype):
            tables.append(bins)
            build_products(products, members, targets, bins, dtype)
        monkeypatch.setattr(forms._Products, "__init__", spy)
        h = build()
        assert spectral_radius(h).residual <= 1e-10
        assert len(tables) == built and tables[-1] == h.n

    @pytest.mark.parametrize("build", [
        lambda: loose_path(2000),
        lambda: tree_with_chords_and_tail(2000, 10_000, 100, 1)],
        ids=["loose2000", "tree2000"])
    def test_repeating_iterates_end_the_solve(self, build):
        # the iterates repeat bit for bit, with period 1 from step 119 and
        # period 2 from step 293, far from the tolerance; without a stop
        # at the first repeat seen the solve runs all 100,000 steps
        with pytest.raises(NoConvergence) as err:
            spectral_radius(build())
        assert err.value.iterations <= 2048

    @pytest.mark.xfail(strict=True, raises=NoConvergence,
                       reason="ROADMAP item 4: Newton-Noda stalls on the "
                              "paper's acyclic inputs")
    def test_loose_path_meets_its_closed_form(self):
        # a t = 3 loose path with E edges is the power hypergraph of the
        # graph path on E + 1 vertices: rho = (2 cos(pi / (E + 2)))^(2/3)
        res = spectral_radius(loose_path(2000))
        want = (2.0 * np.cos(np.pi / 2002)) ** (2.0 / 3.0)
        assert res.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=NoConvergence,
                       reason="ROADMAP item 4: Newton-Noda stalls on the "
                              "paper's acyclic inputs")
    def test_random_hypertree_certifies(self):
        # edge i hangs two new vertices from a uniform earlier vertex
        rng = np.random.default_rng(0)
        edges = [(int(rng.integers(0, 2 * i + 1)), 2 * i + 1, 2 * i + 2)
                 for i in range(10_000)]
        res = spectral_radius(Hypergraph(20_001, 3, edges),
                              SolverConfig(tol=1e-10))
        assert res.residual <= 1e-10

    def test_partition_past_the_round_bound(self, monkeypatch):
        # refinement gives up on a long loose path, and the solve on all
        # vertices agrees with the solve on the exact partition
        h = loose_path(4 * _REFINE_ROUNDS)
        assert _equitable_partition(h).cell.max() == h.n - 1
        whole = spectral_radius(h)
        monkeypatch.setattr(eigensolver, "_equitable_partition",
                            lambda h: partition_of(coarsest_equitable(h)))
        cells = spectral_radius(h)
        assert max(whole.residual, cells.residual) <= 1e-10
        assert cells.value == pytest.approx(whole.value, rel=2e-10)


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

    def test_tiny_budget_returns_a_feasible_value(self):
        # two evaluations in all: the first restart's start and one trial;
        # the estimate is the form at a feasible point, nothing is raised
        h = petersen()
        cfg = SolverConfig(tol=1e-30, max_iters=2, restarts=2)
        res = lambda2_estimate(h, cfg)
        assert res.iterations == 2
        assert res.residual > cfg.tol
        assert t_norm(res.vector, 2) == pytest.approx(1.0, abs=1e-12)
        assert res.value == abs(shifted_form(h, res.vector))

    def test_even_t_searches_both_signs(self, monkeypatch):
        # C24 is bipartite: the shifted spectrum runs from -2 up to
        # 2 cos(pi / 12) = 1.93, so only the run with g = -f finds 2
        runs = _recorded_runs(monkeypatch)
        res = lambda2_estimate(cycle_graph(24), SolverConfig(restarts=1))
        assert [run["sign"] for run in runs] == [1, -1]
        assert runs[0]["result"].value == pytest.approx(
            2 * np.cos(np.pi / 12), abs=1e-8)
        assert res.value == pytest.approx(2.0, abs=1e-8)

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


# --- the runs against their rules


def _recorded_runs(monkeypatch):
    """The runs of the next ``lambda2_estimate`` calls, as they happen.

    Each run is a dict: its ``sign`` argument, the form at every
    evaluation (``values``), the form wherever a gradient was asked for
    (``accepted``: the start and every accepted trial), and its
    ``result``.
    """
    runs = []

    class Recorded(forms._ShiftedForm):
        def value(self, x):
            f = super().value(x)
            runs[-1]["values"].append(f)
            return f

        def gradient(self):
            runs[-1]["accepted"].append(runs[-1]["values"][-1])
            return super().gradient()

    ascend = eigensolver._ascend

    def recorded(form, x, sign, budget, *rest):
        runs.append({"sign": sign, "budget": budget, "values": [],
                     "accepted": []})
        runs[-1]["result"] = ascend(form, x, sign, budget, *rest)
        return runs[-1]["result"]

    monkeypatch.setattr(eigensolver, "_ShiftedForm", Recorded)
    monkeypatch.setattr(eigensolver, "_ascend", recorded)
    return runs


def _objective(run, f):
    """g at form value f: |f| on a complex search, sign f on a real one,
    with sign 0 standing for the sign of f at the start."""
    if isinstance(f, complex):
        return abs(f)
    sign = run["sign"] or (-1 if run["values"][0] < 0 else 1)
    return sign * f


def _kkt_residual(h, x, value):
    """max |r| / (|f| max |x|^(t-1)), r = grad |f| / t - |f| psi, from
    the public operators; grad |f| is the sign of f times grad f, or for
    complex x the conjugate of the phase of f-bar times grad f."""
    t = h.t
    f = shifted_form(h, x)
    mean = (complex(x.sum()) if np.iscomplexobj(x) else float(x.sum())) / h.n
    grad = apply_adjacency(h, x) - t * h.m / h.n * mean ** (t - 1)
    grad = np.conj(np.conj(f) / abs(f) * grad) if np.iscomplexobj(x) \
        else np.sign(f) * grad
    psi = _power(_magnitude(x), t - 2) * x
    peak = float(_magnitude(x).max())
    return float(_magnitude(grad - value * psi).max()) \
        / (value * peak ** (t - 1))


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
def test_runs_stay_within_the_budget(monkeypatch, build, cfg):
    # one budget covers every run; iterations counts every evaluation,
    # and residual is the relative KKT residual at the returned vector
    h = build()
    runs = _recorded_runs(monkeypatch)
    res = lambda2_estimate(h, cfg)
    budget = min(cfg.restarts * eigensolver._budget(h), cfg.max_iters)
    evaluations = [len(run["values"]) for run in runs]
    assert res.iterations == sum(evaluations) <= budget
    assert evaluations == [run["result"].iterations for run in runs]
    assert all(n <= run["budget"] for n, run in zip(evaluations, runs))
    assert 1 <= len(runs) <= cfg.restarts * (
        1 if h.t % 2 or cfg.complex_search else 2)
    assert res.value == max(run["result"].value for run in runs)
    assert res.value == abs(shifted_form(h, res.vector))
    assert t_norm(res.vector, h.t) == pytest.approx(1.0, abs=1e-12)
    assert res.residual == pytest.approx(
        _kkt_residual(h, res.vector, res.value), rel=1e-9)


def loose_path_110():
    """The t = 110 loose path of 9 edges on n = 982 vertices."""
    return Hypergraph(982, 110, [range(109 * i, 109 * i + 110)
                                 for i in range(9)])


@pytest.mark.parametrize("build, pool", [
    (lambda: random_regular_linear(3, 3, 300, 1), 120),
    (lambda: random_regular_linear(4, 3, 200, 5), 240),
    (lambda: hypertree_ball(3, 3, 5), 36),
    (lambda: random_regular_linear(3, 3, 3000, 0), 12),
    (lambda: complete_uniform(7, 3), 1029),
    (lambda: complete_uniform(6, 4), 2400),
    (loose_path_110, 12)],
    ids=["rr300", "rr200_t4", "ball335", "rr3000", "K7_3", "K6_4",
         "loose110"])
def test_budget_per_restart(build, pool):
    # an evaluation counts as max(m, n t / 8) edge products: the goldens'
    # and the benchmark's pools stay, and the loose path's O(n t) work on
    # the vertices keeps it at the floor, not at 36,000 / m = 4,000
    assert eigensolver._budget(build()) == pool


def test_default_run_on_a_large_t_stays_within_the_floor():
    h = loose_path_110()
    res = lambda2_estimate(h)
    assert res.iterations <= 32 * 12
    assert res.value == abs(shifted_form(h, res.vector)) > 0


@pytest.mark.parametrize("complex_search", [False, True])
@pytest.mark.parametrize("t,k,n,seed", [
    (3, 3, 30, 0), (3, 3, 30, 5), (3, 2, 18, 1), (3, 2, 18, 2),
    (4, 3, 40, 0), (4, 2, 32, 1),
])
def test_value_rises_at_every_accepted_step(monkeypatch, t, k, n, seed,
                                            complex_search):
    # a gradient is asked for only at the start and at an accepted
    # trial, which gains more than the floor on the point before it
    runs = _recorded_runs(monkeypatch)
    cfg = SolverConfig(restarts=2, complex_search=complex_search)
    lambda2_estimate(random_regular_linear(t, k, n, seed), cfg)
    steps = 0
    for run in runs:
        g = [_objective(run, f) for f in run["accepted"]]
        assert run["accepted"][0] == run["values"][0]
        for before, after in zip(g, g[1:]):
            assert after > before + abs(before) * eigensolver._GAIN_FLOOR
        assert abs(run["result"].value) == abs(run["accepted"][-1])
        steps += len(g) - 1
    assert steps > len(runs)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: random_connected_graph(12, 0.4, 1006), id="gnp12"),
    pytest.param(lambda: cycle_graph(24), id="C24"),
    pytest.param(lambda: complete_uniform(7, 3), id="K7_3"),
    pytest.param(lambda: complete_uniform(8, 3), id="K8_3"),
])
def test_estimate_is_the_best_of_runs_made_alone(build):
    # each run sees only its start, its sign and its budget: runs made in
    # turn, each on a form of its own, from the same draws and with the
    # budgets lambda2_estimate gives them, return the same bits
    h = build()
    est = lambda2_estimate(h)
    cfg = SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    pool = min(cfg.restarts * eigensolver._budget(h), cfg.max_iters)
    best, spent = None, 0
    for _ in range(cfg.restarts):
        if spent == pool:
            break
        x0 = rng.standard_normal(h.n)
        runs = [(x0, 0, pool)] if h.t % 2 else [
            (x0.copy(), 1, spent + (pool - spent + 1) // 2), (x0, -1, pool)]
        for x, sign, end in runs:
            if spent == end:
                break
            form = forms._ShiftedForm(h, np.float64)
            run = eigensolver._ascend(form, x, sign, end - spent, cfg.tol)
            spent += run.iterations
            if best is None or run.value > best.value:
                best = run
    assert est.value == best.value
    assert np.array_equal(est.vector, best.vector)
    assert est.iterations == spent


@pytest.mark.parametrize("n,t", [(7, 3), (8, 3), (6, 4)])
def test_estimate_meets_the_complete_hypergraph_reference(n, t):
    # the default search finds the reduced search's maximum
    ref = complete_lambda2_reference(n, t)
    est = lambda2_estimate(complete_uniform(n, t))
    assert abs(est.value - ref) <= 1e-9 * ref


@pytest.mark.parametrize("n,t", [(7, 3), (8, 3), (6, 4)])
def test_complete_hypergraph_reference_bounds_many_restarts(n, t):
    # 128 full-space restarts on another seed: none beyond the
    # reference, which one of them reaches
    ref = complete_lambda2_reference(n, t)
    est = lambda2_estimate(complete_uniform(n, t),
                           SolverConfig(restarts=128, seed=7))
    assert ref * (1 - 1e-9) <= est.value <= ref * (1 + 1e-12)
