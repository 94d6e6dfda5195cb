"""Generator family tests: counts, predicates, determinism."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspec import (GenerationFailed, Hypergraph, InfeasibleParams,
                    SizeOverflow, complete_uniform, distances_from,
                    emit_hypergraph, hypertree_ball, is_acyclic,
                    random_regular_linear, regular_degree)
from hgspec import generators, hypergraph
from hgspec.generators import _resolve_swaps

from conftest import edge_tuples, is_linear


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

    def test_k1_stops_once_the_frontier_is_empty(self, monkeypatch):
        # from radius 1 on the ball is one edge; no layer past it is built.
        # A ball that went on would hold one empty layer per radius step
        # (GBs within minutes), so the size check of each layer counts them
        checks = itertools.count()

        def check_size(what, *sizes):
            assert next(checks) < 10, f"the ball goes on past {what}"
            hypergraph.check_size(what, *sizes)
        monkeypatch.setattr(generators, "check_size", check_size)
        start = time.perf_counter()
        h = hypertree_ball(3, 1, 10 ** 9)
        assert time.perf_counter() - start < 1.0
        assert h == hypertree_ball(3, 1, 1)
        assert emit_hypergraph(h) == emit_hypergraph(hypertree_ball(3, 1, 1))

    def test_size_overflow(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "DEFAULT_SIZE_CAP", 100)
        with pytest.raises(SizeOverflow):
            hypertree_ball(3, 3, 4)

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

    def test_size_overflow(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "DEFAULT_SIZE_CAP", 1000)
        with pytest.raises(SizeOverflow):
            complete_uniform(40, 10)

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
        assert edge_tuples(a) == edge_tuples(b)

    def test_different_seeds_differ(self):
        a = random_regular_linear(3, 3, 30, 0)
        b = random_regular_linear(3, 3, 30, 1)
        assert edge_tuples(a) != edge_tuples(b)

    def test_divisibility_check(self):
        with pytest.raises(InfeasibleParams):
            random_regular_linear(3, 2, 10, 0)  # 20 not divisible by 3

    @pytest.mark.parametrize("t,k,n", [(3, 3, 2_000_001), (2, 5, 1_000_000)])
    def test_size_overflow(self, t, k, n):
        # n, or m = n k / t, above the cap; raised before any stub is made
        with pytest.raises(SizeOverflow):
            random_regular_linear(t, k, n, 0)

    @pytest.mark.parametrize("t,k,n", [(1100, 1100, 1_999_999),
                                       (1076, 1076, 1_995_840)])
    def test_stub_count_overflow(self, t, k, n):
        # n and m = n below the cap, but n k >= 2**31 stubs, whose sort
        # keys could overflow int64; raised before any stub is made
        assert max(n, n * k // t) <= 2_000_000 and n * k >= 2 ** 31
        with pytest.raises(SizeOverflow, match="2\\*\\*31 stubs"):
            random_regular_linear(t, k, n, 0)

    @pytest.mark.parametrize("t,k,n", [(3, 2, 3), (2, 3, 2), (4, 2, 6),
                                       (4, 3, 8), (3, 4, 6)])
    def test_too_few_vertices_for_a_linear_instance(self, t, k, n):
        # the k edges at a vertex meet only there: k(t-1)+1 > n vertices
        with pytest.raises(InfeasibleParams, match="k\\(t-1\\)\\+1"):
            random_regular_linear(t, k, n, 0)

    @pytest.mark.parametrize("max_attempts", [0, -3, 2.5, "5", None])
    def test_max_attempts_below_one_or_not_an_integer(self, monkeypatch,
                                                      max_attempts):
        # refused before the generator is even made, naming the value
        def no_draws(seed):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(InfeasibleParams,
                           match=f"max_attempts .* got {max_attempts!r}$"):
            random_regular_linear(3, 3, 30, 0, max_attempts=max_attempts)

    def test_generation_failure_on_impossible_corner(self):
        # n = 8 >= k(t-1)+1 = 7, but 8 vertices in 2 edges each make 8
        # edge pairs that meet, and linearity allows one per pair of the
        # 4 edges, so only C(4, 2) = 6: every attempt is rejected
        with pytest.raises(GenerationFailed):
            random_regular_linear(4, 2, 8, 0, max_attempts=20)



def reference_swaps(a, top, picks):
    """The swaps ``a[top-1-s] <-> a[picks[s]]`` made one at a time."""
    a = a.copy()
    for s, j in enumerate(picks):
        a[top - 1 - s], a[j] = a[j], a[top - 1 - s]
    return a


def assert_resolves_like_swaps(a, top, picks):
    before = a.copy()
    pos, vals = _resolve_swaps(a, top, np.asarray(picks, dtype=np.int64))
    assert np.array_equal(a, before)
    # the positions written are distinct, the last S of them top-1-s
    assert np.unique(pos).size == pos.size
    assert pos[pos.size - len(picks):].tolist() == \
        list(range(top - 1, top - 1 - len(picks), -1))
    got = a.copy()
    got[pos] = vals
    assert np.array_equal(got, reference_swaps(a, top, picks))


@st.composite
def swap_runs(draw):
    """(array, top, picks) with picks[s] <= top-1-s.  Each pick is drawn
    at random or as the step's own position, the position of the next
    step (so that the values carried form one chain), an earlier pick or
    position 0 (so that picks repeat)."""
    top = draw(st.integers(1, 40))
    extra = draw(st.integers(0, 3))
    a = np.array(draw(st.lists(st.integers(-5, 5), min_size=top + extra,
                               max_size=top + extra)), dtype=np.int64)
    picks = []
    for s in range(draw(st.integers(0, top))):
        p = top - 1 - s
        kind = draw(st.sampled_from(["any", "own", "next", "earlier",
                                     "zero"]))
        if kind == "any":
            j = draw(st.integers(0, p))
        elif kind == "own":
            j = p
        elif kind == "next":
            j = max(p - 1, 0)
        elif kind == "earlier" and picks:
            j = min(draw(st.sampled_from(picks)), p)
        else:
            j = 0
        picks.append(j)
    return a, top, picks


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(swap_runs())
def test_resolver_matches_swap_loop(run):
    assert_resolves_like_swaps(*run)


@pytest.mark.parametrize("pattern", ["next", "own", "zero", "half"])
def test_resolver_on_long_chains(pattern):
    # 5000 steps: each picks the next step's position, so the carried
    # values form one chain, or its own; one pick for all, or per pair
    top, size = 6000, 5000
    p = top - 1 - np.arange(size)
    picks = {"next": p - 1, "own": p, "zero": 0 * p, "half": p // 2}[pattern]
    assert_resolves_like_swaps(np.arange(top + 7, dtype=np.int64) * 3, top,
                               picks.tolist())


def reference_fisher_yates(rng, items):
    """The earlier shuffle, verbatim: one rng.integers call per index."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 10, 90_000])
@pytest.mark.parametrize("seed", [0, 7])
def test_shuffle_matches_scalar_reference(length, seed):
    # the sampler's shuffle: one rng.integers call for every swap, then
    # the resolver, against one call and one swap per index; the
    # generators end in the same state
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.arange(length, dtype=np.int64)
    pos, vals = _resolve_swaps(got, length,
                               rng.integers(0, np.arange(length, 1, -1)))
    got[pos] = vals
    want = list(range(length))
    reference_fisher_yates(ref_rng, want)
    assert got.tolist() == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_hypertree_edges(t, k, radius, cap):
    """The earlier per-edge loop of ``hypertree_ball``, but for its names
    and the size rule (t and n at most ``cap``; m < n): the vertex count
    and the edge list, in generation order."""
    if t > cap:
        raise SizeOverflow(f"hypertree ball with t={t} above the size cap "
                           f"{cap}")
    edges = []
    n = 1
    frontier = [0]
    for layer in range(radius):
        branch = k if layer == 0 else k - 1
        nxt = []
        for v in frontier:
            for _ in range(branch):
                fresh = list(range(n, n + t - 1))
                n += t - 1
                if n > cap:
                    raise SizeOverflow(f"hypertree ball at layer {layer + 1} "
                                       f"above the size cap {cap}")
                edges.append((v, *fresh))
                nxt.extend(fresh)
        frontier = nxt
    return n, edges


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_hypertree_ball_matches_edge_loop(t):
    for k in range(1, 5):
        for r in range(6):
            h = hypertree_ball(t, k, r)
            n, edges = reference_hypertree_edges(t, k, r, 2_000_000)
            ref = Hypergraph(n, t, edges)
            assert h.n == ref.n
            assert h.edge_array.tobytes() == ref.edge_array.tobytes()


@pytest.mark.parametrize("t,k,r,cap", [(3, 3, 10, 1000), (3, 3, 4, 100),
                                       (2, 2, 9, 8), (4, 1, 3, 3)])
def test_hypertree_ball_overflows_like_edge_loop(t, k, r, cap, monkeypatch):
    monkeypatch.setattr(hypergraph, "DEFAULT_SIZE_CAP", cap)
    with pytest.raises(SizeOverflow) as want:
        reference_hypertree_edges(t, k, r, cap)
    with pytest.raises(SizeOverflow) as got:
        hypertree_ball(t, k, r)
    assert str(got.value) == str(want.value)


def reference_random_regular(rng, t, k, n, max_attempts, events):
    """The earlier scalar proposal loop of ``random_regular_linear``,
    verbatim but for its names: one ``rng.integers`` call per stub.

    Returns the accepted edges of the first connected sample, or None
    after ``max_attempts``.  Appends to ``events`` what happened, as
    ("deadlock",), ("disconnected",) and, for every rejection,
    ("reject", p, count, size // t): the rejected proposal's index p
    within the batch of ``count`` proposals that the batched sampler
    draws for it, and the number of proposals left to make.
    """
    local_cap = 500
    for _ in range(max_attempts):
        stubs = [v for v in range(n) for _ in range(k)]
        reference_fisher_yates(rng, stubs)
        accepted = []
        pair_seen = set()
        failures = 0
        batch, count, p = 256, 0, 0  # the batched sampler's bookkeeping
        while stubs and failures < local_cap:
            size = len(stubs)
            if p == 0:
                count = min(batch, size // t)
                batch = min(2 * batch, 256)
            for i in range(t):
                j = int(rng.integers(0, size - i))
                stubs[j], stubs[size - 1 - i] = stubs[size - 1 - i], stubs[j]
            proposal = tuple(sorted(stubs[size - t:]))
            pairs = list(itertools.combinations(proposal, 2))
            if len(set(proposal)) == t and pair_seen.isdisjoint(pairs):
                accepted.append(proposal)
                pair_seen.update(pairs)
                del stubs[size - t:]
                p = (p + 1) % count
            else:
                failures += 1
                events.append(("reject", p, count, size // t))
                batch, p = p + 1, 0
        if stubs:
            events.append(("deadlock",))
            continue
        if Hypergraph(n, t, accepted).is_connected:
            return accepted
        events.append(("disconnected",))
    return None


def sample_both_ways(monkeypatch, t, k, n, seed, max_attempts=10_000):
    """(sampler result, reference result, whether both generators end in
    the same state, reference events); a result is an edge array, or
    None where ``GenerationFailed`` was raised."""
    make_rng = np.random.default_rng
    made = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(make_rng(s)) or made[-1])
    try:
        got = random_regular_linear(t, k, n, seed, max_attempts).edge_array
    except GenerationFailed:
        got = None
    monkeypatch.undo()
    ref_rng, events = make_rng(seed), []
    edges = reference_random_regular(ref_rng, t, k, n, max_attempts, events)
    want = None if edges is None else Hypergraph(n, t, edges).edge_array
    same_state = made[0].bit_generator.state == ref_rng.bit_generator.state
    return got, want, len(made) == 1 and same_state, events


def assert_same_sample(got, want, same_state):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()
    assert same_state


@pytest.mark.parametrize("t,k,n,seed", [
    (2, 3, 30000, 0), (3, 3, 30000, 0), (3, 3, 3000, 1), (3, 2, 9000, 2),
    (4, 3, 20000, 3), (4, 4, 3000, 7), (5, 5, 2000, 13), (2, 5, 3000, 1),
    (5, 4, 10000, 2),
    # the benchmark's rr30000 seeds, and a large pair load per edge
    (3, 3, 30000, 3), (3, 3, 30000, 5), (6, 3, 600, 0)])
def test_sampler_matches_scalar_reference(monkeypatch, t, k, n, seed):
    got, want, same_state, _ = sample_both_ways(monkeypatch, t, k, n, seed)
    assert want is not None
    assert_same_sample(got, want, same_state)


#: small shapes whose samples deadlock, come out disconnected or all fail
RETRY_SHAPES = [(2, 2, 4), (2, 2, 8), (2, 3, 6), (2, 4, 6), (3, 2, 6),
                (3, 2, 9), (3, 3, 7), (3, 3, 9), (3, 4, 9), (4, 2, 8),
                (4, 3, 12)]


def test_sampler_matches_scalar_reference_on_retries(monkeypatch):
    seen = set()
    for t, k, n in RETRY_SHAPES:
        for seed in range(6):
            got, want, same_state, events = sample_both_ways(
                monkeypatch, t, k, n, seed, max_attempts=5)
            assert_same_sample(got, want, same_state)
            seen.update(e[0] for e in events)
            seen.add("failed" if want is None else "sampled")
    assert seen == {"deadlock", "disconnected", "reject", "failed", "sampled"}


def test_sampler_matches_reference_at_batch_edges(monkeypatch):
    # this draw rejects the last proposal of a batch of 24, where nothing
    # is redrawn, and the first of a final batch of 4 < 256 proposals
    got, want, same_state, events = sample_both_ways(monkeypatch, 4, 3,
                                                     1000, 3)
    assert_same_sample(got, want, same_state)
    rejects = [e[1:] for e in events if e[0] == "reject"]
    assert any(1 < count == p + 1 for p, count, _ in rejects)
    assert any(p + 1 < count == left < 256 for p, count, left in rejects)
