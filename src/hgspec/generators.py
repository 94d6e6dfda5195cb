"""Instance factory: hypertree balls, complete uniform, random regular linear.

Randomized generation uses numpy's PCG64 generator (a named 64-bit RNG
with a published state transition) driven through an explicit in-module
Fisher-Yates shuffle, so a seed pins down the emitted edge list exactly.
The sampler draws its bounded integers in arrays: one ``rng.integers(0,
highs)`` call consumes the stream exactly as one scalar call per bound in
turn, so batching changes no emitted bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GenerationFailed, InfeasibleParams, SizeOverflow
from .hypergraph import Hypergraph

#: default cap on generated vertex / edge counts
DEFAULT_SIZE_CAP = 2_000_000
#: proposals drawn ahead per rng call in ``random_regular_linear``
_BATCH = 256


def hypertree_ball(t: int, k: int, radius: int,
                   max_vertices: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """Ball of the given radius in the infinite k-regular t-uniform hypertree.

    The root (vertex 0) carries k edges; every other internal vertex
    carries k-1 further edges; each edge introduces t-1 fresh vertices.
    Vertices are numbered in BFS order, so the distance-i layer is a
    contiguous id range.  The result is acyclic (hence linear); vertices
    in the outermost layer are leaves of degree 1.
    """
    if t < 2 or k < 1 or radius < 0:
        raise InfeasibleParams(f"hypertree ball needs t>=2, k>=1, radius>=0, "
                               f"got t={t}, k={k}, radius={radius}")
    layers = [np.empty((0, t), dtype=np.int64)]
    n = 1
    frontier = np.zeros(1, dtype=np.int64)
    for layer in range(radius):
        branch = k if layer == 0 else k - 1
        grown = n + frontier.size * branch * (t - 1)
        if grown > max_vertices:
            raise SizeOverflow(f"hypertree ball exceeds {max_vertices} "
                               f"vertices at layer {layer + 1}")
        # each edge joins a frontier vertex to t - 1 fresh ones
        fresh = np.arange(n, grown).reshape(-1, t - 1)
        layers.append(np.column_stack([np.repeat(frontier, branch), fresh]))
        n, frontier = grown, fresh.ravel()
    return Hypergraph(n, t, np.concatenate(layers))


def complete_uniform(n: int, t: int,
                     max_edges: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """All C(n, t) t-subsets of n vertices; C(n-1, t-1)-regular."""
    if t < 2 or n < t:
        raise InfeasibleParams(f"complete uniform needs n >= t >= 2, "
                               f"got n={n}, t={t}")
    if math.comb(n, t) > max_edges:
        raise SizeOverflow(f"C({n},{t}) = {math.comb(n, t)} exceeds "
                           f"{max_edges} edges")
    return Hypergraph(n, t, itertools.combinations(range(n), t))


def _fisher_yates(rng: np.random.Generator, items: list) -> None:
    """In-place Fisher-Yates shuffle, all swaps drawn by one rng.integers."""
    picks = rng.integers(0, np.arange(len(items), 1, -1)).tolist()
    for i, j in zip(range(len(items) - 1, 0, -1), picks):
        items[i], items[j] = items[j], items[i]


def random_regular_linear(t: int, k: int, n: int, seed: int,
                          max_attempts: int = 10_000) -> Hypergraph:
    """Seeded random k-regular linear t-uniform hypergraph on n vertices.

    Configuration-model sampling: the n*k vertex stubs are grouped into
    m = n*k/t edges of t stubs each.  A proposed edge is rejected and
    redrawn when it repeats a vertex, duplicates an accepted edge, or
    shares two or more vertices with one (the linearity constraint); a
    whole sample is abandoned when the end-game deadlocks or the result
    is disconnected.  Not a uniform sampler over regular linear
    hypergraphs; adequacy, not uniformity, is the goal here.

    Each proposal moves t random stubs to the tail by a partial
    Fisher-Yates shuffle.  While proposals are accepted their bounds are
    known in advance, so one ``rng.integers`` call draws a batch of up to
    ``_BATCH`` proposals.  A rejection voids the rest of the batch: the
    generator goes back to its state before the batch and redraws just the
    prefix used (``advance`` cannot rewind it, since a bounded draw takes a
    variable number of raw words), and the next batch is as long as the
    run that ended.  So a seed gives the instance of one scalar draw per
    stub.

    Raises
    ------
    InfeasibleParams
        If t does not divide n*k, the parameters are out of range, or
        n < k(t-1)+1: the k edges at a vertex of a linear instance meet
        only there, so they cover k(t-1)+1 distinct vertices.
    SizeOverflow
        If n or m = n*k/t exceeds ``DEFAULT_SIZE_CAP``.
    GenerationFailed
        After ``max_attempts`` abandoned samples.
    """
    if t < 2 or k < 1 or n < t:
        raise InfeasibleParams(f"need t>=2, k>=1, n>=t, got t={t}, k={k}, n={n}")
    if (n * k) % t != 0:
        raise InfeasibleParams(f"t={t} must divide n*k={n * k}")
    if n < k * (t - 1) + 1:
        raise InfeasibleParams(f"no linear {k}-regular {t}-uniform "
                               f"hypergraph has n={n} < k(t-1)+1 vertices")
    m = n * k // t
    if max(n, m) > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"random regular instance with n={n}, m={m} "
                           f"exceeds {DEFAULT_SIZE_CAP} vertices or edges")
    rng = np.random.default_rng(seed)
    local_cap = 500

    for _ in range(max_attempts):
        stubs = [v for v in range(n) for _ in range(k)]
        _fisher_yates(rng, stubs)
        accepted: list[tuple[int, ...]] = []
        pair_seen: set[tuple[int, int]] = set()
        failures = 0
        batch = _BATCH
        while stubs and failures < local_cap:
            size = len(stubs)
            count = min(batch, size // t)
            # the bounds if every proposal of the batch is accepted
            highs = size - np.arange(count * t)
            saved = rng.bit_generator.state if count > 1 else None
            picks = rng.integers(0, highs).tolist()
            batch = min(2 * batch, _BATCH)
            for p in range(count):
                top = size - p * t
                # partial Fisher-Yates: move t random stubs to the tail
                for i, j in enumerate(picks[p * t:(p + 1) * t]):
                    stubs[j], stubs[top - 1 - i] = stubs[top - 1 - i], stubs[j]
                proposal = tuple(sorted(stubs[top - t:]))
                pairs = list(itertools.combinations(proposal, 2))
                # a copy of an accepted edge shares all its pairs with it
                if len(set(proposal)) == t and pair_seen.isdisjoint(pairs):
                    accepted.append(proposal)
                    pair_seen.update(pairs)
                    del stubs[top - t:]
                    continue
                failures += 1
                if p + 1 < count:
                    rng.bit_generator.state = saved
                    rng.integers(0, highs[:(p + 1) * t])
                # retry-heavy end-games would waste long batches
                batch = p + 1
                break
        if stubs:
            continue
        h = Hypergraph(n, t, accepted)
        assert h.m == m
        if h.is_connected:
            return h
    raise GenerationFailed(
        f"no connected k-regular linear instance for t={t}, k={k}, n={n} "
        f"after {max_attempts} attempts (seed {seed})"
    )
