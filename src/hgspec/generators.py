"""Instance factory: hypertree balls, complete uniform, random regular linear.

Each generator raises ``SizeOverflow``, so that ``gen`` exits 1, before it
builds an instance whose t, n or m is above the size cap of ``hypergraph``.
Randomized generation uses numpy's PCG64 generator (a named 64-bit RNG
with a published state transition), so a seed pins down the emitted edge
list exactly.  The random-regular sampler works on whole arrays: one
``rng.integers(0, highs)`` call draws a batch of bounded integers as one
scalar call per bound in turn would, :func:`_resolve_swaps` makes a run
of Fisher-Yates swaps at once, and a batch of proposals is checked at
once.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import GenerationFailed, InfeasibleParams, SizeOverflow
from .hypergraph import Hypergraph, check_size

#: proposals drawn ahead per rng call in ``random_regular_linear``
_BATCH = 256


def hypertree_ball(t: int, k: int, radius: int) -> Hypergraph:
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
    check_size(f"hypertree ball with t={t}", t)
    layers = [np.empty((0, t), dtype=np.int64)]
    n = 1
    frontier = np.zeros(1, dtype=np.int64)
    for layer in range(radius):
        branch = k if layer == 0 else k - 1
        grown = n + frontier.size * branch * (t - 1)
        check_size(f"hypertree ball at layer {layer + 1}", t, grown)  # m < n
        # each edge joins a frontier vertex to t - 1 fresh ones
        fresh = np.arange(n, grown).reshape(-1, t - 1)
        layers.append(np.column_stack([np.repeat(frontier, branch), fresh]))
        n, frontier = grown, fresh.ravel()
    return Hypergraph(n, t, np.concatenate(layers))


def complete_uniform(n: int, t: int) -> Hypergraph:
    """All C(n, t) t-subsets of n vertices; C(n-1, t-1)-regular."""
    if t < 2 or n < t:
        raise InfeasibleParams(f"complete uniform needs n >= t >= 2, "
                               f"got n={n}, t={t}")
    # C(n, i) <= C(n, t) for i <= min(t, n - t): stop at one above the cap
    m = 1
    for i in range(min(t, n - t) + 1):
        check_size(f"complete hypergraph C({n},{t})", t, n, m)
        m = m * (n - i) // (i + 1)
    return Hypergraph(n, t, itertools.combinations(range(n), t))


def _resolve_swaps(a: np.ndarray, top: int,
                   picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run of swaps ``a[top-1-s] <-> a[picks[s]]``, s = 0, 1, ...,
    resolved with whole-array operations; needs ``picks[s] <= top-1-s``.

    Returns distinct positions and the values the run leaves there, so
    ``a[pos] = vals`` makes the run; ``a`` itself is not written.  The
    last S entries are the positions top-1-s, in order of s.

    No later step touches p = top-1-s, so step s leaves there what sat at
    its pick just before: the value carried there by the previous step
    with the same pick, or the original one.  Step s carries away what sat
    at p: the original a[p], or the value carried by the last step to pick
    p, which comes no later than s.  (If that is s itself, nothing reads
    what s carries.)  These links point to earlier steps, and pointer
    jumping finds the end of every chain in O(log S) passes.  One sort of
    the keys pick * S + step, which orders the steps by pick and then by
    step, gives both the previous and the last step; the keys stay below
    top * S, which must fit in int64.
    """
    size = picks.size
    steps = np.arange(size)
    keys = picks * size
    keys += steps
    keys.sort()
    ranked, order = np.divmod(keys, size)
    same = ranked[1:] == ranked[:-1]
    # the previous step with the same pick, or -1
    prev = np.full(size, -1)
    prev[order[1:][same]] = order[:-1][same]
    last = np.ones(size, dtype=bool)
    last[:-1] = ~same
    last_pick, last_step = ranked[last], order[last]
    # the last step to pick top-1-s, or s itself where none does
    final = last_pick >= top - size
    root = steps.copy()
    root[top - 1 - last_pick[final]] = last_step[final]
    while True:
        up = root[root]
        if (up == root).all():
            break
        root = up
    carried = a[top - 1 - root]
    landed = np.where(prev < 0, a[picks], carried[prev])
    early = ~final
    return (np.concatenate([last_pick[early], top - 1 - steps]),
            np.concatenate([carried[last_step[early]], landed]))


def _first_rejected(rows: np.ndarray, keys: np.ndarray, seen: set) -> int:
    """Index of the first proposal the one-by-one check rejects, given its
    sorted ``rows`` and pair ``keys``; ``len(rows)`` when none is.

    A proposal is rejected when it repeats a vertex or has a pair already
    in ``seen`` or in an earlier proposal.
    """
    repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1).tolist()
    listed = keys.ravel().tolist()
    if (not any(repeats) and len(set(listed)) == len(listed)
            and seen.isdisjoint(listed)):
        return len(rows)
    width = keys.shape[1]
    earlier = set()
    for p, repeat in enumerate(repeats):
        pairs = listed[p * width:(p + 1) * width]
        if repeat or not seen.isdisjoint(pairs) or \
                not earlier.isdisjoint(pairs):
            return p
        earlier.update(pairs)
    return len(rows)


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

    The stubs are shuffled by Fisher-Yates, and each proposal moves t
    random stubs to the tail by a partial Fisher-Yates shuffle.  A seed
    gives the instance of one scalar draw and one swap per stub, made in
    turn, but the work is done on whole arrays.  While proposals are
    accepted their bounds are known in advance, so one ``rng.integers``
    call draws a batch of up to ``_BATCH`` proposals, and
    :func:`_resolve_swaps` resolves the shuffle and each batch's swaps at
    once.  A batch is checked at once too: each pair u < v of a sorted
    proposal is the key u*n + v, and the batch is accepted when no
    proposal repeats a vertex and its keys are distinct and unseen.  A
    rejection voids the rest of the batch: only the swaps up to the
    rejected proposal are made, the generator goes back to its state
    before the batch and redraws just that prefix (``advance`` cannot
    rewind it, since a bounded draw takes a variable number of raw words),
    and the next batch is as long as the run that ended.

    Raises
    ------
    InfeasibleParams
        If t does not divide n*k, the parameters are out of range,
        ``max_attempts`` is not an integer >= 1, or n < k(t-1)+1: the k
        edges at a vertex of a linear instance meet only there, so they
        cover k(t-1)+1 distinct vertices.
    SizeOverflow
        If n or m = n*k/t is above the size cap, or the stub count
        n*k reaches 2**31, where the keys of :func:`_resolve_swaps` could
        overflow int64 (its stub array alone would take 16 GB).
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
    if not isinstance(max_attempts, (int, np.integer)) or max_attempts < 1:
        raise InfeasibleParams(f"max_attempts must be an integer >= 1, "
                               f"got {max_attempts!r}")
    m = n * k // t
    check_size(f"random regular instance with n={n}, m={m}", t, n, m)
    if n * k >= 2 ** 31:
        raise SizeOverflow(f"random regular instance with n={n}, k={k} "
                           f"has n*k = {n * k} >= 2**31 stubs")
    rng = np.random.default_rng(seed)
    local_cap = 500
    # the column pairs i < j of a sorted row
    first, second = np.triu_indices(t, 1)

    for _ in range(max_attempts):
        stubs = np.repeat(np.arange(n, dtype=np.int64), k)
        size = n * k
        pos, vals = _resolve_swaps(
            stubs, size, rng.integers(0, np.arange(size, 1, -1)))
        stubs[pos] = vals
        blocks = []
        seen: set[int] = set()
        failures = 0
        batch = _BATCH
        while size and failures < local_cap:
            count = min(batch, size // t)
            # the bounds if every proposal of the batch is accepted
            highs = size - np.arange(count * t)
            saved = rng.bit_generator.state if count > 1 else None
            picks = rng.integers(0, highs)
            batch = min(2 * batch, _BATCH)
            pos, vals = _resolve_swaps(stubs, size, picks)
            # proposal p is what lands at size-1-p*t down to size-(p+1)*t
            rows = np.sort(vals[-count * t:].reshape(count, t), axis=1)
            keys = rows[:, first] * n + rows[:, second]
            p = _first_rejected(rows, keys, seen)
            if p < count:
                failures += 1
                if p + 1 < count:
                    rng.bit_generator.state = saved
                    rng.integers(0, highs[:(p + 1) * t])
                    pos, vals = _resolve_swaps(stubs, size,
                                               picks[:(p + 1) * t])
                # retry-heavy end-games would waste long batches
                batch = p + 1
            stubs[pos] = vals
            blocks.append(rows[:p])
            seen.update(keys[:p].ravel().tolist())
            size -= p * t
        if size:
            continue
        h = Hypergraph(n, t, np.concatenate(blocks))
        assert h.m == m
        if h.is_connected:
            return h
    raise GenerationFailed(
        f"no connected k-regular linear instance for t={t}, k={k}, n={n} "
        f"after {max_attempts} attempts (seed {seed})"
    )
