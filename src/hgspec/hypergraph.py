"""Uniform hypergraphs: representation, structural predicates, metrics.

Vertices are dense integer ids ``0..n-1``.  The edges are stored once,
as the ``(m, t)`` int64 array ``Hypergraph._edge_index``, each row
sorted and the rows in lexicographic order; ``degrees`` and the
incidence are built from it.  The public ``edge_array`` is a read-only
view of it.  The index itself stays writable, though nothing writes to
it, because numpy copies a read-only index array on every ``take``,
``bincount`` or fancy index; the kernels in ``forms`` index with it
directly.  The constructor is the one place edges are validated:
whole-array checks that name the input index of the first faulty edge,
which the parser maps to a line number.  A :class:`Hypergraph` is
immutable; all operations here are pure.

A hypergraph keeps up to two read-only BFS maps (n int64 each) once
they are computed: the one from vertex 0, which ``is_connected`` reads,
and the one from the end s of the diameter path, which
:func:`diameter_and_path` computes; it finds the path by walking back
from the other end over the layers of that map.  The diameter search
reuses the first; ``constructions`` reuses both for certificate centers
and the radial origin, and searches the other centers only to their
ball radius.  A map searched to a radius is never kept.  Every search
runs in :func:`distances_from`, and the walk back in the same loop,
except the map from vertex 0 of a ball that ``generators.hypertree_ball``
built: it numbers the vertices layer by layer and hands the instance
their layers as that map.

Distances are measured in edges: ``dist(u, v)`` is the minimum number of
edges in a walk whose first edge contains ``u`` and whose last contains
``v``.  Two distinct vertices sharing an edge are at distance 1; this is
half the distance in the Levi (vertex-edge incidence) graph.

The incidence is held as compressed sparse rows (``indptr``/``indices``
numpy arrays), and every search runs on it with whole-array operations.
Single-source BFS expands one frontier per layer.  All eccentricities
come from a bit-parallel BFS that advances 64 sources per batch, at
O((n/64) * D * t * m) word operations for diameter D.  It reads the
incidence padded to a few widths (:func:`_padded_incidence`), so that
each level is one gather and one reduction per width; on a regular
input that is a single width.  Acyclic inputs keep the double-BFS
endpoint for their diameter instead (see :func:`diameter_and_path`).

For the rho solver, colour refinement finds the coarsest equitable
vertex partition (:func:`_equitable_partition`).  It runs on the
instance's own edges, or, when its builder gave it an equitable
partition (``Hypergraph._known``; a generated ball's layers), on the
much smaller edge table of that partition's cells, to the same result.
A partition carries each cell's representative and size along, so the
cell operator (``forms._quotient``) needs no pass over the n vertices.
Equality, hashing and the parsers ignore the known partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EdgeError, NotConnectedError, SizeOverflow

#: marker used in distance arrays for vertices no walk reaches
UNREACHABLE = -1
#: cap on each of t, n and m of an instance that is generated or parsed
DEFAULT_SIZE_CAP = 2_000_000


def check_size(what: str, *sizes: int) -> None:
    """Raise SizeOverflow naming ``what`` if t, n or m is above the cap."""
    if max(sizes) > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"{what} above the size cap {DEFAULT_SIZE_CAP}")


def _well_formed_rows(rows, t: int) -> tuple[np.ndarray, str | None]:
    """The rows before the first malformed one, as an int64 array.

    Also returns the fault of that row, or None: ``"type"``, ``"arity"``,
    or ``"repeated"`` or ``"range"`` for an id beyond int64.
    """
    try:
        table = np.array(rows)  # a copy: the rows are sorted in place
    except ValueError:  # ragged
        table = None
    if (table is not None and table.shape[1:] == (t,)
            and table.dtype.kind == "i"):
        return table.astype(np.int64, copy=False), None
    good = []
    fault = None
    for raw in rows:
        ids = list(raw)
        if not all(isinstance(v, (int, np.integer)) for v in ids):
            fault = "type"
        elif len(ids) != t:
            fault = "arity"
        elif any(not -2 ** 63 <= v < 2 ** 63 for v in ids):
            fault = "repeated" if len(set(ids)) < t else "range"
        if fault:
            break
        good.append(ids)
    return np.array(good, dtype=np.int64), fault


def _strictly_increasing(table: np.ndarray) -> bool:
    """True iff the rows of ``table`` are in strict lexicographic order."""
    ahead = np.zeros(len(table) - 1, dtype=bool)  # row i < row i+1 so far
    tied = np.ones(len(table) - 1, dtype=bool)    # equal up to this column
    for c in range(table.shape[1]):
        a, b = table[:-1, c], table[1:, c]
        ahead |= tied & (a < b)
        tied &= a == b
    return bool(ahead.all())


def _incident_edge_ids(edges: np.ndarray, n: int) -> np.ndarray:
    """The ids of the edges at each vertex in turn, each run increasing:
    ``np.argsort(edges.ravel(), kind="stable") // t``.

    The keys ``vertex * m + edge`` sort to the same order (a key that
    repeats is one edge id twice); an in-place sort of the keys then
    gives the edge ids modulo m, in less time and memory than an
    argsort.  Sizes whose keys would overflow int64 keep the argsort.
    """
    m, t = edges.shape
    if n * m >= 2 ** 63:
        return np.argsort(edges.ravel(), kind="stable") // t
    key = edges * m
    key += np.arange(m)[:, None]
    key = key.ravel()
    key.sort()
    key %= m
    return key


def _csr(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and edge ids of the incidence of an (m, t) table
    with entries in [0, n): the edges at v are
    ``ids[ptr[v]:ptr[v+1]]``, in increasing order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=ptr[1:])
    return ptr, _incident_edge_ids(edges, n)


def _validated_edges(n: int, t: int, rows) -> np.ndarray:
    """Sorted edge array of ``rows``, or :class:`EdgeError`.

    The error names the first edge with a fault: type, arity, repeated,
    range or duplicate, checked in that order.  A stable lexsort of the
    row-sorted table orders the edges and puts each later copy right
    after the first; a table already in strict order (as every emitted
    file is) has no copies and skips the sort.
    """
    table, kind = _well_formed_rows(rows, t)
    i = len(table)
    if i:
        table.sort(axis=1)
        duplicate = np.zeros(i, dtype=bool)
        if _strictly_increasing(table):
            ordered = table
        else:
            order = np.lexsort(table.T[::-1])
            ordered = table[order]
            duplicate[order[1:][np.all(ordered[1:] == ordered[:-1],
                                       axis=1)]] = True
        hits = np.stack([np.any(table[:, 1:] == table[:, :-1], axis=1),
                         (table[:, 0] < 0) | (table[:, -1] >= n), duplicate])
        if hits.any():
            i = int(np.argmax(hits.any(axis=0)))
            kind = ("repeated", "range", "duplicate")[np.argmax(hits[:, i])]
        table = ordered
    if kind is None:
        return table
    raw = rows[i]
    raise EdgeError(i, kind, {
        "type": f"edge {raw!r} has a non-integer vertex id",
        "arity": f"edge {raw!r} does not have {t} vertices",
        "repeated": f"edge {raw!r} has repeated vertices",
        "range": f"edge {raw!r} has a vertex outside [0, {n})",
        "duplicate": f"duplicate edge {tuple(sorted(map(int, raw)))!r}",
    }[kind])


class Hypergraph:
    """A finite t-uniform hypergraph.

    Parameters
    ----------
    n : int
        Number of vertices; ids run from 0 to n-1.
    t : int
        Edge cardinality, at least 2.
    edges : iterable of iterables of int
        Each edge must contain exactly t distinct Python or numpy integer
        vertex ids in range.  Duplicate edges are a hard error
        (hypergraphs are simple).  Faults raise ``EdgeError``.
    """

    __slots__ = ("n", "t", "_edge_index", "edge_array", "degrees",
                 "_indptr", "_indices", "_kept", "_known")

    def __init__(self, n, t, edges):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n}")
        if not isinstance(t, int) or t < 2:
            raise ValueError(f"uniformity t must be an integer >= 2, got {t}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        self.n = n
        self.t = t
        self._edge_index = _validated_edges(n, t, edges).reshape(-1, t)
        #: edges as a read-only (m, t) int64 view (empty (0, t) when m = 0)
        self.edge_array = self._edge_index.view()
        # CSR incidence: the edges of vertex v are
        # _indices[_indptr[v]:_indptr[v+1]], in increasing edge order
        self._indptr, self._indices = _csr(self._edge_index, n)
        self.degrees = np.diff(self._indptr)
        for a in (self.edge_array, self._indptr, self._indices, self.degrees):
            a.setflags(write=False)
        self._kept = {}  # BFS maps by source; see the module docstring
        self._known = None  # an equitable _Partition given by the builder

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    @property
    def is_connected(self) -> bool:
        """Every pair of vertices is joined by a walk (cached)."""
        return _kept_distances(self, 0, keep=True).complete

    def __repr__(self):
        return f"Hypergraph(n={self.n}, t={self.t}, m={self.m})"

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.t) == (other.n, other.t) and \
            np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.t, self.edge_array.tobytes()))


def _require_connected(h: Hypergraph, what: str) -> None:
    """Raise NotConnectedError saying that ``what`` needs a connected h."""
    if not h.is_connected:
        raise NotConnectedError(f"{what} require a connected hypergraph")


def regular_degree(h: Hypergraph) -> int | None:
    """The common degree k when h is regular, else None."""
    deg = h.degrees
    k = int(deg[0])
    return k if bool(np.all(deg == k)) else None


def is_acyclic(h: Hypergraph) -> bool:
    """True iff the bipartite Levi (incidence) graph contains no cycle.

    Uses the forest identity: with n + m Levi nodes and t*m incidence
    links, acyclic is equivalent to t*m = n + m - (#components).
    Acyclic implies linear.  Components are counted over the vertices by
    min-label propagation along the edges with pointer jumping.
    """
    label = np.arange(h.n)
    while True:
        low = label.copy()
        np.minimum.at(low, h._edge_index,
                      label[h._edge_index].min(axis=1, keepdims=True))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    components = np.count_nonzero(label == np.arange(h.n))
    return h.t * h.m == h.n + h.m - components


@dataclass(frozen=True)
class DistanceMap:
    """BFS distances (in edges) from a source vertex.

    ``dist[v]`` is the hypergraph distance or ``UNREACHABLE``.
    """

    source: int
    dist: np.ndarray

    @property
    def complete(self) -> bool:
        return bool(np.all(self.dist != UNREACHABLE))

    @property
    def eccentricity(self) -> int:
        """Largest finite distance from the source."""
        return int(self.dist.max(initial=0))

    def ball(self, r: int) -> np.ndarray:
        """Vertex ids at distance at most r (the ball B_r)."""
        return np.flatnonzero((self.dist >= 0) & (self.dist <= r))

    def layer_sizes(self, r_max: int) -> list[int]:
        """[|S_0|, ..., |S_r_max|]."""
        # one count over the entries up to r_max; bin 0 counts UNREACHABLE
        shifted = self.dist[self.dist <= r_max] - UNREACHABLE
        return np.bincount(shifted, minlength=max(r_max + 2, 1))[1:].tolist()


def _incident_edges(h: Hypergraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of ``vertices`` (edge ids, with repeats)."""
    starts = h._indptr[vertices]
    lengths = h._indptr[vertices + 1] - starts
    ends = np.cumsum(lengths)
    pos = np.arange(int(ends[-1]) if ends.size else 0)
    return h._indices[pos + np.repeat(starts - (ends - lengths), lengths)]


def _search(h: Hypergraph, o: int, radius: int | None = None,
            along: np.ndarray | None = None) -> np.ndarray:
    """Layer-synchronous frontier BFS from o, to ``radius`` if given.

    Each layer gathers the not yet expanded edges of the frontier and
    labels their unlabelled members; vertices beyond ``radius`` stay
    ``UNREACHABLE``.  With ``along``, a distance map in which o is at
    D, a member enters layer i only if it is at D - i in ``along``.
    A member gathered twice in a layer, as from an edge gathered twice,
    enters it once: each fresh member writes the mark -2 - (its
    position) into ``dist``, the occurrences whose mark reads back (the
    last of each member) form the next frontier, and the level
    overwrites the marks.  The search keeps one n-long array, ``dist``,
    and one m-long one, the expanded edges.  Work is O(t*m) in all plus
    a few array operations per layer.
    """
    dist = np.full(h.n, UNREACHABLE, dtype=np.int64)
    dist[o] = 0
    edge_done = np.zeros(h.m, dtype=bool)
    frontier = np.array([o], dtype=np.int64)
    level = 0
    while frontier.size and level != radius:
        level += 1
        edges = _incident_edges(h, frontier)
        edges = edges[~edge_done[edges]]
        edge_done[edges] = True
        members = h.edge_array[edges].ravel()
        fresh = dist[members] == UNREACHABLE
        if along is not None:
            fresh &= along[members] == along[o] - level
        members = members[fresh]
        mark = -2 - np.arange(members.size)
        dist[members] = mark
        frontier = members[dist[members] == mark]
        dist[frontier] = level
    return dist


def distances_from(h: Hypergraph, o: int,
                   radius: int | None = None) -> DistanceMap:
    """Breadth-first distances from vertex o over the co-edge relation.

    With a ``radius`` the search stops after that layer: the map is the
    whole one with every distance above ``radius`` read as
    ``UNREACHABLE``.
    """
    if not 0 <= o < h.n:
        raise ValueError(f"source vertex {o} outside [0, {h.n})")
    if radius is not None and radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    dist = _search(h, o, radius)
    dist.setflags(write=False)
    return DistanceMap(source=o, dist=dist)


def _kept_distances(h: Hypergraph, o: int, keep: bool = False,
                    radius: int | None = None) -> DistanceMap:
    """The distance map from o that h keeps, else a fresh
    :func:`distances_from` to ``radius``, which h keeps from then on if
    ``keep`` and the search was not bounded."""
    dm = h._kept.get(o)
    if dm is None:
        dm = distances_from(h, o, radius)
        if keep and radius is None:
            h._kept[o] = dm
    return dm


def _padded_incidence(h: Hypergraph
                      ) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """The incidence in degree buckets, for :func:`_eccentricities`.

    A vertex of degree d > 0 gets a row of width kmin * 2^b, the least
    such at least d, for the least positive degree kmin: its edge ids,
    then pads with the id m.  The width is below 2d, so all rows hold
    at most 2 * t * m slots, and a regular input has one width and no
    pads.  The vertices with an edge are relabelled stably by width,
    so that those of one width have consecutive new ids.

    Returns the old id of each new id, the (t, m) new ids of the edges'
    members, and per width in increasing order ``(lo, hi, rows)``: the
    new ids lo..hi-1 and their rows as the columns of a (width, hi - lo)
    array.
    """
    deg = h.degrees
    # every degree is at most m, so m stands in when no vertex has an edge
    width = np.where(deg > 0, deg[deg > 0].min(initial=h.m), 0)
    while (short := width < deg).any():
        width[short] *= 2
    order = np.argsort(width, kind="stable")[h.n - np.count_nonzero(deg):]
    label = np.empty(h.n, dtype=np.int64)
    label[order] = np.arange(order.size)
    members = np.ascontiguousarray(label[h._edge_index].T)
    ids = np.append(h._indices, h.m)
    buckets = []
    lo = 0
    for w, count in zip(*np.unique(width[order], return_counts=True)):
        v = order[lo:lo + count]
        slot = np.arange(w)[:, None]
        rows = ids[np.where(slot < deg[v], h._indptr[v] + slot, ids.size - 1)]
        buckets.append((lo, lo + count, rows))
        lo += count
    return order, members, buckets


def _eccentricities(h: Hypergraph) -> np.ndarray:
    """Eccentricity of every vertex: its largest finite distance.

    Bit-parallel all-sources BFS (Akiba, Iwata & Yoshida, SIGMOD 2013)
    on the vertex-edge incidence.  Sources go 64 to a batch, one bit each
    in a ``uint64`` word per vertex holding the set of sources that have
    reached it.  One level ORs the words of each edge's t members into
    the edge, then, width by width over :func:`_padded_incidence`, ORs
    each vertex's row of edges back into the vertex; a pad reads a zero
    word after the edges'.  A source whose bit reached some new vertex
    has advanced one more level.  A vertex without edges stays out of
    the search, at eccentricity 0.  Cost: O((n/64) * D * t * m) word
    operations, with one gather and one reduction per stage and width
    in each level.
    """
    vertices, members, buckets = _padded_incidence(h)
    n, m = vertices.size, h.m  # the vertices with an edge, and the edges
    ecc = np.zeros(n, dtype=np.int64)
    words = np.zeros(m + 1, dtype=np.uint64)  # words[m] stays 0
    reached = np.empty(n, dtype=np.uint64)
    grown = np.empty(n, dtype=np.uint64)
    all_bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for lo in range(0, n, 64):
        width = min(64, n - lo)
        bits = all_bits[:width]
        reached[:] = 0
        reached[lo:lo + width] = bits
        level = 0
        while True:
            level += 1
            np.bitwise_or.reduce(reached[members], axis=0, out=words[:m])
            for start, stop, rows in buckets:
                np.bitwise_or.reduce(words[rows], axis=0,
                                     out=grown[start:stop])
            advanced = np.bitwise_or.reduce(grown ^ reached)
            if not advanced:
                break
            ecc[lo:lo + width][(advanced & bits) != 0] = level
            reached, grown = grown, reached
    full = np.zeros(h.n, dtype=np.int64)
    full[vertices] = ecc
    return full


def _lex_shortest_path(h: Hypergraph, source: int, target: int,
                       dist_to_target: np.ndarray) -> list[int]:
    """Lexicographically smallest shortest vertex path source -> target.

    Greedy: from the current vertex, step to the lowest-id co-edge
    neighbour whose distance to the target drops by one.
    ``dist_to_target`` need only be right on the shortest source-target
    paths and negative elsewhere: a neighbour of a path vertex one step
    closer to the target lies on such a path too.
    """
    path = [source]
    current = source
    remaining = int(dist_to_target[source])
    while remaining > 0:
        edges = h._indices[h._indptr[current]:h._indptr[current + 1]]
        members = h.edge_array[edges].ravel()
        current = int(members[dist_to_target[members] == remaining - 1].min())
        path.append(current)
        remaining -= 1
    return path


def diameter_and_path(h: Hypergraph) -> tuple[int, list[int]]:
    """Exact diameter and a shortest vertex path realizing it.

    The path starts at a vertex s of eccentricity D, ends at far, the
    lowest-id vertex farthest from s, and is the lexicographically smallest
    shortest path between the two.  In general s is the lowest-id vertex
    of maximum eccentricity, found by the bit-parallel all-sources BFS in
    O((n/64) * D * t * m) word operations, each level one gather and one
    reduction per incidence width (one width on a regular input; see
    :func:`_eccentricities`).  Acyclic inputs (for a connected input,
    the forest identity (t-1)*m = n-1) keep the double-BFS endpoint
    instead: s is the lowest-id vertex farthest from vertex 0, which is
    exact on trees since every Levi leaf is a vertex node (edge nodes
    have degree t >= 2).  That is one BFS run, from s,
    instead of n/64 batches of D levels each, which on a deep hypertree
    ball (n = 131,071 at r = 8) would be about 2,000 batches of 17
    levels.

    The path is read off a walk back from far over the layers of the map
    from s: layer i holds the vertices at D - i from s that share an edge
    with layer i - 1, which are those at distance i from far on a
    shortest s-far path.  The walk costs at most one BFS, and on a tree
    visits the path alone.  h keeps the maps from 0 and s, no other.

    Raises
    ------
    NotConnectedError
        If some vertex pair is unreachable.
    """
    _require_connected(h, "diameter paths")
    if (h.t - 1) * h.m == h.n - 1:
        s = int(np.argmax(_kept_distances(h, 0).dist))
    else:
        s = int(np.argmax(_eccentricities(h)))
    ds = _kept_distances(h, s, keep=True).dist
    far = int(np.argmax(ds))
    return int(ds[far]), _lex_shortest_path(h, s, far,
                                            _search(h, far, along=ds))


def min_eccentricity_vertex(h: Hypergraph) -> int:
    """Lowest-id vertex of minimum eccentricity (a center of h)."""
    _require_connected(h, "eccentricities")
    return int(np.argmin(_eccentricities(h)))


#: colour refinement rounds before the partition is given up as discrete.
#: A ball B_r takes r + 1 rounds, a loose path of E edges E/2 + 1 and a
#: graph path of n vertices n/2.  On a 2-vCPU x86 host a round on the
#: n-vertex table at r = 8 (n = 131,071) took 3.4-4.3 ms, about one CG
#: step (3.1 ms) of the Newton-Noda solve on all n vertices, which took
#: 141 of them; a refinement that gives up there thus costs about 32 CG
#: steps.  A generated ball refines on its layer table instead, 17 rows
#: at r = 8, where the whole refinement took under 1 ms.
_REFINE_ROUNDS = 32


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: a bijective scramble of uint64s."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class _Partition(NamedTuple):
    """The cell (0..p-1) of every vertex, and the representative (lowest
    vertex id) and float64 size of every cell."""

    cell: np.ndarray
    rep: np.ndarray
    size: np.ndarray


def _singletons(n: int) -> _Partition:
    ids = np.arange(n)
    return _Partition(ids, ids, np.ones(n))


def _merged(part: _Partition, cell: np.ndarray) -> _Partition:
    """The partition whose cell c joins the cells j of ``part`` with
    ``cell[j] = c``, for cells numbered 0..p-1 in ``cell``."""
    cells = int(cell.max()) + 1
    rep = np.full(cells, part.cell.size)
    np.minimum.at(rep, cell, part.rep)
    return _Partition(cell[part.cell], rep,
                      np.bincount(cell, part.size, cells))


def _cell_table(h: Hypergraph, part: _Partition
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """The edge table of the partition with cells 0..p-1, and p.

    Its rows are, once each, the edges at the representatives (the
    lowest vertex id of each cell), their members replaced by cells.  A
    representative's position targets its cell and every other position
    the dropped value p.  When the partition is equitable, the edges at
    a cell's representative are those at any of its vertices, up to the
    cells of their members, so a sum over the rows that target a cell
    is the sum over the edges at each of its vertices.
    """
    rows = h._edge_index[np.unique(_incident_edges(h, part.rep))]
    members = part.cell[rows]
    cells = part.rep.size
    targets = np.where(rows == part.rep[members], members, cells)
    return members, targets, cells


def _equitable_partition(h: Hypergraph) -> _Partition:
    """The coarsest equitable partition, with its representatives and
    cell sizes.

    A partition is equitable when all vertices of a cell see the same
    multiset of other-member cell tuples over their edges.  Colour
    refinement (Grohe, Kersting, Mladenov & Selman, ESA 2014) finds the
    coarsest one.  Every vertex starts with the same uint64 key, and
    each round replaces its key by a hash of that key and of the
    multiset of its edges' member key multisets (sums of scrambled
    keys, which wrap).  Vertices with equal keys form a cell; a round
    that splits no cell ends it, and so do singletons.  After
    ``_REFINE_ROUNDS`` rounds it gives up and returns singletons.

    Cells are numbered 0..p-1 in key order, so the result is
    deterministic; a hash collision can merge cells that are not
    equivalent, so callers check what they compute on it.

    The rounds run on h's own edge table, or on the smaller
    ``_cell_table`` of the equitable partition that h's builder gave it
    (``Hypergraph._known``), one key per cell of that partition.  By
    induction every round's keys are constant on the cells of any
    equitable partition, so the key of each cell's representative is
    that of all its vertices: the number of distinct keys, the stop and
    the numbering in key order come out bit for bit the same, and so do
    the representatives and sizes, which are merged from the known
    cells' own.  A known partition that is not equitable can give a
    wrong one, which callers catch like a collision.
    """
    known = h._known
    if known is None:
        members, bounds, order = h._edge_index, h._indptr, h._indices
    else:
        members, targets, p = _cell_table(h, known)
        bounds, order = _csr(targets, p + 1)
        bounds = bounds[:-1]  # the dropped positions come last
    # running sums of the edge keys in CSR order: a key's sum over its
    # edges is the difference at the ends of its segment (0 on none)
    running = np.zeros(order.size + 1, dtype=np.uint64)
    key = np.ones(bounds.size - 1, dtype=np.uint64)  # _mix maps 0 to 0
    cells = 1
    for _ in range(_REFINE_ROUNDS):
        edge_key = key[members[:, 0]]
        for j in range(1, h.t):
            edge_key += key[members[:, j]]
        _mix(edge_key)
        np.cumsum(edge_key[order], out=running[1:])
        key += np.diff(running[bounds])
        _mix(key)
        ordered = np.sort(key)
        fresh = np.r_[True, ordered[1:] != ordered[:-1]]
        if np.count_nonzero(fresh) == cells:
            cell = np.searchsorted(ordered[fresh], key)
            return _merged(_singletons(h.n) if known is None else known,
                           cell)
        cells = np.count_nonzero(fresh)
        if cells == h.n:
            break
    return _singletons(h.n)
