"""Uniform hypergraphs: representation, structural predicates, metrics.

Vertices are dense integer ids ``0..n-1``.  The edges are stored once,
as the ``(m, t)`` int64 array ``Hypergraph._edge_index``, each row
sorted and the rows in lexicographic order; ``degrees`` and the
incidence are built from it, ``edges`` (tuples) on first use.  The
public ``edge_array`` is a read-only view of it.  The index itself stays
writable, though nothing writes to it, because numpy copies a read-only
index array on every ``take``, ``bincount`` or fancy index; the kernels
in ``forms`` index with it directly.  The constructor is the one place
edges are validated: whole-array checks that name the input index of
the first faulty edge, which the parser maps to a line number.  A
:class:`Hypergraph` is immutable; all operations here are pure.

A hypergraph keeps up to three read-only BFS maps (n int64 each) once
they are computed: the one from vertex 0, which ``is_connected`` reads,
and the two from the ends s and far of the diameter path, which
:func:`diameter_and_path` computes.  The diameter search reuses the
first; ``constructions`` reuses all three for certificate centers and
the radial origin.  Every search runs in :func:`distances_from`.

Distances are measured in edges: ``dist(u, v)`` is the minimum number of
edges in a walk whose first edge contains ``u`` and whose last contains
``v``.  Two distinct vertices sharing an edge are at distance 1; this is
half the distance in the Levi (vertex-edge incidence) graph.

The incidence is held as compressed sparse rows (``indptr``/``indices``
numpy arrays), and every search runs on it with whole-array operations.
Single-source BFS expands one frontier per layer.  All eccentricities
come from a bit-parallel BFS that advances 64 sources per batch, at
O((n/64) * D * t * m) word operations for diameter D; acyclic inputs
keep the two-run double-BFS for their diameter instead (see
:func:`diameter_and_path`).

For the rho solver, colour refinement finds the coarsest equitable
vertex partition (:func:`_equitable_partition`), and :func:`_quotient`
builds the edge table on which the ``forms`` kernels evaluate A on one
value per cell.
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


def _edge_table(rows, t: int) -> tuple[np.ndarray, str | None]:
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

    An edge holds a vertex once, so the keys ``vertex * m + edge`` are
    unique and sort to the same order; an in-place sort of the keys then
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


def _validated_edges(n: int, t: int, rows) -> np.ndarray:
    """Sorted edge array of ``rows``, or :class:`EdgeError`.

    The error names the first edge with a fault: type, arity, repeated,
    range or duplicate, checked in that order.  A stable lexsort of the
    row-sorted table orders the edges and puts each later copy right
    after the first; a table already in strict order (as every emitted
    file is) has no copies and skips the sort.
    """
    table, kind = _edge_table(rows, t)
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


class _EdgeTable(NamedTuple):
    """The edge table the ``forms`` kernels evaluate A x and its Jacobian on.

    Position (e, j) reads x at ``members[e, j]`` and adds the product of
    the other entries of row e into entry ``targets[e, j]`` of a vector
    of length ``bins``; a target equal to ``bins`` is dropped.  A
    hypergraph's own table, ``Hypergraph._table``, is its edge index
    twice, with n bins; :func:`_quotient` builds the table of a
    partition.
    """

    members: np.ndarray
    targets: np.ndarray
    bins: int


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

    __slots__ = ("n", "t", "_edge_index", "_table", "edge_array", "degrees",
                 "_indptr", "_indices", "_edges", "_kept")

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
        self._table = _EdgeTable(self._edge_index, self._edge_index, n)
        #: edges as a read-only (m, t) int64 view (empty (0, t) when m = 0)
        self.edge_array = self._edge_index.view()
        # CSR incidence: the edges of vertex v are
        # _indices[_indptr[v]:_indptr[v+1]], in increasing edge order
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._edge_index.ravel(), minlength=n),
                  out=self._indptr[1:])
        self._indices = _incident_edge_ids(self._edge_index, n)
        self.degrees = np.diff(self._indptr)
        for a in (self.edge_array, self._indptr, self._indices, self.degrees):
            a.setflags(write=False)
        self._edges = None
        self._kept = {}  # BFS maps by source; see the module docstring

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as sorted tuples in lexicographic order (cached)."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self.edge_array.tolist()))
        return self._edges

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


def is_linear(h: Hypergraph) -> bool:
    """True iff every pair of distinct edges shares at most one vertex."""
    i, j = np.triu_indices(h.t, 1)
    pairs = h.edge_array[:, i] * h.n + h.edge_array[:, j]
    return np.unique(pairs).size == pairs.size


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


def _distinct(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``values`` without repeats, each kept at its last position.

    A scatter and a gather on ``scratch`` (any int64 array indexable by
    every value), which is cheaper than sorting for BFS layers.
    """
    pos = np.arange(values.size)
    scratch[values] = pos
    return values[scratch[values] == pos]


def distances_from(h: Hypergraph, o: int) -> DistanceMap:
    """Breadth-first distances from vertex o over the co-edge relation.

    Layer-synchronous frontier BFS on the CSR incidence: each layer
    gathers the not yet expanded edges of the frontier and labels their
    unlabelled members.  Work is O(t*m) in all plus a few array
    operations per layer.
    """
    if not 0 <= o < h.n:
        raise ValueError(f"source vertex {o} outside [0, {h.n})")
    dist = np.full(h.n, UNREACHABLE, dtype=np.int64)
    dist[o] = 0
    edge_done = np.zeros(h.m, dtype=bool)
    scratch = np.empty(max(h.n, h.m), dtype=np.int64)
    frontier = np.array([o], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        edges = _incident_edges(h, frontier)
        edges = _distinct(edges[~edge_done[edges]], scratch)
        edge_done[edges] = True
        members = h.edge_array[edges].ravel()
        frontier = _distinct(members[dist[members] == UNREACHABLE], scratch)
        dist[frontier] = level
    dist.setflags(write=False)
    return DistanceMap(source=o, dist=dist)


def _kept_distances(h: Hypergraph, o: int, keep: bool = False) -> DistanceMap:
    """The distance map from o that h keeps, else a fresh
    :func:`distances_from`, which h keeps from then on if ``keep``."""
    dm = h._kept.get(o)
    if dm is None:
        dm = distances_from(h, o)
        if keep:
            h._kept[o] = dm
    return dm


def _eccentricities(h: Hypergraph) -> np.ndarray:
    """Eccentricity of every vertex: its largest finite distance.

    Bit-parallel all-sources BFS (Akiba, Iwata & Yoshida, SIGMOD 2013)
    on the vertex-edge incidence.  Sources go 64 to a batch, one bit each
    in a ``uint64`` word per vertex holding the set of sources that have
    reached it.  One level ORs the words of each edge's t members into
    the edge, then ORs each vertex's incident edges back over the CSR;
    a source whose bit reached some new vertex has advanced one more
    level.  Cost: O((n/64) * D * t * m) word operations.
    """
    n = h.n
    ecc = np.zeros(n, dtype=np.int64)
    columns = [np.ascontiguousarray(h.edge_array[:, c]) for c in range(h.t)]
    covered = h.degrees > 0
    # reduceat yields a neighbour's value on an empty segment, so only
    # vertices with at least one edge are reduced
    starts = h._indptr[:-1][covered]
    all_bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for lo in range(0, n, 64):
        width = min(64, n - lo)
        bits = all_bits[:width]
        reached = np.zeros(n, dtype=np.uint64)
        reached[lo:lo + width] = bits
        level = 0
        while True:
            level += 1
            edge_bits = reached[columns[0]]
            for col in columns[1:]:
                edge_bits |= reached[col]
            grown = reached.copy()
            grown[covered] |= np.bitwise_or.reduceat(edge_bits[h._indices],
                                                     starts)
            advanced = np.bitwise_or.reduce(grown ^ reached)
            if not advanced:
                break
            ecc[lo:lo + width][(advanced & bits) != 0] = level
            reached = grown
    return ecc


def _lex_shortest_path(h: Hypergraph, source: int, target: int,
                       dist_to_target: np.ndarray) -> list[int]:
    """Lexicographically smallest shortest vertex path source -> target.

    Greedy: from the current vertex, step to the lowest-id co-edge
    neighbour whose distance to the target drops by one.
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

    The path starts at a vertex s of eccentricity D, ends at the lowest-id
    vertex farthest from s, and is the lexicographically smallest
    shortest path between the two.  In general s is the lowest-id vertex
    of maximum eccentricity, found by the bit-parallel all-sources BFS in
    O((n/64) * D * t * m) word operations.  Acyclic inputs (for a
    connected input, the forest identity (t-1)*m = n-1) keep the
    double-BFS endpoint instead: s is the lowest-id vertex farthest from
    vertex 0, which is exact on trees since every Levi leaf is a vertex
    node (edge nodes have degree t >= 2).  That is two BFS runs instead
    of n/64 batches of D levels each, which on a deep hypertree ball
    (n = 131,071 at r = 8) would be about 2,000 batches of 17 levels.

    Raises
    ------
    NotConnectedError
        If some vertex pair is unreachable.
    """
    if h.n == 1:
        return 0, [0]
    if not h.is_connected:
        raise NotConnectedError("diameter undefined: hypergraph is disconnected")
    if (h.t - 1) * h.m == h.n - 1:
        s = int(np.argmax(_kept_distances(h, 0).dist))
    else:
        s = int(np.argmax(_eccentricities(h)))
    ds = _kept_distances(h, s, keep=True)
    far = int(np.argmax(ds.dist))
    path = _lex_shortest_path(h, s, far,
                              _kept_distances(h, far, keep=True).dist)
    return int(ds.dist[far]), path


def min_eccentricity_vertex(h: Hypergraph) -> int:
    """Lowest-id vertex of minimum eccentricity (a center of h)."""
    if not h.is_connected:
        raise NotConnectedError("eccentricity undefined: disconnected")
    return int(np.argmin(_eccentricities(h)))


#: colour refinement rounds before the partition is given up as discrete.
#: A ball B_r takes r + 1 rounds, a loose path of E edges E/2 + 1 and a
#: graph path of n vertices n/2.  On a 2-vCPU x86 host a round at r = 8
#: (n = 131,071) took 3.4-4.3 ms, about one CG step (3.1 ms) of the
#: Newton-Noda solve on all n vertices, which took 141 of them; a
#: refinement that gives up thus costs about 32 CG steps.
_REFINE_ROUNDS = 32


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: a bijective scramble of uint64s."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _equitable_partition(h: Hypergraph) -> np.ndarray:
    """The cell of every vertex in the coarsest equitable partition.

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
    """
    index = h._edge_index
    # running sums of the edge keys in CSR order: a vertex's sum over its
    # edges is the difference at the ends of its segment (0 on none)
    running = np.zeros(h._indices.size + 1, dtype=np.uint64)
    key = np.ones(h.n, dtype=np.uint64)  # _mix maps 0 to 0
    cells = 1
    for _ in range(_REFINE_ROUNDS):
        edge_key = key[index[:, 0]]
        for j in range(1, h.t):
            edge_key += key[index[:, j]]
        _mix(edge_key)
        np.cumsum(edge_key[h._indices], out=running[1:])
        key += np.diff(running[h._indptr])
        _mix(key)
        ordered = np.sort(key)
        fresh = np.r_[True, ordered[1:] != ordered[:-1]]
        if np.count_nonzero(fresh) == cells:
            return np.searchsorted(ordered[fresh], key)
        cells = np.count_nonzero(fresh)
        if cells == h.n:
            break
    return np.arange(h.n)


def _quotient(h: Hypergraph, cell: np.ndarray) -> tuple[np.ndarray, _EdgeTable]:
    """Cell sizes and edge table of the partition with cells 0..p-1.

    The table holds, once each, the edges at the representatives (the
    lowest vertex id of each cell), their members replaced by cells; a
    representative's position scatters into its cell and every other
    position is dropped.  When the partition is equitable and x is
    constant on its cells, the kernels on the table give the entry of
    A x (and of the Jacobian products) at each cell's representative,
    which is its value at every vertex of the cell.
    """
    cells = int(cell.max()) + 1
    rep = np.full(cells, h.n)
    np.minimum.at(rep, cell, np.arange(h.n))
    rows = h._edge_index[np.unique(_incident_edges(h, rep))]
    members = cell[rows]
    targets = np.where(rows == rep[members], members, cells)
    size = np.bincount(cell, minlength=cells).astype(np.float64)
    return size, _EdgeTable(members, targets, cells)
