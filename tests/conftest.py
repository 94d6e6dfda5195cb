"""Shared instance builders and references for the test suite."""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from hgspec import Hypergraph
from hgspec.hypergraph import _merged, _singletons


def cycle_graph(n):
    """Graph cycle C_n as a 2-uniform hypergraph (2-regular)."""
    return Hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Hypergraph(n, 2, [(i, i + 1) for i in range(n - 1)])


def loose_path(edges):
    """t=3 loose path with the given number of edges: {0,1,2},{2,3,4},..."""
    n = 2 * edges + 1
    return Hypergraph(n, 3, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(edges)])


def loose_cycle3():
    """The 3-edge loose cycle {0,1,2},{2,3,4},{4,5,0}."""
    return Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])


def tight_cycle3(n):
    """Tight 3-uniform cycle: edges {i, i+1, i+2} mod n; 3-regular."""
    return Hypergraph(n, 3, [(i, (i + 1) % n, (i + 2) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Hypergraph(10, 2, outer + inner + spokes)


def random_connected_graph(n, p, seed):
    """Seeded G(n, p), resampled until connected."""
    rng = np.random.default_rng(seed)
    while True:
        mask = np.triu(rng.random((n, n)) < p, 1)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if not edges:
            continue
        h = Hypergraph(n, 2, edges)
        if h.is_connected:
            return h


def edge_tuples(h):
    """The edges of h as sorted tuples, in lexicographic order."""
    return tuple(map(tuple, h.edge_array.tolist()))


def is_linear(h):
    """True iff no two edges share two vertices: each vertex pair lies
    in at most one edge; pure Python."""
    pairs = [p for edge in edge_tuples(h)
             for p in itertools.combinations(edge, 2)]
    return len(set(pairs)) == len(pairs)


def adjacency_matrix(h):
    """Dense symmetric adjacency matrix of a 2-uniform hypergraph."""
    assert h.t == 2
    a = np.zeros((h.n, h.n))
    for (i, j) in edge_tuples(h):
        a[i, j] = a[j, i] = 1.0
    return a


def is_equitable(h, cell):
    """True iff every vertex of a cell sees the same multiset of
    other-member cell tuples over its edges; exact, in pure Python."""
    views = [[] for _ in range(h.n)]
    for edge in edge_tuples(h):
        for v in edge:
            views[v].append(tuple(sorted(int(cell[u]) for u in edge
                                         if u != v)))
    seen = {}
    return all(seen.setdefault(int(cell[v]), sorted(views[v]))
               == sorted(views[v]) for v in range(h.n))


def same_partition(a, b):
    """True iff the cell labellings a and b split the vertices alike."""
    pairs = set(zip(map(int, a), map(int, b)))
    return len(pairs) == len(set(map(int, a))) == len(set(map(int, b)))


def partition_of(cell):
    """The partition, with representatives and sizes, that the cell
    labels 0..p-1 give."""
    cell = np.asarray(cell)
    return _merged(_singletons(cell.size), cell)


def layer_perron_value(t, k, r, dps=50):
    """rho of the hypertree ball B_r(t, k) from its (r+1)-variable layer map.

    The Perron vector is constant on each layer, with values y_0..y_r:

        lam y_0^(t-1) = k y_1^(t-1)
        lam y_i^(t-1) = y_(i-1) y_i^(t-2) + (k-1) y_(i+1)^(t-1)
        lam y_r^(t-1) = y_(r-1) y_r^(t-2)

    A float shifted power iteration on the map gives the start, and
    mpmath's Newton solver then finishes at ``dps`` digits with y_0 = 1.
    """
    def layer_map(y):
        out = [k * y[1] ** (t - 1)]
        out += [y[i - 1] * y[i] ** (t - 2) + (k - 1) * y[i + 1] ** (t - 1)
                for i in range(1, r)]
        return out + [y[r - 1] * y[r] ** (t - 2)]

    y = np.ones(r + 1)
    for _ in range(3000):
        y = (np.array(layer_map(y)) + y ** (t - 1)) ** (1.0 / (t - 1))
        y /= y[0]
    start = [layer_map(y)[0]] + list(y[1:])
    with mpmath.workdps(dps):
        def defect(lam, *rest):
            ys = [mpmath.mpf(1)] + list(rest)
            return [f - lam * v ** (t - 1) for f, v in zip(layer_map(ys), ys)]
        sol = mpmath.findroot(defect, [mpmath.mpf(v) for v in start])
        assert all(v > 0 for v in sol), "not the Perron solution"
        return sol[0]


def _partitions(total, parts, cap=None):
    """Non-increasing tuples of at most ``parts`` positive integers with
    the sum ``total``, none above ``cap``."""
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        if parts:
            for rest in _partitions(total - first, parts - 1, first):
                yield (first,) + rest


def _complete_reduced_form(c, mult, n, t):
    """The shifted form of K_n^(t) at the vectors with mult[..., i]
    entries c[..., i] and zeros elsewhere (rows of c and mult), with its
    gradient in c and the t-th power of the t-norm.

    On K_n^(t) the form is t e_t(x) - t m (sum x / n)^t, m = C(n, t);
    e_0..e_t come from the product of (1 + c_i z)^mult_i truncated at
    z^t, and entry v of the gradient in x is t e_(t-1) of x without x_v,
    minus t^2 m / n (sum x / n)^(t-1).
    """
    e = np.zeros(c.shape[:-1] + (t + 1,))
    e[..., 0] = 1.0
    for i in range(c.shape[-1]):
        # mult choose j, then the coefficients of (1 + c_i z)^mult_i
        choose = [np.ones_like(mult[..., i])]
        for j in range(1, t + 1):
            choose.append(choose[-1] * (mult[..., i] - j + 1) / j)
        factor = [choose[j] * c[..., i] ** j for j in range(t + 1)]
        e = np.stack([sum(e[..., a] * factor[j - a] for a in range(j + 1))
                      for j in range(t + 1)], axis=-1)
    m = math.comb(n, t)
    mean = (c * mult).sum(-1) / n
    value = t * e[..., t] - t * m * mean ** t
    drop = sum((-c) ** j * e[..., t - 1 - j, None] for j in range(t))
    grad = mult * (t * drop - t * t * m / n * mean[..., None] ** (t - 1))
    return value, grad, (mult * np.abs(c) ** t).sum(-1)


def _polish_complete_kkt(c, mult, n, t, dps):
    """The KKT point of K_n^(t) near the reduced vector (c, mult), by
    mpmath's Newton solver at ``dps`` digits: (|form|, KKT residual).

    Classes that agree to 1e-6 are merged first, and classes of no
    entries dropped.  The unknowns are the class values and the
    multiplier; the equations are the gradient entry of each class equal
    to the multiplier times t |c|^(t-2) c, and unit t-norm.
    """
    vals, counts = [], []
    for ci, mi in sorted(zip(c.tolist(), mult.tolist())):
        if not mi:
            continue
        if vals and abs(ci - vals[-1]) <= 1e-6 * np.abs(c).max():
            vals[-1] = (vals[-1] * counts[-1] + ci * mi) / (counts[-1] + mi)
            counts[-1] += mi
        else:
            vals.append(ci)
            counts.append(mi)
    counts = [int(k) for k in counts]
    m, k = math.comb(n, t), len(vals)
    with mpmath.workdps(dps):
        def form(cs):
            e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * t
            for ci, mi in zip(cs, counts):
                factor = [mpmath.binomial(mi, j) * ci ** j
                          for j in range(t + 1)]
                e = [mpmath.fsum(e[a] * factor[j - a] for a in range(j + 1))
                     for j in range(t + 1)]
            return e, mpmath.fsum(mi * ci for mi, ci in zip(counts, cs)) / n

        def kkt(*unknowns):
            cs, lam = unknowns[:k], unknowns[k]
            e, mean = form(cs)
            rows = [t * mpmath.fsum((-ci) ** j * e[t - 1 - j]
                                    for j in range(t))
                    - t * t * m / n * mean ** (t - 1)
                    - lam * t * abs(ci) ** (t - 2) * ci for ci in cs]
            return rows + [mpmath.fsum(mi * abs(ci) ** t
                                       for mi, ci in zip(counts, cs)) - 1]

        norm = sum(mi * abs(ci) ** t for mi, ci in zip(counts, vals))
        start = [mpmath.mpf(ci) / mpmath.mpf(norm) ** (mpmath.mpf(1) / t)
                 for ci in vals]
        e, mean = form(start)
        start.append(t * e[t] - t * m * mean ** t)
        root = mpmath.findroot(kkt, start)
        return abs(root[k]), max(abs(r) for r in kkt(*root))


@functools.lru_cache(maxsize=None)
def complete_lambda2_reference(n, t, dps=50, starts=16, steps=150):
    """lambda2 of the complete hypergraph K_n^(t) over real vectors: the
    largest |shifted form| on the unit t-norm sphere, at ``dps`` digits.

    Entry v of the form's gradient is a polynomial of degree t - 1 in
    x_v whose coefficients are symmetric functions of all of x, and the
    multiplier condition puts lambda t |x_v|^(t-2) x_v on the other
    side.  On x_v > 0 and on x_v < 0 that is a polynomial equation of
    degree t - 1 in x_v, so a KKT point takes at most t - 1 positive
    values, t - 1 negative ones and 0, unless one of the two polynomials
    vanishes identically.  The leading coefficients are
    t ((-1)^(t-1) - lambda) on x_v > 0 and t (-1)^(t-1) (1 + lambda) on
    x_v < 0, so that needs |lambda| = 1, and lambda is the form at a KKT
    point; the result must exceed 1 for the reduction to hold, and is
    checked to.

    The search runs over every multiplicity pattern: z zero entries and
    a partition of n - z into at most 2t - 2 classes, each class one
    free value.  Each pattern gets ``starts`` seeded starts of a
    backtracking gradient ascent of |form| / t-norm^t over the class
    values; the best points are then polished as KKT points at ``dps``
    digits (``_polish_complete_kkt``).  Multi-start is not a proof, so
    this is a reference, not an oracle; the tests check it against many
    full-space restarts of the solver.
    """
    cls = 2 * t - 2
    mult = np.array([p + (0,) * (cls - len(p)) for z in range(n)
                     for p in _partitions(n - z, cls)], dtype=float)
    mult = np.repeat(mult, starts, axis=0)
    c = np.random.default_rng(0).standard_normal(mult.shape)
    step = np.full(len(c), 0.1)

    def ratio(c):
        value, grad, norm = _complete_reduced_form(c, mult, n, t)
        return np.abs(value) / norm, value, grad, norm

    score, value, grad, norm = ratio(c)
    for _ in range(steps):
        # the gradient of |form| / norm
        d = np.sign(value)[:, None] * grad / norm[:, None] \
            - (score / norm)[:, None] * t * mult * np.abs(c) ** (t - 2) * c
        d /= np.maximum(np.sqrt((d * d).sum(-1)), 1e-300)[:, None]
        trial = c + step[:, None] * d
        t_score, t_value, t_grad, t_norm = ratio(trial)
        up = t_score > score
        c[up], score[up], value[up] = trial[up], t_score[up], t_value[up]
        grad[up], norm[up] = t_grad[up], t_norm[up]
        step = np.where(up, 1.5 * step, 0.5 * step)
    best = None
    for i in np.argsort(-score)[:5]:
        if score[i] < score.max() * (1 - 1e-6):
            break
        polished, residual = _polish_complete_kkt(c[i], mult[i], n, t, dps)
        assert residual < mpmath.mpf(10) ** (10 - dps)
        assert abs(polished - score[i]) <= 1e-9 * score[i]
        best = polished if best is None else max(best, polished)
    assert best > 1, "a KKT point with |form| = 1 may take any values"
    return best


@pytest.fixture(scope="session")
def small_ball_335():
    from hgspec import hypertree_ball
    return hypertree_ball(3, 3, 5)
