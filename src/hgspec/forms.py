"""Matrix-free adjacency-tensor operator, multilinear form, and t-norm.

The order-t adjacency tensor of a t-uniform hypergraph carries the entry
1/(t-1)! on every permutation of every edge tuple.  None of that is ever
materialized: the (t-1)! permutations cancel the factorial, so

    (A x)_v   = sum over edges e containing v of  prod_{u in e, u != v} x_u
    x^T(A x)  = t * sum over edges e of  prod_{u in e} x_u

and both are evaluated by streaming over the edge list in O(t*m).
Vectors are plain numpy arrays, one scalar per vertex; complex entries
are supported throughout (the root-of-unity certificates need them),
real float64 is the fast path.

Per-edge products are computed branch-free (no sparsity shortcut, no
division) by ``_Products``, over a column-major copy of the edge values:
a prefix and a suffix run of whole-row multiplies, never a reduction
along the short edge tuples, which would run one tiny inner loop per
edge.  On real input they give the bits of a cumulative product along
each edge.  Every sum, at every size, is numpy's pairwise ``np.sum``,
and A x is one ``np.bincount`` over the flattened edges; neither calls
BLAS, so results do not depend on the BLAS thread count.  Against
50-digit mpmath the form sum was within 2.4e-16 relative on up to
65,535 edges (exact rounding: 2.5e-16).

Results do not depend on numpy's CPU dispatch either.  numpy picks its
loops for array powers, complex products and complex magnitudes by
CPU, and their last bits differ, so the package forms each of them from
operations that every CPU rounds alike: ``_power`` multiplies in a
fixed order, ``_product`` takes the real formula of a complex product
and ``_magnitude`` calls ``np.hypot``.

Every evaluation of A, of its Jacobian or of a form in the package goes
through ``_Products`` or, for a form alone, ``_edge_products``, which
multiply the edge products x^e in one order.  A ``_Products`` is built
on a hypergraph's own edges (``_operator``) or on the cells of a vertex
partition (``_quotient``), on which the rho solver iterates.  Every
form is t times the ``np.sum`` of the x^e, so a value a solver reports
is bit for bit the public form at its vector.  A solve keeps one
``_Products`` per operator and asks for A x only where it needs it; a
one-off A x builds one per call, and a one-off form needs no more than
the gathered (m, t) values.  The form of a certificate vector, which
is zero off a few balls, is ``_support_form``: ``_edge_products`` on
the edges at the balls alone, written into an m-long zero array.  The
edges it skips have only +0.0 members, so their dense x^e is +0.0
too, and the sum of the array has the public form's bits.  The public
functions are
:func:`as_vector` plus a kernel.  The solvers call the kernels
directly: they pass checked vectors, and a trace of the public
functions would otherwise count solver steps.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph, _cell_table, _edges_at, _Partition

#: Newton steps of ``_root``: 6 bring its start to within about 2e-16
#: relative of the root, for k = 3 to 399
_ROOT_STEPS = 6


def as_vector(h: Hypergraph, x) -> np.ndarray:
    """Validate and coerce x to a float64/complex128 vector of length n."""
    arr = np.asarray(x)
    if arr.shape != (h.n,):
        raise ValueError(f"vector has shape {arr.shape}, expected ({h.n},)")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def _product(a, b, out: np.ndarray) -> np.ndarray:
    """a * b into ``out``, which may be a or b.

    A complex product is its real formula (ac - bd) + (ad + bc)i, each
    product rounded on its own: numpy's vector loop fuses them into
    multiply-adds on CPUs that have those, so its last bits depend on the
    CPU.  Real products, and products of a real and a complex factor,
    have no such choice.
    """
    if not np.iscomplexobj(out):
        return np.multiply(a, b, out=out)
    imag = a.real * b.imag
    imag += a.imag * b.real
    # out may be a or b: no part of it is written before the last read
    # of that part of a and b (the real parts in the same pass)
    real = np.multiply(a.real, b.real, out=out.real)
    real -= a.imag * b.imag
    out.imag = imag
    return out


def _power(base: np.ndarray, k: int, out: np.ndarray | None = None
           ) -> np.ndarray:
    """base**k for an integer k >= 0, multiplied from the left, into
    ``out`` (not ``base``) if given.

    Every array power in the package is this product: numpy's ``**``
    calls a vectorized pow whose last bits can depend on the CPU.
    """
    out = np.empty_like(base) if out is None else out
    if k == 0:
        out.fill(1.0)
    elif k == 1:
        np.copyto(out, base)
    else:
        np.multiply(base, base, out=out)
        for _ in range(k - 2):
            out *= base
    return out


def _root(base: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """base**(1/k) for base >= 0 and an integer k >= 1, into ``out``
    (not ``base``).

    k = 2 is ``np.sqrt``, which every CPU rounds correctly.  Other k split
    base into m 2^(k q + r) by ``np.frexp``, with 0.5 <= m < 1 and
    0 <= r < k, start at 2^(r/k), which lies within 2^(1/k) of the root
    of z = m 2^r, and take ``_ROOT_STEPS`` Newton steps
    y <- ((k - 1) y + z / y^(k-1)) / k, all multiplies, divides and
    adds, before scaling by 2^q.  numpy's own powers and roots are
    chosen by CPU, and their last bits with them.
    """
    if k == 1:
        np.copyto(out, base)
        return out
    if k == 2:
        return np.sqrt(base, out=out)
    mant, expo = np.frexp(base)
    scale, rest = np.divmod(expo, k)
    z = np.ldexp(mant, rest)
    start = np.array([2.0 ** (r / k) for r in range(k)])
    np.take(start, rest, out=out)
    work = np.empty_like(out)
    for _ in range(_ROOT_STEPS):
        np.divide(z, _power(out, k - 1, work), out=work)
        out *= k - 1
        out += work
        out /= k
    np.ldexp(out, scale, out=out)
    out[base == 0.0] = 0.0
    return out


def _magnitude(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|z| entrywise; a complex one by ``np.hypot``, since numpy's
    complex absolute value has a vector loop whose last bits depend on
    the CPU."""
    if np.iscomplexobj(z):
        return np.hypot(z.real, z.imag, out=out)
    return np.abs(z, out=out)


def _accumulate(arr: np.ndarray):
    total = arr.sum()
    return complex(total) if np.iscomplexobj(arr) else float(total)


class _Products:
    """The products of x over the rows of an edge table, on owned buffers.

    The table is three arrays: position (e, j) reads x at
    ``members[e, j]`` and adds the product of the other entries of row e
    into entry ``targets[e, j]`` of a vector of length ``bins``; a target
    equal to ``bins`` is dropped.  ``t`` is the row length.

    Built for one table and one dtype, float64 or complex128; a solver
    keeps one for the life of a solve, so an evaluation allocates almost
    nothing.  ``monomials`` takes x into a column-major (t, rows) array
    with one ``np.take`` and runs the prefix products down its rows; the
    last prefix row times the last value row is x^e, kept in ``xe``.
    ``apply`` runs the suffix products over the same rows, writes each
    leave-one-out column into a row-major (rows, t) array and adds it up
    into A x.  It must follow the ``monomials`` call at its point, so a
    caller that rejects a point never pays for A x there.  ``jacobian``
    gathers into the value rows, so it comes after ``apply``.
    """

    def __init__(self, members: np.ndarray, targets: np.ndarray, bins: int,
                 dtype):
        rows, self.t = members.shape
        self._index = np.ascontiguousarray(members.T)
        self._targets = targets.ravel()
        self._bins = bins
        self._vals = np.empty((self.t, rows), dtype)
        self._prefix = np.empty((self.t - 2, rows), dtype)
        self._loo = np.empty((rows, self.t), dtype)
        self.xe = np.empty(rows, dtype)

    def _scatter(self, contrib: np.ndarray) -> np.ndarray:
        """Sum the per-position contributions into their targets."""
        index, flat, bins = self._targets, contrib.ravel(), self._bins
        if not np.iscomplexobj(flat):  # np.bincount of none is int64
            out = np.bincount(index, flat, bins)[:bins]
            return out.astype(float, copy=False)
        out = np.empty(bins, dtype=np.complex128)
        out.real = np.bincount(index, weights=flat.real, minlength=bins)[:bins]
        out.imag = np.bincount(index, weights=flat.imag, minlength=bins)[:bins]
        return out

    def _prefixes(self) -> list:
        """Row j is the product of value rows 0 to j, for j < t - 1."""
        return [self._vals[0], *self._prefix]

    def monomials(self, x: np.ndarray) -> np.ndarray:
        """x^e of every row, for a validated x of the table's dtype, in
        ``xe``; the next call overwrites it."""
        vals = self._vals
        t = len(vals)
        # the ids are in range; mode "raise" would fill a temporary first
        np.take(x, self._index, out=vals, mode="clip")
        prefix = self._prefixes()
        for j in range(1, t - 1):
            _product(prefix[j - 1], vals[j], prefix[j])
        return _product(prefix[t - 2], vals[t - 1], self.xe)

    def apply(self) -> np.ndarray:
        """A x at the x of the last ``monomials`` call, a new array; the
        suffix run overwrites the last value row."""
        vals, loo = self._vals, self._loo
        t = len(vals)
        prefix = self._prefixes()
        loo[:, t - 1] = prefix[t - 2]
        suffix = vals[t - 1]
        for j in range(t - 2, 0, -1):
            _product(prefix[j - 1], suffix, loo[:, j])
            _product(suffix, vals[j], suffix)
        loo[:, 0] = suffix
        return self._scatter(loo)

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """sum over rows e at v of x^e (S_e - w_v), a new array, with x
        the last ``monomials`` point and S_e the sum of w over e.

        For real w at a positive x this is (t - 1) X M(x) X w, where
        X = diag(x) and M(x) is the Jacobian of A x^[t-1] over t - 1; at
        w = 1 it is (t - 1) x A x^[t-1].

        The columns (S_e - w_j) x^e take one broadcast subtract and one
        multiply along the value rows, and one copy into the row-major
        array, whose first rows entries hold S_e until then: on a cell
        table's few rows the cost is per call, not per row.
        """
        vals, loo = self._vals, self._loo
        np.take(w, self._index, out=vals, mode="clip")
        sums = np.add(vals[0], vals[1], out=loo.reshape(-1)[:vals.shape[1]])
        for row in vals[2:]:
            sums += row
        np.subtract(sums, vals, out=vals)
        vals *= self.xe
        np.copyto(loo, vals.T)
        return self._scatter(loo)


def _operator(h: Hypergraph, dtype) -> _Products:
    """The operator of h's own edges: its edge index twice, n bins."""
    return _Products(h._edge_index, h._edge_index, h.n, dtype)


def _quotient(h: Hypergraph, part: _Partition) -> _Products:
    """The float64 operator of a vertex partition.

    Its table is ``hypergraph._cell_table``.  When the partition is
    equitable and x is constant on its cells, the operator gives the
    entry of A x (and of the Jacobian products) at each cell's
    representative, which is its value at every vertex of the cell.
    """
    return _Products(*_cell_table(h, part), np.float64)


def _edge_products(values: np.ndarray) -> np.ndarray:
    """Row products of an (m, t) array, one column multiply at a time, in
    the order of ``_Products.monomials``."""
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        _product(out, values[:, j], out)
    return out


class _ShiftedForm:
    """The shifted form of one hypergraph and its gradient.

    The hypergraph's ``_operator`` evaluates both; the gradient is asked
    for after the value at the same point, and only where the caller
    wants it.  The J term is t m (sum x / n)^t, never (t m / n^t)
    (sum x)^t, whose n^t overflows at large t.
    """

    def __init__(self, h: Hypergraph, dtype):
        self.h = h
        self._products = _operator(h, dtype)
        self._mean = 0.0

    def value(self, x: np.ndarray):
        """The shifted form at a validated x of the evaluator's dtype."""
        h = self.h
        form = h.t * _accumulate(self._products.monomials(x))
        self._mean = mean = _accumulate(x) / h.n
        return form - h.t * h.m * mean ** h.t

    def gradient(self) -> np.ndarray:
        """t (A x - (t m / n) (sum x / n)^(t-1)) at the x of the last
        ``value`` call."""
        h = self.h
        grad = self._products.apply()
        grad -= h.t * h.m / h.n * self._mean ** (h.t - 1)
        return np.multiply(h.t, grad, out=grad)


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """(A x)_v = sum over edges at v of the product of the other entries."""
    x = as_vector(h, x)
    products = _operator(h, x.dtype)
    products.monomials(x)
    return products.apply()


def adjacency_form(h: Hypergraph, x) -> float | complex:
    """x^T(A x) = t * sum over edges of x^e.

    Degree-t homogeneous; for real x it equals the inner product of x
    with ``apply_adjacency(h, x)``.
    """
    return h.t * _accumulate(_edge_products(as_vector(h, x)[h._edge_index]))


def shifted_form(h: Hypergraph, x) -> float | complex:
    """x^T((A - (t m / n^t) J) x) where J is the all-ones multilinear map.

    Uses the identity y^T(J y) = (sum_v y_v)^t, so the value is
    ``adjacency_form(h, x) - (t m / n^t) * (sum x)^t``.  Vanishes on the
    all-ones vector of a regular hypergraph, and coincides with the plain
    adjacency form whenever the entries of x sum to zero.
    """
    x = as_vector(h, x)
    return _ShiftedForm(h, x.dtype).value(x)


def t_norm(x, t: int) -> float:
    """(sum |x_v|^t)^(1/t), guarded against overflow by max-scaling."""
    if t < 2:
        raise ValueError(f"t-norm needs t >= 2, got {t}")
    mags = _magnitude(np.asarray(x)).astype(np.float64, copy=False)
    return _t_norm_of(mags, t)


def _t_norm_of(mags: np.ndarray, t: int, out: np.ndarray | None = None,
               weights: np.ndarray | None = None) -> float:
    """``t_norm`` of the magnitudes ``mags``, which it overwrites; the
    powers go to ``out`` if given.  With ``weights``, entry v counts
    weights[v] times, as a cell of that many vertices does."""
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        return 0.0
    mags /= peak
    powers = _power(mags, t, out)
    if weights is not None:
        powers *= weights
    return float(peak * np.sum(powers) ** (1.0 / t))


def t_norm_pow(x, t: int) -> float:
    """sum |x_v|^t, the t-th power of the t-norm without the root."""
    if t < 2:
        raise ValueError(f"t-norm needs t >= 2, got {t}")
    mags = _magnitude(np.asarray(x)).astype(np.float64, copy=False)
    return float(np.sum(_power(mags, t)))


def _support_form(h: Hypergraph, y: np.ndarray, support: np.ndarray
                  ) -> float | complex:
    """``adjacency_form`` of a validated y that is +0.0 off the vertex ids
    ``support``, bit for bit, from the edges with a member there.

    Their x^e (``_edge_products``) are written at their rows of an m-long
    zero array, which is summed whole.  Every other edge has only +0.0
    members, so its dense x^e is +0.0 too: the array holds the dense
    one's bits, and so does its sum.  Likewise |y| on ``support``,
    written into an n-long zero array, is bit for bit ``_magnitude(y)``.
    """
    inside = np.zeros(h.n, dtype=bool)
    inside[support] = True
    hot = _edges_at(h, inside)
    xe = np.zeros(h.m, dtype=y.dtype)
    xe[hot] = _edge_products(y[np.compress(hot, h._edge_index, axis=0)])
    return h.t * _accumulate(xe)
