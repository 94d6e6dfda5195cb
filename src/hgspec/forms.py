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
division) by loops over the t edge columns: a prefix and a suffix run of
whole-column multiplies, never a reduction along the short rows, which
would run one tiny inner loop per edge.  On real input they give the
bits of a row-wise cumulative product.  Every sum, at every size,
is numpy's pairwise ``np.sum``, and A x is one ``np.bincount`` over the
flattened edges; neither calls BLAS, so results do not depend on the
BLAS thread count.  Against 50-digit mpmath the form sum was within
2.4e-16 relative on up to 65,535 edges (exact rounding: 2.5e-16).

Every evaluation of A, of its Jacobian or of a form in the package is
one of the private kernels here (``_apply_monomials``, ``_jacobian``,
``_form``, ``_shifted_grad``), on the hypergraph's private edge index
``Hypergraph._edge_index``, which is writable, so numpy indexes with it
without a copy.  One kernel forms the edge products x^e,
``_edge_products``, and every form is t times their ``np.sum``, so a
value a solver reports is bit for bit the public form at its vector.
The public functions are :func:`as_vector` plus a kernel.  The solvers
call the kernels directly: they pass checked vectors, and a trace of
the public functions would otherwise count solver steps.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph


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


def _partial_products(values: np.ndarray) -> np.ndarray:
    """Leave-one-out products of the t columns of an (m, t) array.

    A prefix run of whole-column multiplies, then a suffix run from the
    right, each in the order of a cumulative product along the rows.
    """
    t = values.shape[1]
    out = np.empty_like(values)
    out[:, 0] = 1.0
    for j in range(1, t):
        np.multiply(out[:, j - 1], values[:, j - 1], out=out[:, j])
    suffix = values[:, t - 1].copy()
    for j in range(t - 2, -1, -1):
        out[:, j] *= suffix
        if j:
            suffix *= values[:, j]
    return out


def _edge_products(values: np.ndarray) -> np.ndarray:
    """Row products of an (m, t) array, one column multiply at a time."""
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        out *= values[:, j]
    return out


def _accumulate(arr: np.ndarray):
    total = arr.sum()
    return complex(total) if np.iscomplexobj(arr) else float(total)


def _scatter_columns(h: Hypergraph, contrib: np.ndarray) -> np.ndarray:
    """Sum the (m, t) per-position contributions into a length-n vector."""
    index = h._edge_index.ravel()
    flat = contrib.ravel()
    if not np.iscomplexobj(flat):
        return np.bincount(index, weights=flat, minlength=h.n)
    out = np.empty(h.n, dtype=np.complex128)
    out.real = np.bincount(index, weights=flat.real, minlength=h.n)
    out.imag = np.bincount(index, weights=flat.imag, minlength=h.n)
    return out


def _apply_monomials(h: Hypergraph, x: np.ndarray):
    """A x and the per-edge monomials x^e, for a validated x."""
    vals = x[h._edge_index]
    return _scatter_columns(h, _partial_products(vals)), _edge_products(vals)


def _form(h: Hypergraph, x: np.ndarray):
    """x^T(A x) = t * sum over edges of x^e, for a validated x."""
    return h.t * _accumulate(_edge_products(x[h._edge_index]))


def _j_coefficient(h: Hypergraph) -> float:
    """t m / n^t, the weight of J in the shifted map."""
    return h.t * h.m / float(h.n) ** h.t


def _shifted_grad(h: Hypergraph, x: np.ndarray):
    """Shifted form and its holomorphic gradient t (A x - c (sum x)^(t-1)),
    for a validated x."""
    t = h.t
    c = _j_coefficient(h)
    total = _accumulate(x)
    ax, monomials = _apply_monomials(h, x)
    form = t * _accumulate(monomials)
    return form - c * total ** t, t * (ax - c * total ** (t - 1))


def _jacobian(h: Hypergraph, prods: np.ndarray, w: np.ndarray,
              slots: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum over edges e at v of x^e (S_e - w_v), S_e the sum of w over e.

    With ``prods`` the edge products x^e of a positive x, this is
    (t - 1) X M(x) X w, where X = diag(x) and M(x) is the Jacobian of
    A x^[t-1] divided by t - 1; at w = 1 it is (t - 1) x A x^[t-1].
    ``slots`` (m, t) and ``sums`` (m,) are overwritten scratch space.
    """
    # the ids are in range; mode "raise" would fill a temporary first
    np.take(w, h._edge_index, out=slots, mode="clip")
    np.add(slots[:, 0], slots[:, 1], out=sums)
    for j in range(2, h.t):
        sums += slots[:, j]
    for j in range(h.t):
        column = slots[:, j]
        np.subtract(sums, column, out=column)
        column *= prods
    return _scatter_columns(h, slots)


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """(A x)_v = sum over edges at v of the product of the other entries."""
    return _apply_monomials(h, as_vector(h, x))[0]


def edge_contributions(h: Hypergraph, x) -> np.ndarray:
    """Per-edge monomials x^e = prod_{u in e} x_u, in edge-list order."""
    return _edge_products(as_vector(h, x)[h._edge_index])


def adjacency_form(h: Hypergraph, x) -> float | complex:
    """x^T(A x) = t * sum over edges of x^e.

    Degree-t homogeneous; for real x it equals the inner product of x
    with ``apply_adjacency(h, x)``.
    """
    return _form(h, as_vector(h, x))


def shifted_form(h: Hypergraph, x) -> float | complex:
    """x^T((A - (t m / n^t) J) x) where J is the all-ones multilinear map.

    Uses the identity y^T(J y) = (sum_v y_v)^t, so the value is
    ``adjacency_form(h, x) - (t m / n^t) * (sum x)^t``.  Vanishes on the
    all-ones vector of a regular hypergraph, and coincides with the plain
    adjacency form whenever the entries of x sum to zero.
    """
    return _shifted_grad(h, as_vector(h, x))[0]


def t_norm(x, t: int) -> float:
    """(sum |x_v|^t)^(1/t), guarded against overflow by max-scaling."""
    if t < 2:
        raise ValueError(f"t-norm needs t >= 2, got {t}")
    arr = np.asarray(x)
    mags = np.abs(arr).astype(np.float64, copy=False)
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        return 0.0
    return float(peak * (np.sum((mags / peak) ** t)) ** (1.0 / t))


def t_norm_pow(x, t: int) -> float:
    """sum |x_v|^t, the t-th power of the t-norm without the root."""
    if t < 2:
        raise ValueError(f"t-norm needs t >= 2, got {t}")
    mags = np.abs(np.asarray(x)).astype(np.float64, copy=False)
    return float(np.sum(mags ** t))
