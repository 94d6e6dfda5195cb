"""Iterative solvers for the two spectral quantities.

``spectral_radius`` runs Newton-Noda iteration (Liu, Guo & Lin, Numer.
Math. 137, 2017) for nonnegative symmetric tensors.  At a strictly
positive x the Collatz-Wielandt bracket

    lo = min_v (A x^[t-1])_v / x_v^(t-1)  <=  rho  <=  max_v (same) = hi

holds (Ng, Qi & Zhou, SIAM J. Matrix Anal. Appl. 31, 2009), and the
iteration stops when its relative width (hi - lo)/hi is at most
``SolverConfig.tol``, so the stopping rule means the same at any size
and scale.  Each Newton step solves one symmetric M-matrix system,
shifted by hi, with matrix-free Jacobi-preconditioned conjugate
gradients on the ``forms`` kernels; 5-9 steps suffice on the hypertree
balls.

``lambda2_estimate`` maximizes |x^T((A - (t m / n^t) J) x)| over the unit
t-norm sphere by seeded multi-start gradient ascent.  A restart ends on
a KKT residual of at most ``SolverConfig.tol``, or when the first-order
gain of its next step is at most ``_GAIN_FLOOR`` of |form|.  The shifted
map is not nonnegative, so no Perron-style power iteration applies; the
returned value is a certified lower estimate of the shifted spectral
norm (the best feasible point seen), not a claimed global optimum.  The
search runs over real vectors by default, over complex ones behind
``SolverConfig.complex_search``.

Both solvers, CG included, sum with numpy's pairwise ``np.sum`` only,
never a BLAS dot product or norm, so a seeded run gives the same bits
under any BLAS thread count; ``_GAIN_FLOOR`` keeps the ascent from
taking the rounding noise of those sums for progress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .forms import (_apply_monomials, _jacobian, _shifted, _shifted_grad,
                    t_norm)
from .hypergraph import Hypergraph, _require_connected

#: relative gain below which a trial point is rounding noise, not progress
_GAIN_FLOOR = 1e-13

#: largest ascent step; accepted steps grow it by 1.25 up to this bound
_STEP_CAP = 1e3

#: relative residual at which CG stops solving for a Newton direction
_CG_RTOL = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, iteration caps, restart count, seed, and search domain."""

    tol: float = 1e-10
    max_iters: int = 100_000
    restarts: int = 32
    seed: int = 0
    complex_search: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class EigenResult:
    """Value estimate with its witness vector and exit diagnostics."""

    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def _cw_bracket(h: Hypergraph, x: np.ndarray):
    """Collatz-Wielandt bracket at a positive x, with the form and x^e.

    Returns (lo, hi, form, prods): the least and greatest of
    (A x^[t-1])_v / x_v^(t-1), which bracket rho; the form
    x^T(A x^[t-1]), which lies between them; and the per-edge monomials
    x^e, which the Jacobian products take.
    """
    ax, prods = _apply_monomials(h, x)
    ratios = ax / x ** (h.t - 1)
    return (float(ratios.min()), float(ratios.max()),
            float(np.sum(x * ax)), prods)


def _newton_direction(h: Hypergraph, x: np.ndarray, hi: float,
                      prods: np.ndarray) -> np.ndarray:
    """Approximate solution z of (hi D - M(x)) z = x^[t-1] by Jacobi CG.

    D = diag(x^(t-2)), and M(x) is the Jacobian of A x^[t-1] divided by
    t - 1, so M(x) x = A x^[t-1].  CG runs on the system scaled by
    (t - 1) X on the left and X on the right, X = diag(x), for w = z / x:

        (t - 1) hi x_v^t w_v - sum over edges e at v of x^e (S_e - w_v)
            = (t - 1) x_v^t,

    with S_e the sum of w over e.  That product is matrix-free, divides
    by nothing, and has the diagonal (t - 1) hi x^t, the Jacobi
    preconditioner.  The buffers are allocated once per call and every
    reduction is ``np.sum``.  CG stops when the residual norm has
    fallen by the factor ``_CG_RTOL``, on a nonpositive curvature, or
    after n steps.
    """
    t, n = h.t, h.n
    # writable: np.take and np.bincount copy a read-only index every call
    edges = h.edge_array.copy()
    slots = np.empty(edges.shape)
    # the edge sums S and the scratch vector are never needed at once
    shared = np.empty(max(n, h.m))
    sums, work = shared[:h.m], shared[:n]
    r = (t - 1) * x ** t
    diag = hi * r
    w = np.zeros(n)
    p = r / diag
    rz = float(np.sum(r * p))
    stop = _CG_RTOL ** 2 * float(np.sum(r * r))
    for _ in range(n):
        kp = _jacobian(n, edges, prods, p, slots, sums)
        np.multiply(diag, p, out=work)
        np.subtract(work, kp, out=kp)
        np.multiply(p, kp, out=work)
        curvature = float(np.sum(work))
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        np.multiply(p, alpha, out=work)
        w += work
        kp *= alpha
        r -= kp
        np.multiply(r, r, out=work)
        if float(np.sum(work)) <= stop:
            break
        np.divide(r, diag, out=work)
        np.multiply(r, work, out=kp)
        rz, rz_old = float(np.sum(kp)), rz
        del kp  # before the next product allocates its own
        p *= rz / rz_old
        p += work
    w *= x
    return w


def _newton_step(h: Hypergraph, x: np.ndarray, hi: float,
                 prods: np.ndarray) -> np.ndarray | None:
    """The next Newton-Noda iterate, or None when no step can be taken.

    Moves to ((t-2) x + theta z)/(t-1), theta = x.x / x.z, halving the
    move until the iterate is positive (Liu, Guo & Lin's safeguard), and
    renormalizes in the t-norm.
    """
    t = h.t
    z = _newton_direction(h, x, hi, prods)
    xz = float(np.sum(x * z))
    if not 0.0 < xz < np.inf:
        return None
    z *= float(np.sum(x * x)) / xz
    z -= x
    z /= t - 1
    step = x + z
    while not np.all(step > 0.0):
        z *= 0.5
        np.add(x, z, out=step)
    step /= t_norm(step, t)
    return step


def spectral_radius(h: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Largest eigenvalue of the adjacency tensor, with its Perron vector.

    Newton-Noda iteration from a strictly positive start: each step
    takes the upper end hi of the Collatz-Wielandt bracket as its shift
    (``_newton_step``).  It stops when the bracket's relative width
    (hi - lo)/hi is at most ``cfg.tol``.

    The returned vector is positive with unit t-norm.  ``value`` is the
    form at it, which lies in the bracket, so |value - rho| <=
    residual * hi, where ``residual`` is the relative width.
    ``iterations`` counts Newton steps; ``cfg.max_iters`` caps them.
    """
    cfg = cfg or SolverConfig()
    _require_connected(h, "spectral operations")
    rng = np.random.default_rng(cfg.seed)
    x = 1.0 + 0.01 * rng.random(h.n)
    x /= t_norm(x, h.t)
    for it in range(cfg.max_iters + 1):
        lo, hi, value, prods = _cw_bracket(h, x)
        residual = (hi - lo) / hi if hi > 0.0 else 0.0
        if residual <= cfg.tol:
            return EigenResult(value=value, vector=x, iterations=it,
                               residual=residual)
        if it == cfg.max_iters:
            break
        x = _newton_step(h, x, hi, prods)
        if x is None:
            raise NoConvergence(it, residual)
    raise NoConvergence(cfg.max_iters, residual)


def _ascend(h: Hypergraph, x0: np.ndarray,
            cfg: SolverConfig) -> tuple[EigenResult, bool]:
    """Gradient ascent on |shifted form| over the t-norm sphere.

    Returns the restart's result and whether it converged.  A trial
    point, renormalized in the t-norm, is accepted when it gains more
    than ``_GAIN_FLOOR`` relative; the step then grows 1.25-fold, up to
    ``_STEP_CAP``, and a rejected trial halves it.  The restart converges
    when the KKT defect r drops to ``cfg.tol``, or after a rejection
    when the halved step's first-order gain, step * t Re<d, r> along the
    unit direction d, is at most ``_GAIN_FLOOR`` of |form|.  That stop
    is a first-order prediction, not a proof that no shorter step gains:
    at a nonpositive slope it ends the restart on its first rejection,
    at any step size.  It fails on a zero gradient or when its objective
    evaluations reach ``cfg.max_iters``.
    """
    t = h.t
    x = x0 / t_norm(x0, t)
    f, grad = _shifted_grad(h, x)
    evals = 1
    eta = 0.1

    def stop(converged):
        return EigenResult(value=float(abs(f)), vector=x, iterations=evals,
                           residual=residual), converged

    while True:
        # the gradient of |f|, and of the t-norm's t-th power over t
        if np.iscomplexobj(x):
            sigma_grad = np.conj(np.conj(f) / abs(f) * grad) if f else grad
            psi = np.abs(x) ** (t - 2) * x
        else:
            sigma_grad = grad if f >= 0 else -grad
            psi = np.sign(x) * np.abs(x) ** (t - 1)
        r = sigma_grad / t - abs(f) * psi  # the KKT defect
        residual = float(np.max(np.abs(r)))
        if residual <= cfg.tol:
            return stop(True)
        gnorm = float(np.sqrt(np.sum(np.abs(sigma_grad) ** 2)))
        if gnorm == 0.0:
            return stop(False)
        direction = sigma_grad / gnorm
        # gain of |f| on the sphere per unit step, to first order
        slope = t * float(np.sum((np.conj(direction) * r).real))
        while True:
            if evals >= cfg.max_iters:
                return stop(False)
            y = x + eta * direction
            y /= t_norm(y, t)
            fy = _shifted(h, y)
            evals += 1
            if abs(fy) > abs(f) * (1.0 + _GAIN_FLOOR):
                break
            eta *= 0.5
            if eta * slope <= abs(f) * _GAIN_FLOOR:
                return stop(True)
        x = y
        f, grad = _shifted_grad(h, x)
        eta = min(1.25 * eta, _STEP_CAP)


def lambda2_estimate(h: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Best-over-restarts lower estimate of the shifted spectral norm.

    Each restart ascends from a seeded random start; the winner is the
    largest value, ties broken by lowest restart index.  Raises
    ``NoConvergence`` when no restart converged at all.
    """
    cfg = cfg or SolverConfig()
    _require_connected(h, "spectral operations")
    n = h.n
    rng = np.random.default_rng(cfg.seed)
    best: EigenResult | None = None
    worst_fail: EigenResult | None = None
    for _ in range(cfg.restarts):
        if cfg.complex_search:
            x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            x0 = rng.standard_normal(n)
        run, converged = _ascend(h, x0, cfg)
        if converged:
            if best is None or run.value > best.value:
                best = run
        elif worst_fail is None or run.value > worst_fail.value:
            worst_fail = run
    if best is None:
        raise NoConvergence(worst_fail.iterations, worst_fail.residual)
    return best
