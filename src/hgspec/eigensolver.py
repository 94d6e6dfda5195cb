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
balls.  The positive eigenvector of a connected hypergraph is unique
(Friedland, Gaubert & Han, Linear Algebra Appl. 438, 2013), so it is
constant on the cells of every equitable partition, and the iteration
runs on one value per cell of the coarsest one, on the cell operator of
``forms._quotient``, with every inner product weighted by cell size.
The stop is still taken on all n vertices.

``lambda2_estimate`` maximizes |x^T((A - (t m / n^t) J) x)| over the unit
t-norm sphere by seeded multi-start shifted power steps: SS-HOPM (Kolda
& Mayo, SIAM J. Matrix Anal. Appl. 32, 2011) with an adaptive shift as
in GEAP (Kolda & Mayo, SIAM J. Matrix Anal. Appl. 35, 2014).  Each step
maps x to sign(G) |G|^(1/(t-1)), renormalized, where G is the gradient
of the objective plus a shift times t |x|^(t-2) x, the sphere's normal;
it has no step size.  One evaluation budget covers all restarts.  The
shifted map is not nonnegative, so no Perron-style certificate applies;
the returned value is a certified lower estimate of the shifted spectral
norm (the best feasible point seen), not a claimed global optimum.  The
search runs over real vectors by default, over complex ones behind
``SolverConfig.complex_search``.  One ``forms._ShiftedForm`` per call
evaluates the objective; a run asks it for the gradient only at a trial
point it accepts.

Both solvers, CG included, sum with numpy's pairwise ``np.sum`` only,
never a BLAS dot product or norm, so a seeded run gives the same bits
under any BLAS thread count; ``_GAIN_FLOOR`` keeps the ascent from
taking the rounding noise of those sums for progress.  Every power of
an array is ``forms._power``, a product in a fixed order, every root
``forms._root``, a square root or Newton steps, and every complex
product and magnitude is formed by real operations (``forms._product``,
``forms._magnitude``): numpy's own loops for those are chosen by CPU,
and their last bits with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .forms import (_Products, _ShiftedForm, _magnitude, _operator, _power,
                    _product, _quotient, _root, _t_norm_of, t_norm)
from .hypergraph import Hypergraph, _equitable_partition, _require_connected

#: relative gain below which a trial point is rounding noise, not progress
_GAIN_FLOOR = 1e-13

#: evaluations per restart in the lambda2 budget ...
_EVALS_PER_RESTART = 12

#: ... raised on small inputs to this many edge products per restart
_PRODUCTS_PER_RESTART = 36_000

#: relative residual at which CG stops solving for a Newton direction
_CG_RTOL = 1e-4

#: moves of x_0 that may bring the form at a returned x into its bracket
_NUDGES = 16


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, iteration caps, restart count, seed, and search domain.

    ``tol`` ends rho at that relative width of its Collatz-Wielandt
    bracket and a lambda2 run at that relative KKT residual.
    ``max_iters`` caps rho's steps and lambda2's evaluations in all.
    ``restarts`` is lambda2's search effort: its number of seeded starts,
    and with them its evaluation budget (``_budget`` per restart).
    ``seed`` drives the lambda2 restarts only; rho starts from the
    constant vector.
    """

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


def _cw_bracket(products: _Products, x: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bracket of the operator ``products`` at a positive x.

    Returns (lo, hi), the least and greatest of (A x^[t-1])_v / x_v^(t-1),
    which bracket rho; ``products`` is left at x for the Jacobian.
    """
    products.monomials(x)
    ratios = products.apply()
    ratios /= _power(x, products.t - 1)
    return float(ratios.min()), float(ratios.max())


def _width(lo: float, hi: float) -> float:
    """The bracket's relative width, 0 when A x vanishes (m = 0)."""
    return (hi - lo) / hi if hi > 0.0 else 0.0


def _newton_direction(products: _Products, size: np.ndarray, x: np.ndarray,
                      hi: float) -> np.ndarray:
    """Approximate solution z of (hi D - M(x)) z = x^[t-1] by Jacobi CG.

    D = diag(x^(t-2)), and M(x) is the Jacobian of A x^[t-1] divided by
    t - 1, so M(x) x = A x^[t-1].  CG runs on the system scaled by
    (t - 1) X on the left and X on the right, X = diag(x), for w = z / x:

        (t - 1) hi x_v^t w_v - sum over edges e at v of x^e (S_e - w_v)
            = (t - 1) x_v^t,

    with S_e the sum of w over e.  That product is matrix-free, divides
    by nothing, and has the diagonal (t - 1) hi x^t, the Jacobi
    preconditioner; ``products``, left at x, forms it.  x, z and w hold
    one value per cell; the system maps vectors constant on the cells of
    an equitable partition to such vectors, and every inner product
    weights cell c by its vertex count ``size[c]``, so CG takes the steps
    it would take on the n vertices.  Every reduction is ``np.sum``, and
    every product and sum keeps one order, which fixes its bits: the size
    leads the two sums before the loop and trails those in it.  CG stops
    when the residual norm has fallen by the factor ``_CG_RTOL``, on a
    nonpositive curvature, or after one step per cell.
    """
    t, n = products.t, x.size
    r = (t - 1) * _power(x, t)
    diag = hi * r
    w = np.zeros(n)
    p = r / diag
    rz = float(np.sum(size * r * p))
    stop = _CG_RTOL ** 2 * float(np.sum(size * r * r))
    for _ in range(n):
        kp = diag * p - products.jacobian(p)
        curvature = float(np.sum(p * kp * size))
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        w += p * alpha
        r -= kp * alpha
        if float(np.sum(r * r * size)) <= stop:
            break
        z = r / diag
        rz, rz_old = float(np.sum(r * z * size)), rz
        p = p * (rz / rz_old) + z
    return w * x


def _newton_step(products: _Products, size: np.ndarray, x: np.ndarray,
                 hi: float) -> np.ndarray | None:
    """The next Newton-Noda iterate, or None when no step can be taken.

    Moves to ((t-2) x + theta z)/(t-1), theta = x.x / x.z, halving the
    move until the iterate is positive (Liu, Guo & Lin's safeguard), and
    renormalizes in the t-norm; the inner products weight cells by size.
    """
    t = products.t
    z = _newton_direction(products, size, x, hi)
    xz = float(np.sum(size * x * z))
    if not 0.0 < xz < np.inf:
        return None
    z = (z * (float(np.sum(size * x * x)) / xz) - x) / (t - 1)
    step = x + z
    while not np.all(step > 0.0):
        z *= 0.5
        np.add(x, z, out=step)
    step /= _t_norm_of(step.copy(), t, weights=size)
    return step


def _newton_noda(products: _Products, size: np.ndarray, tol: float,
                 budget: int) -> tuple[np.ndarray, int, tuple[float, float]]:
    """Newton-Noda on the operator ``products`` from the constant vector.

    Each step takes the upper end hi of the iterate's Collatz-Wielandt
    bracket as its shift (``_newton_step``).  Returns the last iterate,
    the number of steps, at most ``budget``, and the iterate's bracket
    (``_cw_bracket``), with ``products`` left at the iterate: it stops
    when the bracket's relative width is at most ``tol``, or earlier
    when no step can be taken or an iterate equals, bit for bit, the
    last one kept at a power-of-two step: it would then repeat for ever.
    """
    t = products.t
    x = np.ones(size.size)
    x /= _t_norm_of(x.copy(), t, weights=size)
    for steps in range(budget + 1):
        if steps & (steps - 1) == 0:  # 0 or a power of 2
            kept = x
        lo, hi = _cw_bracket(products, x)
        if _width(lo, hi) <= tol or steps == budget:
            break
        step = _newton_step(products, size, x, hi)
        if step is None or np.array_equal(step, kept):
            break
        x = step
    return x, steps, (lo, hi)


def _certified(products: _Products, x: np.ndarray, steps: int,
               bracket: tuple[float, float]) -> EigenResult:
    """The result at x, given ``bracket`` = ``_cw_bracket(products, x)``.

    The solve on all n vertices has taken that bracket already.
    ``value`` is the form at x, bit for bit ``adjacency_form``, and
    ``residual`` the relative width of the bracket the public operator
    gives there.  The form is a mean of the ratios weighted by x^t, so it
    lies in the bracket up to rounding.  Where rounding puts it outside,
    as at the constant vector of a regular input, whose bracket has width
    0, x_0 is raised (form below the bracket) or lowered (above it) by
    2^-52 relative, then by twice as much, and so on, at most
    ``_NUDGES`` times: the ratio at vertex 0 then moves past the form,
    and the form moves the other way.  On 111 regular inputs (cycles,
    complete and random regular ones) one or two moves sufficed, and the
    width stayed below 2e-15.
    """
    t = products.t
    lo, hi = bracket
    for j in range(_NUDGES + 1):
        value = t * float(np.sum(products.xe))
        if lo <= value <= hi or j == _NUDGES:
            break
        x[0] *= 1.0 + (1.0 if value < lo else -1.0) * 2.0 ** (j - 52)
        lo, hi = _cw_bracket(products, x)
    return EigenResult(value=value, vector=x, iterations=steps,
                       residual=_width(lo, hi))


def _budget(h: Hypergraph) -> int:
    """Evaluations per lambda2 restart: ``_EVALS_PER_RESTART``, or enough
    for ``_PRODUCTS_PER_RESTART`` edge products on a small input.  An
    evaluation counts as max(m, n t / 8) products: besides its m edge
    products it does O(n t) work on the vertices (``_power``, ``_root``,
    ``_t_norm_of``)."""
    work = max(8 * h.m, h.n * h.t)
    return max(_EVALS_PER_RESTART, -(-8 * _PRODUCTS_PER_RESTART // work))


def spectral_radius(h: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Largest eigenvalue of the adjacency tensor, with its Perron vector.

    The Perron vector of a connected hypergraph is unique, so it is
    constant on the cells of its coarsest equitable partition
    (``_equitable_partition``; it refines on the layers that a
    generated hypertree ball carries, and on all n vertices otherwise,
    a ball read from a file included).  Newton-Noda iteration runs on
    one value per cell, from the constant vector, until the
    Collatz-Wielandt bracket on the cells is at most ``cfg.tol`` wide
    relative; the cell vector is then lifted to the n vertices, where
    the bracket is taken again.  The solver returns only when that
    bracket's relative width (hi - lo)/hi is at most ``cfg.tol``.
    Otherwise (a hash collision merged cells, or rounding) it restarts
    from the constant vector on all n vertices, the partition into
    singletons.  Inputs whose partition is discrete, or whose
    refinement gave up, start there.

    The returned vector is positive with unit t-norm.  ``value`` is the
    form at it, which lies in the bracket, so |value - rho| <=
    residual * hi, where ``residual`` is the relative width on all n
    vertices.  ``iterations`` counts steps: the Newton steps on the
    cells and on the vertices, and the lift from cells to vertices.
    ``cfg.max_iters`` caps them; ``cfg.seed`` plays no part.  A solve
    whose iterates repeat raises ``NoConvergence`` at once.
    """
    cfg = cfg or SolverConfig()
    _require_connected(h, "spectral operations")
    part = _equitable_partition(h)
    steps = 0
    if part.rep.size < h.n:
        x, steps, _ = _newton_noda(_quotient(h, part), part.size, cfg.tol,
                                   cfg.max_iters - 1)
        steps += 1  # the lift to the n vertices
        x = x[part.cell]
    part = None  # the cell solve's arrays go before the n-vertex operator
    products = _operator(h, np.float64)
    if steps:
        result = _certified(products, x, steps, _cw_bracket(products, x))
        if result.residual <= cfg.tol:
            return result
        if steps == cfg.max_iters:
            raise NoConvergence(steps, result.residual)
    x, more, bracket = _newton_noda(products, np.ones(h.n), cfg.tol,
                                    cfg.max_iters - steps)
    result = _certified(products, x, steps + more, bracket)
    if result.residual <= cfg.tol:
        return result
    raise NoConvergence(result.iterations, result.residual)


def _ascend(form: _ShiftedForm, x: np.ndarray, sign: int, budget: int,
            tol: float) -> EigenResult:
    """Shifted power steps on the t-norm sphere from x, which it
    normalizes in place, in at most ``budget`` evaluations.

    The objective g is |f| on a complex search and sign f on a real one,
    with sign 0 standing for the sign of f at x.  Its gradient plus the
    shift, G = grad g(x) + alpha t |x|^(t-2) x, gives the trial point
    sign(G) |G|^(1/(t-1)) (the phase of G on a complex search), in the
    t-norm.  A trial that gains more than ``_GAIN_FLOOR`` relative is
    accepted, and alpha halves, or drops to 0 once it is below |g|.  A
    rejected trial sets alpha to |g| (at g = 0, to the pull
    max_v |grad g|_v / (t max_v |x_v|^(t-1)), which is |g| at a KKT
    point), or doubles it from there.  Only an accepted point's gradient
    is evaluated.  A start where f and its gradient are both 0, as when
    every edge product underflows, starts again, at one more evaluation,
    from the same signs or phases at equal magnitudes.

    The run ends when the relative KKT residual
    max_v |r_v| / (|g| max_v |x_v|^(t-1)), r = grad g / t - g |x|^(t-2) x,
    is at most ``tol``; when the budget is spent; or when no shift can
    gain: a rejected trial whose shift is so large that the first-order
    gain of any larger one, t sum_v |r_v|^2 / |x_v|^(t-2) / (|g| + alpha)
    or less, is at most ``_GAIN_FLOOR`` |g|, or is 2^53 times the pull,
    past which the shift term rounds the gradient away (the first test
    alone would wait for ever as g nears 0).  ``iterations`` counts the
    evaluations and ``residual`` is the relative KKT residual at the
    returned x (1 where g = 0 and r is not).  The n-vectors of a step
    are allocated once and written with ``out=``.
    """
    t = form.h.t
    x /= t_norm(x, t)
    complex_search = np.iscomplexobj(x)
    f = form.value(x)
    grad = form.gradient()
    evals = 1
    if not (f or grad.any()) and budget > 1:
        # every product underflowed (large t): the same signs or phases at
        # equal magnitudes give edge products of modulus 1/n
        np.divide(x, _magnitude(x), out=x, where=x != 0)
        x /= t_norm(x, t)
        f = form.value(x)
        grad = form.gradient()
        evals = 2
    if not complex_search:
        sign = sign or (-1 if f < 0 else 1)
    g = abs(f) if complex_search else sign * f
    alpha = 0.0
    y, psi, r = (np.empty_like(x) for _ in range(3))
    mags, work = np.empty(x.size), np.empty(x.size)
    while True:
        # grad becomes the gradient of g
        if complex_search:
            if f:
                _product(np.conj(f) / abs(f), grad, grad)
                np.conjugate(grad, out=grad)
        elif sign < 0:
            np.negative(grad, out=grad)
        # psi = |x|^(t-2) x, the gradient of the t-norm's t-th power over t
        _magnitude(x, mags)
        peak = float(mags.max())
        np.multiply(_power(mags, t - 2, work), x, out=psi)
        np.divide(grad, t, out=r)
        np.multiply(g, psi, out=y)
        r -= y  # the KKT defect
        _magnitude(r, mags)
        defect, scale = float(mags.max()), abs(g) * peak ** (t - 1)
        # at g = 0 all of grad g / t is defect: residual 1
        residual = defect / scale if scale else float(defect > 0.0)
        if residual <= tol:
            break
        reach = None  # read only after a rejected trial
        if alpha < abs(g):
            alpha = 0.0
        while evals < budget:
            np.multiply(alpha * t, psi, out=y)
            y += grad
            # y becomes the sign or phase of G times |G|^(1/(t-1)), whose
            # magnitudes, in work, give its t-norm
            _root(_magnitude(y, mags), t - 1, work)
            if complex_search:
                np.divide(work, mags, out=mags, where=mags > 0.0)
                y.real *= mags
                y.imag *= mags
            elif t > 2:
                np.copysign(work, y, out=y)
            y /= _t_norm_of(work, t, mags)
            fy = form.value(y)
            evals += 1
            gy = abs(fy) if complex_search else sign * fy
            if gy > g + abs(g) * _GAIN_FLOOR:
                break
            # the largest entry of grad g / t over that of the normal
            pull = float(_magnitude(grad, mags).max()) / (t * peak ** (t - 1))
            if reach is None:
                # t sum |r_v|^2 / |x_v|^(t-2); a zero x_v counts |r_v|^2
                _power(_magnitude(x, mags), t - 2, work)
                _magnitude(r, mags)
                mags *= mags
                np.divide(mags, work, out=mags, where=work > 0.0)
                reach = t * float(np.sum(mags))
            if reach <= (abs(g) + alpha) * abs(g) * _GAIN_FLOOR \
                    or alpha >= 2.0 ** 53 * pull:
                return EigenResult(abs(g), x, evals, residual)
            alpha = max(2.0 * alpha, abs(g)) or pull
        else:
            break
        x, y, f, g = y, x, fy, gy
        alpha /= 2.0
        grad = form.gradient()
    return EigenResult(abs(g), x, evals, residual)


def lambda2_estimate(h: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Best-over-runs lower estimate of the shifted spectral norm.

    Each of ``cfg.restarts`` seeded random starts runs ``_ascend``.  On a
    real search with even t it runs twice, for g = f and for g = -f: an
    ascent of |f| never changes the sign of f.  With odd t, f(-x) =
    -f(x), so one run on the sign of f at the start covers both.  One
    budget of ``_budget`` evaluations per restart, at most
    ``cfg.max_iters``, covers all runs.  Restarts run in turn, each on
    what the earlier ones left; the first run of an even-t pair takes at
    most half of it, and the second what is then left.  A run depends
    only on its start, its sign and its budget.  The winner is the
    largest value, ties broken by the earliest run.

    ``iterations`` is the total number of evaluations and ``residual``
    the relative KKT residual at the returned vector (see ``_ascend``).
    Every run ends at a feasible point, so ``value`` is a certified lower
    estimate however the runs end, and nothing is raised when
    ``residual`` is above ``cfg.tol``.
    """
    cfg = cfg or SolverConfig()
    _require_connected(h, "spectral operations")
    n = h.n
    rng = np.random.default_rng(cfg.seed)
    form = _ShiftedForm(h, np.complex128 if cfg.complex_search
                        else np.float64)
    pool = min(cfg.restarts * _budget(h), cfg.max_iters)
    best: EigenResult | None = None
    spent = 0
    for _ in range(cfg.restarts):
        if spent == pool:
            break
        if cfg.complex_search:
            x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            x0 = rng.standard_normal(n)
        if cfg.complex_search or h.t % 2:
            runs = [(x0, 0, pool)]
        else:
            runs = [(x0.copy(), 1, spent + (pool - spent + 1) // 2),
                    (x0, -1, pool)]
        for x, sign, end in runs:
            if spent == end:
                break
            run = _ascend(form, x, sign, end - spent, cfg.tol)
            spent += run.iterations
            if best is None or run.value > best.value:
                best = run
    return EigenResult(best.value, best.vector, spent, best.residual)
