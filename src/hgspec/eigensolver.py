"""Iterative solvers for the two spectral quantities.

``spectral_radius`` runs the shifted power iteration for nonnegative
symmetric tensors: from a strictly positive start,

    y = A x + SHIFT * x^[t-1],    x <- y^[1/(t-1)] renormalized in t-norm.

Any positive shift makes the iteration map strictly order-preserving, so
it converges on connected hypergraphs; the eigenvalue is recovered as
the adjacency form at the fixed point.  The shift is fixed at ``SHIFT``
= 1; with none, the iteration cycles on bipartite graphs (t = 2).

``lambda2_estimate`` maximizes |x^T((A - (t m / n^t) J) x)| over the unit
t-norm sphere by seeded multi-start projected gradient ascent with step
halving.  The shifted map is not nonnegative, so no Perron-style power
iteration applies; the returned value is a certified lower estimate of
the shifted spectral norm (the best feasible point seen), not a claimed
global optimum.  The search runs over real vectors by default; a
complex-phase mode exists behind ``SolverConfig.complex_search``.

Both solvers sum with numpy's pairwise ``np.sum`` only, never a BLAS dot
product or norm, so a seeded run gives the same bits under any BLAS
thread count; ``_GAIN_FLOOR`` keeps the ascent from taking the rounding
noise of those sums for progress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .forms import _apply, _shifted, _shifted_grad, t_norm
from .hypergraph import Hypergraph, _require_connected

#: step size below which ascent is treated as stagnated at a local optimum
_STEP_FLOOR = 1e-17

#: relative gain below which a trial point is rounding noise, not progress
_GAIN_FLOOR = 1e-13

#: the positive multiple of x^[t-1] added to A x in the power iteration
SHIFT = 1.0


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


def spectral_radius(h: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Largest eigenvalue of the adjacency tensor, with its Perron vector.

    The returned vector is nonnegative with unit t-norm; the residual is
    the eigen-equation defect max_v |(A x)_v - value * x_v^(t-1)| (the
    additive shift cancels from both sides).
    """
    cfg = cfg or SolverConfig()
    _require_connected(h, "spectral operations")
    t = h.t
    rng = np.random.default_rng(cfg.seed)
    x = 1.0 + 0.01 * rng.random(h.n)
    x /= t_norm(x, t)
    residual = np.inf
    for it in range(1, cfg.max_iters + 1):
        ax = _apply(h, x)
        lam = float(np.sum(x * ax))
        xt1 = x ** (t - 1)
        residual = float(np.max(np.abs(
            ax + SHIFT * xt1 - (lam + SHIFT) * xt1
        )))
        if residual <= cfg.tol:
            return EigenResult(value=lam, vector=x, iterations=it,
                               residual=residual)
        y = ax + SHIFT * xt1
        x = y ** (1.0 / (t - 1))
        x /= t_norm(x, t)
    raise NoConvergence(cfg.max_iters, residual)


def _sphere_residual(x, f_abs, sigma_grad, t):
    """KKT defect of |form| on the t-norm sphere at unit-norm x."""
    if np.iscomplexobj(x):
        psi = np.abs(x) ** (t - 2) * x
    else:
        psi = np.sign(x) * np.abs(x) ** (t - 1)
    return float(np.max(np.abs(sigma_grad / t - f_abs * psi)))


def _ascend(h: Hypergraph, x0: np.ndarray,
            cfg: SolverConfig) -> tuple[EigenResult, bool]:
    """Projected gradient ascent on |shifted form| over the t-norm sphere.

    Returns the restart's result and whether it converged.  Counts every
    objective evaluation against ``cfg.max_iters``.  A trial point is
    accepted only when it gains more than ``_GAIN_FLOOR`` relative.  A
    restart is converged when the KKT residual drops to ``cfg.tol`` or
    the step underflows: no step along the gradient then gains more than
    that margin, though the eigen-defect may still exceed tol.
    """
    t = h.t
    x = x0 / t_norm(x0, t)
    f, grad = _shifted_grad(h, x)
    evals = 1
    eta = 0.1
    converged = False
    residual = np.inf
    while evals < cfg.max_iters:
        if abs(f) == 0.0:
            sigma_grad = grad
        elif np.iscomplexobj(x):
            phase = np.conj(f) / abs(f)
            sigma_grad = np.conj(phase * grad)
        else:
            sigma_grad = grad if f >= 0 else -grad
        residual = _sphere_residual(x, abs(f), sigma_grad, t)
        if residual <= cfg.tol:
            converged = True
            break
        gnorm = float(np.sqrt(np.sum(np.abs(sigma_grad) ** 2)))
        if gnorm == 0.0:
            break
        direction = sigma_grad / gnorm
        accepted = False
        while evals < cfg.max_iters:
            y = x + eta * direction
            y /= t_norm(y, t)
            fy = _shifted(h, y)
            evals += 1
            if abs(fy) > abs(f) * (1.0 + _GAIN_FLOOR):
                x = y
                f, grad = _shifted_grad(h, x)
                eta *= 1.25
                accepted = True
                break
            eta *= 0.5
            if eta < _STEP_FLOOR:
                break
        if not accepted:
            converged = eta < _STEP_FLOOR or residual <= cfg.tol
            break
    return EigenResult(value=float(abs(f)), vector=x, iterations=evals,
                       residual=residual), converged


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
