"""Closed-form threshold and decay-profile computations.

The central constant is the degree/uniformity threshold

    rho(t, k) = (t / (t-1)) * ((t-1)(k-1))^(1/t),

the spectral radius of the infinite k-regular t-uniform hypertree and the
floor that the lower-bound certificates in :mod:`hgspec.constructions`
approach.  The companion decay profile ``g`` assigns a weight to each
breadth-first layer around a reference vertex:

    g(n)     = g_hat(n) / ((t-1)(k-1))^(n/t)
    g_hat(n) = 1 + ((t (1 - 1/k))^(1/(t-1)) - 1) * n

``g`` is non-increasing in ``n`` for all integer t >= 2, k >= 2, which is
what makes the radial certificate vectors work; ``verify_g_monotone``
checks this numerically on a prefix of the sequence.

All closed forms are evaluated in binary64, with fractional powers
computed through an explicit exp/log decomposition so that the same
value is produced for algebraically equal parameter forms.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: absolute slack allowed when checking that g is non-increasing
G_MONOTONE_TOL = 1e-12


def _fpow(base: float, expo: float) -> float:
    """base**expo for base >= 0 via exp/log; 0**e = 0 for e > 0."""
    if base < 0.0:
        raise DomainError(f"negative base {base} in fractional power")
    if base == 0.0:
        return 0.0
    return math.exp(expo * math.log(base))


def _check_params(t: int, k: int) -> None:
    """Uniformity t >= 2 and degree k >= 1 for the closed forms."""
    if not isinstance(t, int) or t < 2:
        raise DomainError(f"uniformity t must be an integer >= 2, got {t}")
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"degree k must be an integer >= 1, got {k}")


def threshold(t: int, k: int) -> float:
    """The hypertree spectral radius (t/(t-1)) * ((t-1)(k-1))^(1/t).

    Degenerates gracefully to 0 at k = 1 (a matching has no room for the
    radial estimate to bite).
    """
    _check_params(t, k)
    return (t / (t - 1)) * _fpow((t - 1) * (k - 1), 1.0 / t)


def friedman_alternate(t: int, k: int) -> float:
    """Same constant in its original normalization.

    Evaluates (k-1)^(1/t) * t! * (t-1)^((1-t)/t) / (t-1)!; the division by
    (t-1)! converts between the two tensor scalings.  Must agree with
    :func:`threshold` to full precision; the test suite cross-checks the
    two forms against 50-digit arithmetic.
    """
    _check_params(t, k)
    if k == 1:
        return 0.0
    return (
        _fpow(k - 1, 1.0 / t)
        * math.factorial(t)
        * _fpow(t - 1, (1.0 - t) / t)
        / math.factorial(t - 1)
    )


def g_hat_value(t: int, k: int, n: int) -> float:
    """Affine numerator 1 + ((t(1-1/k))^(1/(t-1)) - 1) * n."""
    _check_g_params(t, k, n)
    slope = _fpow(t * (1.0 - 1.0 / k), 1.0 / (t - 1)) - 1.0
    return 1.0 + slope * n


def g_value(t: int, k: int, n: int) -> float:
    """Layer weight g(n) = g_hat(n) / ((t-1)(k-1))^(n/t); g(0) = 1.

    0.0 where the denominator overflows a double, past which g is below
    g_hat(n) / 1.8e308.
    """
    _check_g_params(t, k, n)
    try:
        decay = _fpow((t - 1) * (k - 1), n / t)
    except OverflowError:
        return 0.0
    return g_hat_value(t, k, n) / decay


def _check_g_params(t: int, k: int, n: int) -> None:
    _check_params(t, k)
    if k == 1:
        raise DomainError("g is undefined for k = 1 (decay base vanishes)")
    if n < 0:
        raise DomainError(f"layer index must be >= 0, got {n}")


def verify_g_monotone(t: int, k: int, n_max: int) -> tuple[bool, int | None]:
    """Check g(n+1) <= g(n) + 1e-12 for 0 <= n < n_max.

    Returns ``(True, None)`` when the whole prefix is non-increasing, else
    ``(False, n)`` for the first violating index.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    prev = g_value(t, k, 0)
    for n in range(n_max):
        cur = g_value(t, k, n + 1)
        if cur > prev + G_MONOTONE_TOL:
            return False, n
        prev = cur
    return True, None
