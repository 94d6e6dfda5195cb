"""Closed-form threshold and g-profile tests.

The two threshold normalizations are cross-checked against 50-digit
mpmath arithmetic, which serves as the independent oracle for the
[DERIVED] constants asserted below.
"""

import math

import mpmath
import pytest

from hgspec import (DomainError, friedman_alternate, g_hat_value, g_value,
                    threshold, verify_g_monotone)
from hgspec import bounds


def _threshold_mp(t, k):
    """50-digit evaluation of (t/(t-1)) * ((t-1)(k-1))^(1/t)."""
    with mpmath.workdps(50):
        return mpmath.mpf(t) / (t - 1) * mpmath.power((t - 1) * (k - 1),
                                                      mpmath.mpf(1) / t)


def _friedman_mp(t, k):
    """50-digit evaluation of (k-1)^(1/t) t! (t-1)^((1-t)/t) / (t-1)!."""
    with mpmath.workdps(50):
        return (mpmath.power(k - 1, mpmath.mpf(1) / t)
                * mpmath.factorial(t)
                * mpmath.power(t - 1, mpmath.mpf(1 - t) / t)
                / mpmath.factorial(t - 1))


def test_threshold_paper_values():
    assert threshold(2, 5) == pytest.approx(4.0, abs=1e-14)
    assert threshold(2, 2) == pytest.approx(2.0, abs=1e-14)
    # frozen from the 50-digit oracle: 2.38110157795229892...
    assert threshold(3, 3) == pytest.approx(2.3811015779522989, abs=1e-13)


def test_friedman_equals_threshold_paper_pairs():
    # (3,3): both forms give 3 * 2^(-1/3); (4,2): (4/3) * 3^(1/4)
    assert friedman_alternate(3, 3) == pytest.approx(threshold(3, 3), rel=1e-15)
    assert friedman_alternate(4, 2) == pytest.approx((4 / 3) * 3 ** 0.25,
                                                     rel=1e-13)
    for k in range(2, 9):
        assert friedman_alternate(2, k) == pytest.approx(
            2 * math.sqrt(k - 1), rel=1e-14)


@pytest.mark.parametrize("t", range(2, 9))
@pytest.mark.parametrize("k", range(2, 9))
def test_threshold_forms_agree_and_match_oracle(t, k):
    thr = threshold(t, k)
    alt = friedman_alternate(t, k)
    assert abs(thr - alt) <= 1e-12 * thr
    oracle = float(_threshold_mp(t, k))
    assert thr == pytest.approx(oracle, rel=1e-14)
    assert float(_friedman_mp(t, k)) == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("t", range(2, 9))
@pytest.mark.parametrize("k", range(2, 9))
def test_threshold_at_most_k(t, k):
    assert threshold(t, k) <= k + 1e-12


@pytest.mark.parametrize("t", [171, 1000, 2_000_000])
@pytest.mark.parametrize("k", [2, 3, 10])
def test_friedman_is_finite_past_the_factorial_range(t, k):
    # t! is beyond a double from t = 171 on; the scaling t!/(t-1)! is t
    thr = threshold(t, k)
    assert abs(friedman_alternate(t, k) - thr) <= 1e-12 * thr


def test_threshold_degenerates_at_k1():
    assert threshold(3, 1) == 0.0
    assert friedman_alternate(5, 1) == 0.0


def test_g_examples():
    assert g_value(3, 3, 0) == 1.0
    assert g_value(7, 4, 0) == 1.0
    for n in (0, 1, 5, 50):
        assert g_value(2, 2, n) == pytest.approx(1.0, abs=1e-15)
    # (t=2, k=3), n=1: (4/3)/sqrt(2)
    assert g_value(2, 3, 1) == pytest.approx((4 / 3) / math.sqrt(2), rel=1e-14)


def test_g_rejects_k1_and_negative_n():
    with pytest.raises(DomainError):
        g_value(3, 1, 0)
    with pytest.raises(DomainError):
        g_value(3, 3, -1)


def test_g_positive_and_ghat_affine():
    for t in range(2, 7):
        for k in range(2, 7):
            inc = g_hat_value(t, k, 1) - g_hat_value(t, k, 0)
            for n in range(0, 40):
                assert g_value(t, k, n) > 0.0
                step = g_hat_value(t, k, n + 1) - g_hat_value(t, k, n)
                assert step == pytest.approx(inc, abs=1e-12)


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("k", range(2, 7))
def test_g_monotone_grid(t, k):
    ok, violation = verify_g_monotone(t, k, 200)
    assert ok, f"g increased at n={violation} for t={t}, k={k}"


def test_g_monotone_equality_at_22():
    ok, _ = verify_g_monotone(2, 2, 200)
    assert ok
    assert g_value(2, 2, 137) == pytest.approx(g_value(2, 2, 138), abs=1e-15)


def test_g_is_0_past_the_double_range():
    # ((t-1)(k-1))^(n/t) = 4^(n/3) overflows from n = 1540 on; g is far
    # below any tolerance there, and keeps its bits below it
    assert g_value(3, 3, 1500) == \
        g_hat_value(3, 3, 1500) / bounds._fpow(4, 1500 / 3)
    assert 0.0 < g_value(3, 3, 1500) < 1e-298
    assert g_value(3, 3, 1540) == 0.0
    assert g_value(3, 3, 10 ** 6) == 0.0
    assert verify_g_monotone(3, 3, 2000) == (True, None)


def test_g_monotone_high_uniformity():
    ok, _ = verify_g_monotone(6, 2, 200)
    assert ok


@pytest.mark.parametrize("t", range(2, 9))
@pytest.mark.parametrize("k", range(2, 9))
def test_kernel_inequality(t, k):
    # ((t-1)(k-1))^(1/t) + (t(1-1/k))^(1/(1-t)) >= 2 underpins monotonicity
    lhs = ((t - 1) * (k - 1)) ** (1.0 / t) + (t * (1 - 1 / k)) ** (1.0 / (1 - t))
    assert lhs >= 2.0 - 1e-12


def test_bound_params_validation():
    with pytest.raises(DomainError):
        threshold(1, 3)
    with pytest.raises(DomainError):
        threshold(3, 0)
