import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_laguerre, hyp1f1, hyperu

from phaseq import kummer_m, kummer_u, laguerre
from phaseq.confluent import SERIES_TERM_LIMIT, _laguerre

from oracles import laguerre_coefficients


def test_kummer_m_pinned_values():
    assert kummer_m(-2, 1, 2) == -1.0
    assert kummer_m(0, 1, 5) == 1.0
    assert abs(kummer_m(1, 1, 1) - math.e) < 1e-14
    assert abs(kummer_m(1, 2, 1) - (math.e - 1.0)) < 1e-14


def test_kummer_m_against_scipy():
    rng = random.Random(101)
    for _ in range(200):
        a = rng.uniform(-4, 4)
        b = rng.uniform(0.5, 5)
        x = rng.uniform(-20, 20)
        ref = hyp1f1(a, b, x)
        got = kummer_m(a, b, x)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_kummer_m_terminating_is_exact_polynomial():
    for n in range(8):
        for x in [0.0, 0.5, 3.0, 17.0, 50.0]:
            got = kummer_m(-n, 1, x)
            ref = eval_laguerre(n, x)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_kummer_m_negative_argument_stable():
    # the raw alternating series loses ~6 digits here; the reflection
    # to a positive argument must keep full precision
    for x in [-30.0, -45.0]:
        ref = hyp1f1(0.7, 1.3, x)
        assert abs(kummer_m(0.7, 1.3, x) - ref) < 1e-12 * abs(ref)


def test_kummer_m_domain_errors():
    with pytest.raises(ValueError):
        kummer_m(0.5, 1.0, 60.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, -2.0, 1.0)
    # terminating numerator before the denominator pole is fine
    assert kummer_m(-1, -2, 3.0) == 2.5


def test_kummer_m_overflow_raises():
    # the series terms of M(1e6, 1, x) pass the float range long before
    # they start to shrink; the sum must not come back as inf
    with pytest.raises(OverflowError):
        kummer_m(1e6, 1.0, 5.0)


def test_kummer_m_long_terminating_series_raises():
    # the Kummer transformation turns M(1e6, 1, -5) into the terminating
    # M(1 - 1e6, 1, 5); both it and M(-1e9, 1, x) are refused before summing
    with pytest.raises(ValueError, match="terms"):
        kummer_m(1e6, 1.0, -5.0)
    with pytest.raises(ValueError, match="terms"):
        kummer_m(-1e9, 1.0, 0.5)
    # the longest series within the limit is still summed
    assert kummer_m(-(SERIES_TERM_LIMIT - 1), 1.0, 0.0) == 1.0


def test_laguerre_routes_refuse_long_polynomials():
    # L_n has n + 1 terms; every route refuses more than the limit before
    # any work, and kummer_u(-n, 1, x) does so before building n!
    for n in (SERIES_TERM_LIMIT, 10**9):
        with pytest.raises(ValueError, match="terms"):
            laguerre(n, 0.5)
        with pytest.raises(ValueError, match="terms"):
            kummer_u(-n, 1.0, 0.5)
    # the longest polynomial within the limit is still evaluated
    assert laguerre(SERIES_TERM_LIMIT - 1, 0.0) == 1.0


def test_kummer_u_polynomial_branch():
    for n in range(6):
        for x in [0.3, 1.0, 4.0, 9.0]:
            got = kummer_u(-n, 1, x)
            ref = ((-1) ** n) * math.factorial(n) * eval_laguerre(n, x)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_kummer_u_log_series_against_scipy():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.uniform(0.1, 3.0)
        x = rng.uniform(0.05, 5.0)
        ref = hyperu(a, 1.0, x)
        got = kummer_u(a, 1.0, x)
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))


def test_kummer_u_guards():
    with pytest.raises(ValueError):
        kummer_u(0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        kummer_u(0.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        kummer_u(0.5, 1.0, 60.0)
    # deep in the cancellation regime the series must refuse, not lie
    with pytest.raises(ValueError):
        kummer_u(0.3, 1.0, 45.0)


def test_laguerre_against_scipy():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(0, 15)
        x = rng.uniform(0, 50)
        ref = eval_laguerre(n, x)
        assert abs(laguerre(n, x) - ref) < 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_generalized_laguerre_recurrence_against_scipy(alpha):
    # the one recurrence serves floats and numpy arrays alike
    rng = random.Random(89 + alpha)
    for _ in range(100):
        n = rng.randrange(0, 41)
        x = rng.uniform(0, 60)
        ref = eval_genlaguerre(n, alpha, x)
        assert abs(_laguerre(n, alpha, x) - ref) < 1e-10 * max(1.0, abs(ref))
    xs = np.linspace(0.0, 60.0, 241)
    for n in (0, 1, 2, 7, 40):
        ref = eval_genlaguerre(n, alpha, xs)
        got = _laguerre(n, alpha, xs)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_laguerre_coefficients_exact():
    assert laguerre_coefficients(0) == [Fraction(1)]
    assert laguerre_coefficients(1) == [Fraction(1), Fraction(-1)]
    assert laguerre_coefficients(2) == [
        Fraction(1),
        Fraction(-2),
        Fraction(1, 2),
    ]
    for n in range(10):
        coeffs = laguerre_coefficients(n)
        for x in [0.0, 1.5, 7.0]:
            horner = 0.0
            for c in reversed(coeffs):
                horner = horner * x + float(c)
            assert abs(horner - laguerre(n, x)) < 1e-11 * max(
                1.0, abs(laguerre(n, x))
            )


def test_laguerre_validation():
    with pytest.raises(ValueError):
        laguerre(-1, 1.0)


def test_confluent_ode_residuals():
    # x y'' + (b - x) y' - a y = 0 for M; same ODE for U with b = 1
    h = 1e-3

    def residual(fn, a, b, x):
        y0 = fn(x)
        d1 = (fn(x + h) - fn(x - h)) / (2 * h)
        d2 = (fn(x + h) - 2 * y0 + fn(x - h)) / (h * h)
        return x * d2 + (b - x) * d1 - a * y0

    cases_m = [(0.5, 1.5, 2.0), (-3, 2.0, 5.0), (1.2, 0.8, 10.0)]
    for a, b, x in cases_m:
        r = residual(lambda t: kummer_m(a, b, t), a, b, x)
        assert abs(r) < 1e-6 * max(1.0, abs(kummer_m(a, b, x)))
    cases_u = [(0.5, 1.0, 2.0), (1.3, 1.0, 4.0)]
    for a, b, x in cases_u:
        r = residual(lambda t: kummer_u(a, b, t), a, b, x)
        assert abs(r) < 1e-6 * max(1.0, abs(kummer_u(a, b, x)))
