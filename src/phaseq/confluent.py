"""Confluent hypergeometric functions M and U, and Laguerre polynomials.

M(a, b, x) is summed by its forward power series, which terminates into an
exact polynomial whenever a is a nonpositive integer. U(a, b, x) is provided
for b = 1 only, via the logarithmic series in terms of the digamma function;
that is the branch needed by the magnetic bound-state problem, where
U(-n, 1, x) reduces to (-1)^n n! L_n(x). Every Laguerre value, including
the Landau eigenfunctions and their derivatives, comes from one
generalized-Laguerre three-term recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy.special import digamma

__all__ = [
    "kummer_m",
    "kummer_u",
    "laguerre",
]

MAX_SERIES_ARG = 50.0
SERIES_TERM_LIMIT = 1000


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0 and float(a) == int(a)


def _check_terms(what: str, count: int):
    """Refuse a polynomial of more than SERIES_TERM_LIMIT terms before work."""
    if count > SERIES_TERM_LIMIT:
        raise ValueError(
            f"{what} has {count} terms, more than the limit {SERIES_TERM_LIMIT}"
        )


def kummer_m(a: float, b: float, x: float) -> float:
    """Kummer's function M(a, b, x) = 1F1(a; b; x).

    When a is a nonpositive integer the series terminates and is summed with
    exact rational arithmetic; a series of more than SERIES_TERM_LIMIT terms
    is refused before summing. Otherwise the forward series is used, which is
    accurate for moderate arguments; |x| is capped at MAX_SERIES_ARG because
    the alternating series loses precision beyond that.
    """
    a, b, x = float(a), float(b), float(x)
    if _is_nonpositive_int(b) and not (
        _is_nonpositive_int(a) and int(a) > int(b)
    ):
        raise ValueError("M(a, b, x) has a pole for nonpositive integer b")
    if _is_nonpositive_int(a):
        n = -int(a)
        _check_terms(f"terminating series for M({a}, {b}, x)", n + 1)
        xf = Fraction(x)
        total = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            total += term
            if k < n:
                term *= Fraction(int(a) + k) * xf / Fraction(int(b) + k) / (k + 1)
        return float(total)
    if abs(x) > MAX_SERIES_ARG:
        raise ValueError(
            f"|x| = {abs(x)} exceeds the series domain limit {MAX_SERIES_ARG}"
        )
    if x < 0:
        # Kummer transformation avoids the catastrophic cancellation of the
        # alternating series: M(a, b, x) = e^x M(b - a, b, -x)
        return math.exp(x) * kummer_m(b - a, b, -x)
    total = 1.0
    term = 1.0
    comp = 0.0
    for k in range(SERIES_TERM_LIMIT):
        term *= (a + k) * x / ((b + k) * (k + 1))
        # Kahan compensation keeps the long alternating sums honest
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise OverflowError(f"series for M({a}, {b}, {x}) overflows")
        if abs(term) <= 1e-17 * max(abs(total), 1.0):
            return total
    raise RuntimeError("series for M(a, b, x) did not converge")


def kummer_u(a: float, b: float, x: float) -> float:
    """Tricomi's function U(a, b, x), implemented for b = 1 only.

    For a = -n the closed form U(-n, 1, x) = (-1)^n n! L_n(x) is used, and
    refused when L_n has more than SERIES_TERM_LIMIT terms.
    Otherwise the logarithmic series

        U(a, 1, x) = -(1/Gamma(a)) sum_k (a)_k / (k!)^2 x^k
                     * (ln x + psi(a + k) - 2 psi(1 + k))

    converges for x > 0 of moderate size.
    """
    a, b, x = float(a), float(b), float(x)
    if b != 1.0:
        raise ValueError("kummer_u supports b = 1 only")
    if _is_nonpositive_int(a):
        n = -int(a)
        value = laguerre(n, x)  # bounds n before n! is built
        return ((-1.0) ** n) * math.factorial(n) * value
    if x <= 0:
        raise ValueError("U(a, 1, x) requires x > 0")
    if x > MAX_SERIES_ARG:
        raise ValueError(
            f"x = {x} exceeds the series domain limit {MAX_SERIES_ARG}"
        )
    lnx = math.log(x)
    prefactor = -1.0 / math.gamma(a)
    total = 0.0
    largest = 0.0
    poch_over_fact2 = 1.0  # (a)_k / (k!)^2
    for k in range(SERIES_TERM_LIMIT):
        bracket = lnx + digamma(a + k) - 2.0 * digamma(1.0 + k)
        term = poch_over_fact2 * bracket
        total += term
        largest = max(largest, abs(term))
        poch_over_fact2 *= (a + k) * x / ((k + 1.0) * (k + 1.0))
        if k > 4 and abs(term) <= 1e-17 * max(abs(total), 1.0):
            # intermediate terms set the rounding floor; refuse to return a
            # value whose cancellation error could exceed ~1e-10 relative
            if largest * 1e-16 > 1e-10 * max(abs(total), 1e-300):
                raise ValueError(
                    "cancellation in the logarithmic series exceeds the "
                    f"accuracy budget at a={a}, x={x}; reduce x"
                )
            return prefactor * total
    raise RuntimeError("series for U(a, 1, x) did not converge")


def _laguerre(n: int, alpha: int, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) by the stable recurrence

        L_{k+1} = ((2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}) / (k + 1),

    in plain arithmetic, so x may be a float or a numpy array. L_n has
    n + 1 terms; more than SERIES_TERM_LIMIT are refused before the loop.
    """
    _check_terms(f"L_{n}", n + 1)
    prev, cur = 1.0, 1.0 + alpha - x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x), the alpha = 0 case of the recurrence.

    L_n has n + 1 terms; more than SERIES_TERM_LIMIT are refused.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    return _laguerre(n, 0, float(x))
