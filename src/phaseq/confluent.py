"""Confluent hypergeometric functions M and U, and Laguerre polynomials.

Each function takes x as a float or a 1-D float array and evaluates the
whole table in one pass: a float series is one numpy loop over the column,
with the x-independent factors computed once per term, and each element
leaves the loop at the term where its own series stops. A table raises
the error of its first failing row.

M(a, b, x) is summed by its forward power series. When a is a nonpositive
integer the series terminates into a polynomial, summed exactly in Python
integers over one denominator per row. U(a, b, x) is provided for b = 1
only, via the logarithmic series in terms of the digamma function psi,
computed here from the standard library; that is the branch needed by
the magnetic bound-state problem, where U(-n, 1, x) reduces to
(-1)^n n! L_n(x). Every Laguerre value, including the Landau
eigenfunctions and their derivatives, comes from one generalized-Laguerre
three-term recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "kummer_m",
    "kummer_u",
    "laguerre",
]

MAX_SERIES_ARG = 50.0
SERIES_TERM_LIMIT = 1000


_EULER_GAMMA = Fraction("0.5772156649015328606065120900824024310422")


def _psi(a: float) -> float:
    """psi(a) of a float a, not a nonpositive integer: psi(a + 1) - 1/a up to
    a >= 10, then ln a - 1/(2a) - sum_j B_2j / (2j a^2j) (DLMF 5.11.2)."""
    shift = math.ceil(10.0 - a) if a < 10.0 else 0
    parts = [-1.0 / (a + j) for j in range(shift)] if shift else []
    a += shift
    s = 1.0 / (a * a)
    # the sum over j = 1..7 by Horner's rule in s = 1/a^2
    tail = s * (1 / 12 - s * (1 / 120 - s * (1 / 252 - s * (
        1 / 240 - s * (1 / 132 - s * (691 / 32760 - s / 12))))))
    parts += (math.log(a), -0.5 / a, -tail)
    return math.fsum(parts)


@lru_cache(maxsize=1)
def _psi_of_integers() -> tuple:
    """psi(1 + k) = H_k - gamma for k < SERIES_TERM_LIMIT, each correctly
    rounded from the exact harmonic number; built on first use (not at
    import) and read-only, since every caller shares it."""
    harmonic, values = Fraction(0), []
    for k in range(SERIES_TERM_LIMIT):
        values.append(float(harmonic - _EULER_GAMMA))
        harmonic += Fraction(1, k + 1)
    return tuple(values)


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0 and float(a) == int(a)


def _check_terms(what: str, count: int):
    """Refuse a polynomial of more than SERIES_TERM_LIMIT terms before work."""
    if count > SERIES_TERM_LIMIT:
        raise ValueError(
            f"{what} has {count} terms, more than the limit {SERIES_TERM_LIMIT}"
        )


def _column(x):
    """x as a flat float array of table rows, and the shape to return."""
    xs = np.asarray(x, dtype=float)
    return xs.reshape(-1), xs.shape


def _table(values, failure, shape):
    """Raise the first failing row's error, or return the values in shape:
    a float for a scalar x."""
    if failure is not None:
        raise failure[1]
    values = np.broadcast_to(values, (math.prod(shape),))
    return float(values[0]) if shape == () else values.reshape(shape).copy()


def _earliest(*failures):
    """The (row, error) pair at the lowest row, or None."""
    found = [f for f in failures if f is not None]
    return min(found, key=lambda f: f[0]) if found else None


def _check_finite(a: float, b: float) -> None:
    """Refuse a non-finite a or b before any work."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got a = {a}, b = {b}")


def kummer_m(a: float, b: float, x):
    """Kummer's function M(a, b, x) = 1F1(a; b; x), for a float or a table.

    When a is a nonpositive integer the series terminates and is summed
    exactly in Python integers; a series of more than SERIES_TERM_LIMIT
    terms is refused before summing. Otherwise the forward series is used,
    which is accurate for moderate arguments; |x| is capped at
    MAX_SERIES_ARG because the alternating series loses precision beyond
    that. A non-finite a or b is refused before any work.
    """
    a, b = float(a), float(b)
    _check_finite(a, b)
    xs, shape = _column(x)
    if _is_nonpositive_int(b) and not (
        _is_nonpositive_int(a) and int(a) > int(b)
    ):
        raise ValueError("M(a, b, x) has a pole for nonpositive integer b")
    with np.errstate(all="ignore"):
        values, failure = _kummer_m_rows(a, b, xs, np.arange(xs.size))
    return _table(values, failure, shape)


def _kummer_m_rows(a, b, xs, rows):
    """M(a, b, x) on the table rows `rows`: (values, first failure)."""
    if _is_nonpositive_int(a):
        return _terminating_m(a, b, xs, rows)
    values = np.empty_like(xs)
    big = np.abs(xs) > MAX_SERIES_ARG
    neg = (xs < 0) & ~big
    failures = []
    if big.any():
        i = int(np.argmax(big))
        failures.append((rows[i], ValueError(
            f"|x| = {abs(xs[i].item())} exceeds the series domain limit {MAX_SERIES_ARG}"
        )))
    # Kummer transformation avoids the catastrophic cancellation of the
    # alternating series: M(a, b, x) = e^x M(b - a, b, -x)
    series = ~big
    if neg.any() and _is_nonpositive_int(b - a):
        values[neg], failure = _terminating_m(b - a, b, -xs[neg], rows[neg])
        failures.append(failure)
        series &= ~neg
    values[series], failure = _series_m(
        np.where(neg, b - a, a)[series], b, np.where(neg, -xs, xs)[series], rows[series]
    )
    failures.append(failure)
    values[neg] *= np.array([math.exp(t) for t in xs[neg].tolist()])
    return values, _earliest(*failures)


def _terminating_m(a, b, xs, rows):
    """M(-n, b, x) = sum_k c_k x^k, exact, one row at a time in order.

    With x = X/D and every c_k over the common denominator S of the
    (b + j)(j + 1), the sum is sum_k P_k X^k D^(n-k) / (S D^n) with
    integer P_k; one int true division rounds that exact rational
    correctly, as float(Fraction) does.
    """
    values = np.empty_like(xs)
    if not rows.size:
        return values, None
    n = -int(a)
    i = 0
    try:
        _check_terms(f"terminating series for M({a}, {b}, x)", n + 1)
        xs[0].item().as_integer_ratio()  # a non-finite x at row 0 is refused before b
        bn, bd = b.as_integer_ratio()
        # term k + 1 over term k is (a + k) x / ((b + k)(k + 1)) = up_k X / (down_k D)
        up = [(int(a) + k) * bd for k in range(n)]
        down = [(bn + k * bd) * (k + 1) for k in range(n)]
        # P_k = up_0 ... up_(k-1) down_k ... down_(n-1), S = down_0 ... down_(n-1)
        coeffs = [1] * (n + 1)
        for k in range(n):
            coeffs[k + 1] = coeffs[k] * up[k]
        denominator = 1
        for k in reversed(range(n)):
            denominator *= down[k]
            coeffs[k] *= denominator
        if denominator < 0:  # a positive denominator, so that 0 gives 0.0
            denominator, coeffs = -denominator, [-c for c in coeffs]
        for i, x in enumerate(xs.tolist()):
            num, den = x.as_integer_ratio()
            acc, scale = coeffs[n], 1
            for k in reversed(range(n)):
                scale *= den
                acc = acc * num + coeffs[k] * scale
            values[i] = acc / (denominator * scale)
    except (ValueError, OverflowError) as exc:
        return values, (rows[i], exc)
    return values, None


def _series_m(a, b, xs, rows):
    """The forward series of M(a, b, x) for 0 <= x <= MAX_SERIES_ARG, with
    one a per row."""
    values = np.empty_like(xs)
    failures = []
    total = np.ones_like(xs)
    term = np.ones_like(xs)
    comp = np.zeros_like(xs)
    x, live = xs, np.arange(xs.size)
    for k in range(SERIES_TERM_LIMIT):
        if not live.size:
            break
        term = term * ((a + k) * x / ((b + k) * (k + 1)))
        # Kahan compensation keeps the long alternating sums honest
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        over = ~np.isfinite(total)
        done = over | (np.abs(term) <= 1e-17 * np.maximum(np.abs(total), 1.0))
        if not done.any():
            continue
        if over.any():
            i = int(np.argmax(over))
            failures.append((rows[live[i]], OverflowError(
                f"series for M({a[i].item()}, {b}, {x[i].item()}) overflows"
            )))
        kept = done & ~over
        values[live[kept]] = total[kept]
        keep = ~done
        a, x, live = a[keep], x[keep], live[keep]
        term, total, comp = term[keep], total[keep], comp[keep]
    if live.size:
        failures.append((rows[live[0]], RuntimeError("series for M(a, b, x) did not converge")))
    return values, _earliest(*failures)


def kummer_u(a: float, b: float, x):
    """Tricomi's function U(a, b, x), implemented for b = 1 only, for a
    float or a table.

    For a = -n the closed form U(-n, 1, x) = (-1)^n n! L_n(x) is used, and
    refused when L_n has more than SERIES_TERM_LIMIT terms.
    Otherwise the logarithmic series

        U(a, 1, x) = -(1/Gamma(a)) sum_k (a)_k / (k!)^2 x^k
                     * (ln x + psi(a + k) - 2 psi(1 + k))

    converges for x > 0 of moderate size. An infinite a, or a non-finite b,
    is refused before any work, and an a (NaN too) whose 1/Gamma(a) is not a
    finite float is refused.
    """
    a, b = float(a), float(b)
    if not math.isnan(a):  # a NaN a meets the 1/Gamma(a) refusal, after each row's x check
        _check_finite(a, b)
    xs, shape = _column(x)
    if b != 1.0:
        raise ValueError("kummer_u supports b = 1 only")
    with np.errstate(all="ignore"):
        if _is_nonpositive_int(a):
            n = -int(a)
            value = laguerre(n, xs)  # bounds n before n! is built
            return _table(((-1.0) ** n) * math.factorial(n) * value, None, shape)
        return _table(*_log_series_u(a, xs), shape)


def _log_series_u(a, xs):
    """U(a, 1, x) on every row by the logarithmic series: (values, first failure)."""
    values = np.empty_like(xs)
    rows = np.arange(xs.size)
    failures = []
    low = xs <= 0
    high = xs > MAX_SERIES_ARG
    bad = low | high
    if bad.any():
        i = int(np.argmax(bad))
        failures.append((i, ValueError("U(a, 1, x) requires x > 0") if low[i] else ValueError(
            f"x = {xs[i].item()} exceeds the series domain limit {MAX_SERIES_ARG}"
        )))
        if i == 0:
            return values, failures[0]
    if rows.size:
        try:
            prefactor = -1.0 / math.gamma(a)
        except (OverflowError, ZeroDivisionError):  # Gamma(a) overflows, or is 0
            prefactor = math.inf
        if not math.isfinite(prefactor):
            return values, (0, ValueError(
                f"U(a, 1, x) needs 1/Gamma(a) as a finite float, which a = {a} does not give"
            ))
    x, live = xs[~bad], rows[~bad]
    lnx = np.array([math.log(t) for t in x.tolist()])
    psi_int = _psi_of_integers()
    total = np.zeros_like(x)
    largest = np.zeros_like(x)
    poch_over_fact2 = np.ones_like(x)  # (a)_k / (k!)^2
    for k in range(SERIES_TERM_LIMIT):
        if not live.size:
            break
        bracket = lnx + _psi(a + k) - 2.0 * psi_int[k]
        term = poch_over_fact2 * bracket
        total = total + term
        size = np.abs(term)
        largest = np.maximum(largest, size)
        poch_over_fact2 = poch_over_fact2 * ((a + k) * x / ((k + 1.0) * (k + 1.0)))
        if k <= 4:
            continue
        done = size <= 1e-17 * np.maximum(np.abs(total), 1.0)
        if not done.any():
            continue
        # intermediate terms set the rounding floor; refuse to return a
        # value whose cancellation error could exceed ~1e-10 relative
        lossy = done & (largest * 1e-16 > 1e-10 * np.maximum(np.abs(total), 1e-300))
        if lossy.any():
            i = int(np.argmax(lossy))
            failures.append((live[i], ValueError(
                "cancellation in the logarithmic series exceeds the "
                f"accuracy budget at a={a}, x={x[i].item()}; reduce x"
            )))
        kept = done & ~lossy
        values[live[kept]] = prefactor * total[kept]
        keep = ~done
        x, live, lnx = x[keep], live[keep], lnx[keep]
        total, largest, poch_over_fact2 = total[keep], largest[keep], poch_over_fact2[keep]
    if live.size:
        failures.append((live[0], RuntimeError("series for U(a, 1, x) did not converge")))
    return values, _earliest(*failures)


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


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x), the alpha = 0 case of the recurrence,
    for a float or a table.

    L_n has n + 1 terms; more than SERIES_TERM_LIMIT are refused.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    xs, shape = _column(x)
    with np.errstate(all="ignore"):
        return _table(_laguerre(n, 0, xs), None, shape)
