"""Moyal star product on polynomials.

The star product is evaluated term by term in powers of the symplectic
bidifferential operator; on polynomials the series terminates at
min(deg f, deg g), so the result is exact. Operators are represented by
their symbols: a Bopp shift is left star multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (
    ComplexRational,
    MOSTLY_MINUS,
    MetricSignature,
    PhasePolynomial,
)

__all__ = ["moyal_star", "commutator_on"]

_I_HALF_POWERS = {}


def _i_half_power(k: int) -> ComplexRational:
    # (i/2)^k as an exact ComplexRational
    try:
        return _I_HALF_POWERS[k]
    except KeyError:
        re, im = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
        value = ComplexRational(Fraction(re, 2**k), Fraction(im, 2**k))
        _I_HALF_POWERS[k] = value
        return value


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _iterated_derivative(poly: PhasePolynomial, kind: str, orders) -> PhasePolynomial:
    out = poly
    for mu, count in enumerate(orders):
        for _ in range(count):
            if out.is_zero():
                return out
            out = out.derivative(kind, mu)
    return out


def moyal_star(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Exact star product of two polynomials.

    Expansion over derivative multi-indices alpha (q on f, p on g) and
    beta (p on f, q on g):

        f*g = sum (i/2)^{|a|+|b|} (-1)^{|b|} / (a! b!)
              * prod_mu g^{mumu (a_mu+b_mu)}
              * (d_q^a d_p^b f) (d_p^a d_q^b g)
    """
    if f.dims != g.dims:
        raise ValueError(f"dimension mismatch: {f.dims} vs {g.dims}")
    kmax = min(f.degree(), g.degree())
    out = PhasePolynomial.zero(f.dims)
    if f.is_zero() or g.is_zero():
        return out
    for k in range(0, max(kmax, 0) + 1):
        for alpha_beta in _compositions(k, 8):
            alpha, beta = alpha_beta[:4], alpha_beta[4:]
            df = _iterated_derivative(
                _iterated_derivative(f, "q", alpha), "p", beta
            )
            if df.is_zero():
                continue
            dg = _iterated_derivative(
                _iterated_derivative(g, "p", alpha), "q", beta
            )
            if dg.is_zero():
                continue
            weight = _i_half_power(k)
            if sum(beta) % 2:
                weight = -weight
            denom = 1
            sign = 1
            for mu in range(4):
                denom *= factorial(alpha[mu]) * factorial(beta[mu])
                if metric[mu] == -1 and (alpha[mu] + beta[mu]) % 2:
                    sign = -sign
            coeff = weight * ComplexRational(Fraction(sign, denom))
            out = out + (df * dg).scale(coeff)
    return out


def commutator_on(
    a: PhasePolynomial,
    b: PhasePolynomial,
    f: PhasePolynomial,
    metric: MetricSignature = MOSTLY_MINUS,
) -> PhasePolynomial:
    """(AB - BA) applied to f, exactly, for operators given by their symbols.

    A Bopp shift is left star multiplication (Q^mu f = q^mu * f, P^mu f =
    p^mu * f), so operators built from them act through their symbols:
    the result is (a*b - b*a) * f. With f = 1 it is the commutator symbol.
    """
    return moyal_star(
        moyal_star(a, b, metric) - moyal_star(b, a, metric), f, metric
    )
