"""Moyal star product on polynomials.

The star product factorizes over the four (q, p) pairs. For one pair
with metric sign g it has the closed form

    q^a p^b * q^c p^d = sum_{r <= min(a,d), s <= min(b,c)}
        (i g/2)^{r+s} (-1)^s / (r! s!) * a!/(a-r)! b!/(b-s)! d!/(d-r)! c!/(c-s)!
        * q^{a+c-r-s} p^{b+d-r-s},

and a monomial product is the Cartesian product of its four pair sums,
so the result is exact. Operators are represented by their symbols: a
Bopp shift is left star multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .algebra import (
    ComplexRational,
    MOSTLY_MINUS,
    MetricSignature,
    PhasePolynomial,
)

__all__ = ["moyal_star", "commutator_on"]


def _pair_terms(a: int, b: int, c: int, d: int, sign: int) -> list:
    """q^a p^b * q^c p^d for one pair as (k, n) terms n (i/2)^k q^{a+c-k} p^{b+d-k}.

    The terms with r + s = k share one monomial, so their integer weights
    g^k (-1)^s C(a,r) C(d,r) r! C(b,s) C(c,s) s! are summed; zero sums
    are dropped.
    """
    out = []
    for k in range(min(a, d) + min(b, c) + 1):
        n = 0
        for r in range(max(0, k - min(b, c)), min(k, a, d) + 1):
            s = k - r
            n += (
                (-1) ** s
                * comb(a, r) * comb(d, r) * factorial(r)
                * comb(b, s) * comb(c, s) * factorial(s)
            )
        if n:
            out.append((k, sign**k * n, a + c - k, b + d - k))
    return out


def moyal_star(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Exact star product of two polynomials.

    Each term pair multiplies by the per-pair closed form, for sign
    g = g^{mumu} of pair mu:

        q^a p^b * q^c p^d = sum_{r <= min(a,d), s <= min(b,c)}
            (i g/2)^{r+s} (-1)^s / (r! s!) * a!/(a-r)! b!/(b-s)! d!/(d-r)! c!/(c-s)!
            * q^{a+c-r-s} p^{b+d-r-s},

    taken over the Cartesian product of the four pairs' terms.
    """
    if f.dims != g.dims:
        raise ValueError(f"dimension mismatch: {f.dims} vs {g.dims}")
    terms: dict = {}
    for key1, c1 in f.terms.items():
        for key2, c2 in g.terms.items():
            c = c1 * c2
            # c times i^0, i^1, i^2, i^3
            turns = (c, ComplexRational(-c.im, c.re), -c, ComplexRational(c.im, -c.re))
            pairs = [
                _pair_terms(key1[mu], key1[4 + mu], key2[mu], key2[4 + mu], metric[mu])
                for mu in range(4)
            ]
            for combo in product(*pairs):
                k = sum(t[0] for t in combo)
                w = Fraction(prod(t[1] for t in combo), 2**k)
                turned = turns[k % 4]
                coeff = ComplexRational(turned.re * w, turned.im * w)
                key = tuple(t[2] for t in combo) + tuple(t[3] for t in combo)
                acc = terms.get(key)
                terms[key] = coeff if acc is None else acc + coeff
    return PhasePolynomial._raw(
        {key: coeff for key, coeff in terms.items() if coeff}, f.dims
    )


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
