"""Moyal star product on polynomials, in integer arithmetic.

The star product factorizes over the four (q, p) pairs. For one pair
with metric sign g it has the closed form

    q^a p^b * q^c p^d = sum_{r <= min(a,d), s <= min(b,c)}
        (i g/2)^{r+s} (-1)^s / (r! s!) * a!/(a-r)! b!/(b-s)! d!/(d-r)! c!/(c-s)!
        * q^{a+c-r-s} p^{b+d-r-s},

and a monomial product is the Cartesian product of its four pair sums,
so the result is exact. The sums run over integers: each factor is
written as Gaussian-integer numerators over one common denominator, a
term with k = sum(r + s) is scaled by 2^(kmax - k) so that every term
shares the denominator 2^kmax, and each output term's ComplexRational
is built at the end from its integer triple with one gcd. Operators are
represented by their symbols: a Bopp shift is left star multiplication.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm

from .algebra import (
    MOSTLY_MINUS,
    MetricSignature,
    PhasePolynomial,
    _from_integers,
)

__all__ = ["moyal_star", "commutator_on"]

MAX_STAR_TERMS = 10**7


@lru_cache(maxsize=4096)
def _pair_terms(a: int, b: int, c: int, d: int, sign: int) -> tuple:
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
    return tuple(out)


def _integer_form(poly: PhasePolynomial) -> tuple[int, list]:
    """(D, [(key, re*D, im*D)]): Gaussian-integer numerators over one denominator."""
    triples = [(key, c._abd) for key, c in poly.terms.items()]
    den = lcm(*(d for _, (_, _, d) in triples))
    return den, [(key, a * (den // d), b * (den // d)) for key, (a, b, d) in triples]


def moyal_star(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Exact star product of two polynomials.

    Each term pair multiplies by the per-pair closed form, for sign
    g = g^{mumu} of pair mu:

        q^a p^b * q^c p^d = sum_{r <= min(a,d), s <= min(b,c)}
            (i g/2)^{r+s} (-1)^s / (r! s!) * a!/(a-r)! b!/(b-s)! d!/(d-r)! c!/(c-s)!
            * q^{a+c-r-s} p^{b+d-r-s},

    taken over the Cartesian product of the four pairs' terms. Every
    k = sum(r + s) is at most kmax = min(deg f, deg g), so with f and g
    written as Gaussian-integer numerators over denominators D_f and D_g,
    each term adds (numerator product) * i^k * prod(n) * 2^(kmax - k) to
    an integer accumulator; each nonzero output term's ComplexRational is
    built at the end from its triple over D_f * D_g * 2^kmax, with one gcd.

    For factors of n_f and n_g terms the sum has at most
    n_f n_g prod_mu (1 + min(A_mu, D_mu) + min(B_mu, C_mu)) terms, with A_mu,
    B_mu the largest q and p exponents of pair mu in f and C_mu, D_mu those
    in g; a product whose bound exceeds MAX_STAR_TERMS is refused before
    any term is summed. The four factors sum to at most
    4 + min(n_f deg f, n_g deg g) = 4 + m, so the bound is at most
    n_f n_g ((4 + m)/4)^4, and the exponents are read only when that
    exceeds the limit.
    """
    if not f.terms or not g.terms:
        return PhasePolynomial.zero()
    n_f, n_g = len(f.terms), len(g.terms)
    deg_f, deg_g = max(map(sum, f.terms)), max(map(sum, g.terms))
    if n_f * n_g * (4 + min(n_f * deg_f, n_g * deg_g)) ** 4 > 256 * MAX_STAR_TERMS:
        top_f = [max(e) for e in zip(*f.terms)]
        top_g = [max(e) for e in zip(*g.terms)]
        bound = n_f * n_g
        for mu in range(4):
            bound *= 1 + min(top_f[mu], top_g[4 + mu]) + min(top_f[4 + mu], top_g[mu])
        if bound > MAX_STAR_TERMS:
            raise ValueError(
                f"a star product of {n_f} and {n_g} terms can sum "
                f"{bound} terms, more than the limit {MAX_STAR_TERMS}"
            )
    den_f, ints_f = _integer_form(f)
    den_g, ints_g = _integer_form(g)
    kmax = min(deg_f, deg_g)
    sums: dict = {}
    for key1, x1, y1 in ints_f:
        for key2, x2, y2 in ints_g:
            re = x1 * x2 - y1 * y2
            im = x1 * y2 + y1 * x2
            # (re + i im) times i^0, i^1, i^2, i^3
            turns = ((re, im), (-im, re), (-re, -im), (im, -re))
            pairs = [
                _pair_terms(key1[mu], key1[4 + mu], key2[mu], key2[4 + mu], metric[mu])
                for mu in range(4)
            ]
            for t0, t1, t2, t3 in product(*pairs):
                k = t0[0] + t1[0] + t2[0] + t3[0]
                n = (t0[1] * t1[1] * t2[1] * t3[1]) << (kmax - k)
                re_k, im_k = turns[k % 4]
                key = (t0[2], t1[2], t2[2], t3[2], t0[3], t1[3], t2[3], t3[3])
                acc = sums.get(key)
                if acc is None:
                    sums[key] = [re_k * n, im_k * n]
                else:
                    acc[0] += re_k * n
                    acc[1] += im_k * n
    den = (den_f * den_g) << kmax
    return PhasePolynomial._raw(
        {key: _from_integers(re, im, den) for key, (re, im) in sums.items() if re or im}
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
