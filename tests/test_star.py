import random
from fractions import Fraction

import pytest

import phaseq.star
from phaseq import (
    CR_I,
    ComplexRational,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    PhasePolynomial,
    commutator_on,
    monomial_basis,
    moyal_star,
    p_var,
    parse_expression,
    poisson_bracket,
    q_var,
)

from phaseq.star import _pair_terms

from oracles import (
    bopp_momentum,
    bopp_position,
    derivative_walk_star,
    fraction_closed_form_star,
    pair1_flipped_star,
    random_poly,
)

METRICS = (MOSTLY_MINUS, MOSTLY_PLUS)


@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
@pytest.mark.parametrize("metric", METRICS, ids=["mostly_minus", "mostly_plus"])
def test_star_matches_derivative_walk_oracle(metric, pairs):
    # factors drawn from the first `pairs` (q, p) pairs
    rng = random.Random(100 * pairs + metric[0])
    zero = PhasePolynomial.zero()
    for _ in range(25):
        f = random_poly(rng, max_degree=4, n_terms=3, pairs=pairs)
        g = random_poly(rng, max_degree=4, n_terms=3, pairs=pairs)
        assert moyal_star(f, g, metric) == derivative_walk_star(f, g, metric)
        assert moyal_star(zero, g, metric) == derivative_walk_star(zero, g, metric)
        assert moyal_star(f, zero, metric) == derivative_walk_star(f, zero, metric)


def _coprime_poly(rng, pairs):
    # degree <= 6, <= 5 terms in the first `pairs` pairs, parts over the
    # coprime denominators 7, 9, 11, 13
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = [0] * 8
        for _ in range(rng.randint(0, 6)):
            slot = rng.randrange(2 * pairs)
            key[slot if slot < pairs else slot - pairs + 4] += 1
        terms[tuple(key)] = ComplexRational(
            Fraction(rng.randint(-20, 20), rng.choice((7, 9, 11, 13))),
            Fraction(rng.randint(-20, 20), rng.choice((7, 9, 11, 13))),
        )
    return PhasePolynomial(terms)


def _in_pair(poly, mu):
    # a one-pair polynomial moved onto pair mu
    return PhasePolynomial(
        {
            tuple(key[0] if i == mu else key[4] if i == 4 + mu else 0 for i in range(8)): c
            for key, c in poly.terms.items()
        }
    )


@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
@pytest.mark.parametrize("metric", METRICS, ids=["mostly_minus", "mostly_plus"])
def test_star_matches_fraction_closed_form_oracle(metric, pairs):
    # factors drawn from the first `pairs` (q, p) pairs
    rng = random.Random(1000 * pairs + metric[0])
    last = pairs - 1
    q0, q_last, p_last = q_var(0), q_var(last), p_var(last)
    third = PhasePolynomial.constant(Fraction(1, 3))
    half = PhasePolynomial.constant(Fraction(1, 2))
    zero = PhasePolynomial.zero()
    const = PhasePolynomial.constant(ComplexRational(Fraction(7, 3), Fraction(-2, 9)))
    cases = [(_coprime_poly(rng, pairs), _coprime_poly(rng, pairs)) for _ in range(30)]
    f0 = _in_pair(random_poly(rng, max_degree=4, n_terms=3, pairs=1), 0)
    g_last = _in_pair(random_poly(rng, max_degree=4, n_terms=3, pairs=1), last)
    # partial cancellation with denominators that reduce
    cases += [(q_last + third, p_last - third), (q_last + half * p_last, q_last - half * p_last)]
    for f, g in cases[:3]:
        cases += [(zero, f), (f, zero), (const, g), (g, const)]
    # under one metric and then the other in one process, so that the
    # pair terms cached for one sign are looked up under the other
    for m in (metric, MOSTLY_PLUS if metric == MOSTLY_MINUS else MOSTLY_MINUS):
        for f, g in cases:
            got = moyal_star(f, g, m)
            want = fraction_closed_form_star(f, g, m)
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert all(
                type(c.re) is Fraction and type(c.im) is Fraction
                for c in got.terms.values()
            )
        # products that cancel to the zero polynomial (f0 and g_last lie in
        # disjoint pairs only when pairs > 1)
        cancelling = [(q0, q_last)]
        if pairs > 1:
            cancelling.append((f0, g_last))
        for a, b in cancelling:
            diff = moyal_star(a, b, m) - moyal_star(b, a, m)
            assert diff.is_zero()
            assert diff == fraction_closed_form_star(a, b, m) - fraction_closed_form_star(b, a, m)
            assert moyal_star(diff, g_last, m) == fraction_closed_form_star(diff, g_last, m)


def test_star_refuses_a_product_past_its_term_bound(monkeypatch):
    # q^e p^e on all four pairs: (1 + 2e)^4 terms, about 5.8e6 at e = 24 and
    # 1.8e7 at e = 32; the bound is read from each pair's largest exponents
    assert phaseq.star.MAX_STAR_TERMS == 10**7
    big = PhasePolynomial.monomial((32,) * 8)
    with pytest.raises(ValueError, match="can sum 17850625 terms, more than the limit 10000000"):
        moyal_star(big, big)
    with pytest.raises(ValueError, match="more than the limit"):
        commutator_on(big, big, PhasePolynomial.constant(1))
    # the same degrees that cannot contract do not count: q^32 * q^32 is one term
    q_only = PhasePolynomial.monomial((32, 32, 32, 32, 0, 0, 0, 0))
    assert moyal_star(q_only, q_only) == q_only * q_only
    # a bound exactly at the limit is computed and one past it is refused;
    # two terms of pair 0 at degree 9 give 2 * 2 * (1 + 9 + 9) = 76 terms. The
    # degree shortcut that skips reading the exponents must never hide a
    # refusal, so each limit is set at a pair's own bound
    cases = [(parse_expression("q0^9*p0^9 + q0^8*p0^9"),) * 2]
    cases.append((parse_expression("q0^9 + q1^9 + q2^9 + q3^9"),
                  parse_expression("p0^9 + p1^9 + p2^9 + p3^9")))
    rng = random.Random(31)
    cases += [(random_poly(rng, 6, 4), random_poly(rng, 6, 4)) for _ in range(20)]
    bounds = []
    for f, g in cases:
        top_f = [max(e) for e in zip(*f.terms)]
        top_g = [max(e) for e in zip(*g.terms)]
        bound = len(f.terms) * len(g.terms)
        for mu in range(4):
            bound *= 1 + min(top_f[mu], top_g[4 + mu]) + min(top_f[4 + mu], top_g[mu])
        bounds.append(bound)
        monkeypatch.setattr(phaseq.star, "MAX_STAR_TERMS", bound)
        assert moyal_star(f, g) == fraction_closed_form_star(f, g)
        monkeypatch.setattr(phaseq.star, "MAX_STAR_TERMS", bound - 1)
        with pytest.raises(ValueError, match=f"can sum {bound} terms, more than the limit {bound - 1}"):
            moyal_star(f, g)
    assert bounds[:2] == [76, 16 * 10**4]


def test_pair_term_cache_is_bounded():
    maxsize = _pair_terms.cache_info().maxsize
    assert maxsize is not None
    for a in range(maxsize + 10):
        _pair_terms(a, 1, 0, 0, 1)
    assert _pair_terms.cache_info().currsize <= maxsize


def test_canonical_star_products():
    i_half = PhasePolynomial.constant(ComplexRational(Fraction(0), Fraction(1, 2)))
    q0, p0 = q_var(0), p_var(0)
    assert moyal_star(q0, p0) == q0 * p0 + i_half
    assert moyal_star(p0, q0) == q0 * p0 - i_half
    q1, p1 = q_var(1), p_var(1)
    assert moyal_star(q1, p1) == q1 * p1 - i_half
    assert moyal_star(q1, p1, MOSTLY_PLUS) == q1 * p1 + i_half


def test_star_reduces_to_product_plus_half_bracket_on_linear():
    rng = random.Random(3)
    for metric in METRICS:
        for _ in range(30):
            f = random_poly(rng, max_degree=1, n_terms=3)
            g = random_poly(rng, max_degree=1, n_terms=3)
            i_half = PhasePolynomial.constant(
                ComplexRational(Fraction(0), Fraction(1, 2))
            )
            expected = f * g + i_half * poisson_bracket(f, g, metric)
            assert moyal_star(f, g, metric) == expected


def test_star_associativity_random():
    rng = random.Random(9)
    for metric in METRICS:
        for _ in range(40):
            f = random_poly(rng, max_degree=3, n_terms=3)
            g = random_poly(rng, max_degree=3, n_terms=3)
            h = random_poly(rng, max_degree=3, n_terms=3)
            lhs = moyal_star(moyal_star(f, g, metric), h, metric)
            rhs = moyal_star(f, moyal_star(g, h, metric), metric)
            assert lhs == rhs


def test_star_conjugation_antihomomorphism():
    rng = random.Random(14)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        lhs = moyal_star(f, g).conjugate()
        rhs = moyal_star(g.conjugate(), f.conjugate())
        assert lhs == rhs


def test_bopp_operators_reproduce_star_products():
    # a Bopp shift in derivative form is left star multiplication
    rng = random.Random(8)
    for metric in METRICS:
        for mu in range(4):
            P = bopp_momentum(mu, metric)
            Q = bopp_position(mu, metric)
            for _ in range(10):
                f = random_poly(rng, max_degree=3, n_terms=3)
                assert P(f) == moyal_star(p_var(mu), f, metric)
                assert Q(f) == moyal_star(q_var(mu), f, metric)


def test_canonical_commutator_on_basis():
    i_const = PhasePolynomial.constant(CR_I)
    for metric in METRICS:
        for mu in range(4):
            for nu in range(4):
                expected_coeff = (
                    i_const.scale(metric[mu]) if mu == nu else PhasePolynomial.zero()
                )
                for mono in monomial_basis(2):
                    got = commutator_on(q_var(mu), p_var(nu), mono, metric)
                    assert got == expected_coeff * mono


def test_operator_arithmetic():
    # sums, scalings and products of symbols act as the matching operators
    f = parse_expression("q0^2*p1 + 3*q2")
    p0, q1 = p_var(0), q_var(1)
    P0, Q1 = bopp_momentum(0), bopp_position(1)
    combo = moyal_star(2 * p0 + q1 - p0, p0)
    direct = P0(P0(f)) + Q1(P0(f))
    assert moyal_star(combo, f) == direct
    assert moyal_star(-p0, f) == PhasePolynomial.zero() - P0(f)


@pytest.mark.parametrize("metric", [MOSTLY_MINUS, MOSTLY_PLUS], ids=["+---", "-+++"])
def test_pair1_flipped_star_flips_the_pair_1_sign(metric):
    # T(T f * T g) with T: p1 -> -p1 is the star product whose pair-1 terms
    # take the sign -g^{11}; moyal_star reads its metric only as the sign
    # it passes to _pair_terms for each pair
    flipped = (metric[0], -metric[1], metric[2], metric[3])
    rng = random.Random(22)
    differs = 0
    for _ in range(20):
        f, g = random_poly(rng, 3, 4), random_poly(rng, 3, 4)
        got = pair1_flipped_star(f, g, metric)
        assert got == moyal_star(f, g, flipped)
        differs += got != moyal_star(f, g, metric)
    assert differs
