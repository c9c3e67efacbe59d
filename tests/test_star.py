import random
from fractions import Fraction

import pytest

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

from oracles import bopp_momentum, bopp_position, derivative_walk_star, random_poly

METRICS = (MOSTLY_MINUS, MOSTLY_PLUS)


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize("metric", METRICS, ids=["mostly_minus", "mostly_plus"])
def test_star_matches_derivative_walk_oracle(metric, dims):
    rng = random.Random(100 * dims + metric[0])
    zero = PhasePolynomial.zero(dims)
    for _ in range(25):
        f = random_poly(rng, max_degree=4, n_terms=3, dims=dims)
        g = random_poly(rng, max_degree=4, n_terms=3, dims=dims)
        assert moyal_star(f, g, metric) == derivative_walk_star(f, g, metric)
        assert moyal_star(zero, g, metric) == derivative_walk_star(zero, g, metric)
        assert moyal_star(f, zero, metric) == derivative_walk_star(f, zero, metric)


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
