import random
import time
from fractions import Fraction

import pytest

from phaseq import (
    ParseError,
    PhasePolynomial,
    format_polynomial,
    moyal_star,
    p_var,
    parse_expression,
    q_var,
)

from oracles import polynomial_product_parse, random_poly


def test_basic_expressions():
    assert parse_expression("q0") == q_var(0)
    assert parse_expression("p3") == p_var(3)
    assert parse_expression("q0*p0") == q_var(0) * p_var(0)
    assert parse_expression("q1^2") == q_var(1) * q_var(1)
    assert parse_expression("2*q0 - 3*p1") == (
        q_var(0).scale(2) - p_var(1).scale(3)
    )
    assert parse_expression("(q0 + p0)^2") == (q_var(0) + p_var(0)) ** 2


def test_rational_and_imaginary_literals():
    half_i = parse_expression("1/2*i")
    assert format_polynomial(half_i) == "1/2*i"
    assert parse_expression("i/2") == half_i
    assert parse_expression("i*i") == PhasePolynomial.constant(-1)
    assert parse_expression("-3/4") == PhasePolynomial.constant(0) - parse_expression("3/4")


def test_coordinate_aliases():
    assert parse_expression("x") == q_var(1)
    assert parse_expression("y") == q_var(2)
    assert parse_expression("px") == p_var(1)
    assert parse_expression("py") == p_var(2)


def test_roundtrip_random_polynomials():
    rng = random.Random(42)
    for _ in range(100):
        poly = random_poly(rng, max_degree=4, n_terms=5)
        text = format_polynomial(poly)
        assert parse_expression(text) == poly


def test_pinned_format():
    poly = parse_expression("q0*p0 + 1/2*i")
    assert format_polynomial(poly) == "q0*p0 + 1/2*i"
    assert str(poly) == "q0*p0 + 1/2*i"


def test_parse_errors():
    for bad in ["q0 +", "q4", "p0^", "2**q0", "(q0", "q0^100", "foo"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("q0 + @")
    assert err.value.pos == 5


def test_group_power_bounded_before_expanding():
    # (8 terms)^8 can have C(15, 8) = 6435 terms; refused before any product
    text = "(q0+q1+q2+q3+p0+p1+p2+p3)^8"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="6435 terms, more than the limit 1000") as err:
        parse_expression(text)
    assert time.perf_counter() - start < 0.1
    assert err.value.pos == len(text) - 1
    # C(11, 4) = 330 terms stays within the limit and expands in full
    assert len(parse_expression("(q0+q1+q2+q3+p0+p1+p2+p3)^4").terms) == 330
    # a two-term group reaches MAX_EXPONENT: C(65, 64) = 65 terms
    assert len(parse_expression("(q0+p0)^64").terms) == 65
    # groups of zero or one term are not expanded, so any power parses
    assert parse_expression("(q0-q0)^0") == parse_expression("1")
    assert parse_expression("(2*q0)^64") == parse_expression("2^64*q0^64")


@pytest.mark.parametrize("text, pos", [("q0^\u00b2", 3), ("\u00b2", 0), ("q\u00b2", 0)])
def test_non_decimal_digits_are_parse_errors(text, pos):
    # superscript digits pass str.isdigit() but are not decimal digits
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.pos == pos


def _random_texts(dims):
    rng = random.Random(f"parse-oracle:{dims}")
    return [
        (format_polynomial(random_poly(rng, 6, rng.randint(1, 8), dims)), dims)
        for _ in range(50)
    ]


def _star_texts():
    rng = random.Random("parse-oracle:star")
    return [
        (format_polynomial(moyal_star(random_poly(rng, 3, 3), random_poly(rng, 3, 3))), 4)
        for _ in range(20)
    ]


_HAND_WRITTEN = [
    "(1 + 2*i)^3",
    "i^3",
    "i*i*i",
    "(1 + 2*i)*i*q0",
    "0^0",
    "--x*py",
    "q0*p0/7",
    "((q0 + p0))^2*(q1 - 2/3*i)",
    "q0*p0 - p0*q0 + 1",
    "(q0 - q0)*p0",
    "x + y - px*py",
    "q0 + p0 - q0 + q0",
    "(q0 + p0)*(q0 - p0)",
    "2*(q0 + p0)*q1*(p1 + 1)/3 - i*(q1 - q2)^2",
    "-(q0 - i)^0*3/4^2",
    "(2*q0)^3*p0/5",
]
_MALFORMED = ["q0 +", "q4", "p0^", "2**q0", "(q0", "q0^100", "foo", "q0 + @", "1/0", "q0/0", ")"]

_PARSE_CASES = {
    **{f"random-dims{d}": (lambda d=d: _random_texts(d)) for d in range(1, 5)},
    "star-products": _star_texts,
    "hand-written": lambda: [(t, 4) for t in _HAND_WRITTEN] + [("q1 - p0", 2), ("q3", 2)],
    "malformed": lambda: [(t, 4) for t in _MALFORMED],
}


def _outcome(parse, text, dims):
    try:
        poly = parse(text, dims)
    except ParseError as err:
        return str(err), err.pos
    assert all(
        type(c.re) is Fraction and type(c.im) is Fraction for c in poly.terms.values()
    )
    return poly, list(poly.terms)


@pytest.mark.parametrize("case", list(_PARSE_CASES))
def test_parse_matches_polynomial_product_oracle(case):
    for text, dims in _PARSE_CASES[case]():
        assert _outcome(parse_expression, text, dims) == _outcome(
            polynomial_product_parse, text, dims
        ), text
