import hashlib
import random
import re
import time
from fractions import Fraction

import pytest

import phaseq.parsing
import phaseq.star
from phaseq import (
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    ParseError,
    PhasePolynomial,
    format_polynomial,
    moyal_star,
    p_var,
    parse_expression,
    q_var,
)

from oracles import fraction_closed_form_star, polynomial_product_parse, random_poly


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


def test_group_product_bounded_before_multiplying():
    # groups of t1 and t2 terms make t1*t2 products; 330*330 is refused unformed
    group = "(q0+q1+q2+q3+p0+p1+p2+p3)^4"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="108900 terms, more than the limit 1000") as err:
        parse_expression(group + "*" + group)
    assert time.perf_counter() - start < 0.5
    assert err.value.pos == len(group) + 1
    # the bound counts pairs, not distinct terms: 65*65 = 4225 pairs, 129 terms
    with pytest.raises(ParseError, match="4225 terms"):
        parse_expression("(q0+p0)^64*(q0+p0)^64")
    # 31*31 = 961 stays within the limit, and a third factor is bounded too
    assert len(parse_expression("(q0+p0)^30*(q1+p1)^30").terms) == 961
    with pytest.raises(ParseError, match="961 and 2 terms can have 1922 terms"):
        parse_expression("(q0+p0)^30*(q1+p1)^30*(q2+p2)")


def test_nesting_refused_past_the_limit():
    # 64 nested groups parse; the 65th '(' is refused before the parser descends into it
    assert parse_expression("(" * 64 + "q0" + ")" * 64) == q_var(0)
    with pytest.raises(ParseError, match="nesting depth exceeds limit 64") as err:
        parse_expression("(" * 65 + "q0" + ")" * 65)
    assert err.value.pos == 64
    with pytest.raises(ParseError) as err:
        parse_expression("(" * 400 + "q0" + ")" * 400)
    assert err.value.pos == 64
    # an unexpected character anywhere is reported first, as for every syntax error
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse_expression("(" * 400 + "q0 @")
    assert err.value.pos == 403


@pytest.mark.parametrize("text, pos", [("q0^\u00b2", 3), ("\u00b2", 0), ("q\u00b2", 0)])
def test_non_decimal_digits_are_parse_errors(text, pos):
    # superscript digits pass str.isdigit() but are not decimal digits
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.pos == pos


def _random_texts(pairs):
    rng = random.Random(f"parse-oracle:{pairs}")
    return [format_polynomial(random_poly(rng, 6, rng.randint(1, 8), pairs)) for _ in range(50)]


def _star_texts():
    rng = random.Random("parse-oracle:star")
    return [
        format_polynomial(moyal_star(random_poly(rng, 3, 3), random_poly(rng, 3, 3)))
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
    "hand-written": lambda: _HAND_WRITTEN + ["q1 - p0", "q3"],
    "malformed": lambda: _MALFORMED,
}


def _outcome(parse, text):
    try:
        poly = parse(text)
    except ParseError as err:
        return str(err), err.pos
    assert all(
        type(c.re) is Fraction and type(c.im) is Fraction for c in poly.terms.values()
    )
    return poly, list(poly.terms)


@pytest.mark.parametrize("case", list(_PARSE_CASES))
def test_parse_matches_polynomial_product_oracle(case):
    for text in _PARSE_CASES[case]():
        assert _outcome(parse_expression, text) == _outcome(polynomial_product_parse, text), text


_INSERTED = ["+", "-", "*", "/", "^", "(", ")", "i", "0", "q4"]
# '\u00e9' is a letter, '\u00b2' a digit but not decimal, '_x' a name that starts with '_',
# and '\uff11' (full-width 1) is decimal, so q\uff11 names q1 and \uff11 is the number 1
_NON_ASCII = ["\u00e9", "q\u00b2", "\u00b2", "_x", "\uff11", "q\uff11", "\uff11/2*q0", "p0^\uff12"]


def _mutations(count):
    """Seeded one-token edits of printed star products and hand-written texts."""
    rng = random.Random("parse-fuzz")
    sources = _star_texts() + _HAND_WRITTEN
    cases = []
    for _ in range(count):
        toks = re.findall(r"\w+|\S", rng.choice(sources))
        at = rng.randrange(len(toks))
        edit = rng.randrange(4)
        if edit == 0:
            del toks[at]
        elif edit == 1:
            toks.insert(at, toks[at])
        elif edit == 2 and at + 1 < len(toks):
            toks[at], toks[at + 1] = toks[at + 1], toks[at]
        else:
            toks.insert(at, rng.choice(_INSERTED + _NON_ASCII))
        cases.append(rng.choice(["", " "]).join(toks))
    return cases


def test_parse_fuzz_matches_polynomial_product_oracle():
    cases = _mutations(600) + _NON_ASCII
    cases += ["(" * n + "q0 - p0" + ")" * n for n in (64, 65)]
    outcomes = [_outcome(parse_expression, text) for text in cases]
    # the edits reach both the polynomial and the error outcomes
    assert 20 < sum(isinstance(o[0], PhasePolynomial) for o in outcomes) < len(cases) - 20
    for text, outcome in zip(cases, outcomes):
        assert outcome == _outcome(polynomial_product_parse, text), text


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call's arguments."""
    calls = []
    original = owner.__dict__[name]

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_printed_product_parse_builds_no_fraction(monkeypatch):
    # each output term's coefficient is built once, from integers; no Fraction is built
    cases = [(text, _outcome(polynomial_product_parse, text)) for text in _star_texts()]
    fractions = _count_calls(monkeypatch, Fraction, "__new__")
    coefficients = _count_calls(monkeypatch, phaseq.parsing, "_from_integers")
    for text, expected in cases:
        fractions.clear()
        coefficients.clear()
        poly = parse_expression(text)
        assert fractions == []
        assert len(coefficients) == len(poly.terms) > 0
        assert poly == expected[0] and list(poly.terms) == expected[1]


def test_star_product_and_printer_build_no_fraction(monkeypatch):
    rng = random.Random("no-fraction")
    cases = []
    for _ in range(10):
        f, g = random_poly(rng, 4, 3), random_poly(rng, 4, 3)
        cases.append((f, g, fraction_closed_form_star(f, g)))
    fractions = _count_calls(monkeypatch, Fraction, "__new__")
    coefficients = _count_calls(monkeypatch, phaseq.star, "_from_integers")
    for f, g, expected in cases:
        fractions.clear()
        coefficients.clear()
        product = moyal_star(f, g)
        text = format_polynomial(product)
        assert fractions == []
        assert len(coefficients) == len(product.terms) > 0
        assert product == expected and parse_expression(text) == product


def _printed_star_trials():
    """The hand-written texts as printed, then seeded star trials: f, g, h, f*g and (f*g)*h."""
    rng = random.Random("printer-pin")
    texts = [format_polynomial(parse_expression(text)) for text in _HAND_WRITTEN]
    for trial in range(20):
        metric = (MOSTLY_MINUS, MOSTLY_PLUS)[trial % 2]
        f, g, h = (random_poly(rng, 4, 3) for _ in range(3))
        fg = moyal_star(f, g, metric)
        texts += [format_polynomial(p) for p in (f, g, h, fg, moyal_star(fg, h, metric))]
    return texts


def test_printed_star_trials_pinned():
    # the sha256 of the printed text, as the Fraction-pair printer printed it
    texts = _printed_star_trials()
    assert len(texts) == 116
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "535ab7eea48f7c2099079b1b601391d7a524e9fc88099cc782ba96603b8bae3d"

