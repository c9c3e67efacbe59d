"""Expression parser and canonical printer for phase-space polynomials.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor | '/' UINT)*
    factor  := ('-')* atom ('^' UINT)?
    atom    := RATIONAL | 'i' | IDENT | '(' expr ')'
    RATIONAL:= UINT ('/' UINT)?
    IDENT   := q0..q3 | p0..p3 | x | y | px | py

UINT is a run of decimal digits (``str.isdecimal``), so a superscript
such as '²' is an unexpected character. The aliases x, y, px, py resolve
to q1, q2, p1, p2. One regex splits the text into tokens, and one loop
per sum reads each term's factors in place; it recurses only at '(',
at most ``MAX_NESTING`` levels deep. A term is one coefficient and one
exponent vector: a number or 'i' multiplies the coefficient, a
coordinate or its power adds to the exponent vector. Coefficients stay
Gaussian integers over one integer denominator, and each output term's
ComplexRational is built from that triple with one gcd; no Fraction is
built. Only a factor of more than one term, a parenthesized sum, goes
through PhasePolynomial's ``*`` and ``**``.
Terms are summed in place by PhasePolynomial's add-then-drop-zero rule,
so the result equals the sum of products of its factors, term order
included. Token positions are computed only for an error. The printer
emits terms in graded-lexicographic order (highest total degree first),
reads each coefficient's integer triple, tests signs on integers and
reduces each printed part with one gcd; its output always re-parses to
the same polynomial.
"""

from __future__ import annotations

import re
from math import comb, gcd

from .algebra import _ZERO_KEY, PhasePolynomial, _from_integers

__all__ = ["ParseError", "parse_expression", "format_polynomial"]

MAX_EXPONENT = 64
MAX_NESTING = 64
MAX_POWER_TERMS = 1000

_ALIASES = {"x": ("q", 1), "y": ("q", 2), "px": ("p", 1), "py": ("p", 2)}
_VAR_NAMES = ["q0", "q1", "q2", "q3", "p0", "p1", "p2", "p3"]
# a name (str.isalnum or '_' after a first non-digit), a decimal run, or any
# other single non-space character
_TOKEN = re.compile(r"[^\W\d]\w*|\d+|\S")


class ParseError(ValueError):
    """Syntax or range error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Refusal(Exception):
    """A ParseError located by token index; ``_located`` finds its position."""


def _located(text: str, message: str, index: int) -> ParseError:
    # an unexpected character anywhere comes first, as a scan before parsing meets it
    starts = []
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if not (tok.isdecimal() or tok[0].isalpha() or tok in "+-*/^()"):
            return ParseError(f"unexpected character {tok[0]!r}", match.start())
        starts.append(match.start())
    starts.append(len(text))
    return ParseError(message, starts[index])


def _slot(name: str, at: int) -> int:
    """The exponent slot of the coordinate ``name``, the token at index ``at``."""
    if name in _ALIASES:
        kind, index = _ALIASES[name]
    elif len(name) == 2 and name[0] in "qp" and name[1].isdecimal():
        kind, index = name[0], int(name[1])
    else:
        raise _Refusal(f"unknown identifier {name!r}", at)
    if index >= 4:
        raise _Refusal(f"identifier {name!r} out of range for dims=4", at)
    return index if kind == "q" else 4 + index


_SLOTS = {name: _slot(name, 0) for name in [*_VAR_NAMES, *_ALIASES]}


def _denominator(toks: list, at: int) -> int:
    tok = toks[at]
    if not tok.isdecimal() or int(tok) == 0:
        raise _Refusal("denominator must be a positive integer", at)
    return int(tok)


def _power(a: int, b: int, e: int) -> tuple:
    """(a + b*i)**e for integers a and b."""
    if not b:
        return a**e, 0
    ra, rb = 1, 0
    for _ in range(e):
        ra, rb = ra * a - rb * b, ra * b + rb * a
    return ra, rb


def _sum(toks: list, i: int, depth: int):
    """The terms of the sum that starts at token ``i``, as {key: (a, b, d)}
    for the coefficient (a + b*i)/d, and the index of the token after it."""
    terms: dict = {}
    sign = 1
    while True:
        # one term: coefficient (a + b*i)/d, exponents, product of multi-term groups
        a, b, d = sign, 0, 1
        exps = [0] * 8
        poly = None
        while True:
            start = i
            tok = toks[i]
            while tok == "-":
                a, b = -a, -b
                i += 1
                tok = toks[i]
            i += 1
            slot = _SLOTS.get(tok)
            group = None
            if slot is None:
                if tok == "(":
                    if depth == MAX_NESTING:
                        raise _Refusal(f"nesting depth exceeds limit {MAX_NESTING}", i - 1)
                    group, i = _sum(toks, i, depth + 1)
                    if toks[i] != ")":
                        raise _Refusal("expected ')'", i)
                    i += 1
                elif tok == "i":
                    fa, fb, fd = 0, 1, 1
                elif tok.isdecimal():
                    fa, fb, fd = int(tok), 0, 1
                    if toks[i] == "/":
                        fd = _denominator(toks, i + 1)
                        i += 2
                elif tok[:1].isalpha():
                    slot = _slot(tok, i - 1)
                else:
                    message = f"unexpected token {tok!r}" if tok else "unexpected end of input"
                    raise _Refusal(message, i - 1)
            e = 1
            caret = toks[i] == "^"
            if caret:
                tok = toks[i + 1]
                if not tok.isdecimal():
                    raise _Refusal("exponent must be a nonnegative integer", i + 1)
                e = int(tok)
                if e > MAX_EXPONENT:
                    raise _Refusal(f"exponent {e} exceeds limit {MAX_EXPONENT}", i + 1)
                i += 2
            if slot is not None:
                exps[slot] += e
            elif group is not None and len(group) > 1:
                if caret:
                    # a t-term group to the k has at most C(t+k-1, k) terms
                    bound = comb(len(group) + e - 1, e)
                    if bound > MAX_POWER_TERMS:
                        raise _Refusal(
                            f"a group of {len(group)} terms to the power {e} can have "
                            f"{bound} terms, more than the limit {MAX_POWER_TERMS}",
                            i - 1,
                        )
                factor = {key: _from_integers(*c) for key, c in group.items()}
                factor = PhasePolynomial._raw(factor) ** e
                if poly is None:
                    poly = factor
                else:
                    # a product of t1 and t2 terms has at most t1*t2 terms
                    bound = len(poly.terms) * len(factor.terms)
                    if bound > MAX_POWER_TERMS:
                        raise _Refusal(
                            f"a product of groups of {len(poly.terms)} and {len(factor.terms)} "
                            f"terms can have {bound} terms, more than the limit {MAX_POWER_TERMS}",
                            start,
                        )
                    poly = poly * factor
            else:
                if group is not None:
                    # a group of at most one term is a monomial factor
                    key, (fa, fb, fd) = next(iter(group.items()), (_ZERO_KEY, (0, 0, 1)))
                    for s, k in enumerate(key):
                        exps[s] += k * e
                if e != 1:
                    (fa, fb), fd = _power(fa, fb, e), fd**e
                if fb:
                    a, b = a * fa - b * fb, a * fb + b * fa
                else:
                    a, b = a * fa, b * fa
                d *= fd
            tok = toks[i]
            while tok == "/":
                d *= _denominator(toks, i + 1)
                i += 2
                tok = toks[i]
            if tok != "*":
                break
            i += 1
        if a or b:
            key = tuple(exps)
            if poly is None:
                pairs = ((key, (a, b, d)),)
            else:
                mono = PhasePolynomial._raw({key: _from_integers(a, b, d)})
                pairs = [(k, c._abd) for k, c in (mono * poly).terms.items()]
            # PhasePolynomial.__add__'s rule, in place: add, then drop a zero sum
            for key, coeff in pairs:
                old = terms.get(key)
                if old is None:
                    terms[key] = coeff
                    continue
                (ra, rb, rd), (ca, cb, cd) = old, coeff
                if rd == cd:
                    ra, rb = ra + ca, rb + cb
                else:
                    ra, rb, rd = ra * cd + ca * rd, rb * cd + cb * rd, rd * cd
                    g = gcd(ra, rb, rd)
                    ra, rb, rd = ra // g, rb // g, rd // g
                if ra or rb:
                    terms[key] = (ra, rb, rd)
                else:
                    del terms[key]
        tok = toks[i]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            return terms, i
        i += 1


def parse_expression(text: str) -> PhasePolynomial:
    """Parse ``text`` into an exact PhasePolynomial."""
    toks = _TOKEN.findall(text)
    toks.append("")
    try:
        terms, i = _sum(toks, 0, 0)
        if toks[i]:
            raise _Refusal(f"unexpected token {toks[i]!r}", i)
    except _Refusal as refusal:
        raise _located(text, *refusal.args) from None
    return PhasePolynomial._raw(
        {key: _from_integers(a, b, d) for key, (a, b, d) in terms.items()}
    )


def _format_rational(n: int, d: int) -> str:
    """n/d for d > 0 in lowest terms, an integer when d divides n."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _format_coeff(a: int, b: int, d: int, has_monomial: bool) -> str:
    """Render a nonzero coefficient (a + b*i)/d, any overall '-' already pulled out."""
    if not b:
        if a == d and has_monomial:
            return ""
        return _format_rational(a, d)
    if not a:
        if b == d:
            return "i"
        return f"{_format_rational(b, d)}*i"
    sign = " + " if b > 0 else " - "
    b = abs(b)
    im_str = "i" if b == d else f"{_format_rational(b, d)}*i"
    return f"({_format_rational(a, d)}{sign}{im_str})"


def _format_monomial(key: tuple) -> str:
    parts = []
    for slot, e in enumerate(key):
        if e == 0:
            continue
        name = _VAR_NAMES[slot]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(poly: PhasePolynomial) -> str:
    """Canonical string form: graded-lex term order, exact rational coefficients."""
    if not poly.terms:
        return "0"
    keys = sorted(poly.terms, key=lambda k: (-sum(k), tuple(-e for e in k)))
    pieces = []
    for idx, key in enumerate(keys):
        a, b, d = poly.terms[key]._abd
        negative = a < 0 or (not a and b < 0)
        if negative:
            a, b = -a, -b
        mono = _format_monomial(key)
        coeff_str = _format_coeff(a, b, d, bool(mono))
        if mono and coeff_str:
            body = f"{coeff_str}*{mono}"
        else:
            body = mono or coeff_str
        if idx == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
