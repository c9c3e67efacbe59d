"""Expression parser and canonical printer for phase-space polynomials.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('-')* atom ('^' UINT)?
    atom    := RATIONAL | 'i' | IDENT | '(' expr ')'
    RATIONAL:= UINT ('/' UINT)?
    IDENT   := q0..q3 | p0..p3 | x | y | px | py

UINT is a run of decimal digits (``str.isdecimal``), so a superscript
such as '²' is an unexpected character. The aliases x, y, px, py resolve
to q1, q2, p1, p2. Each term is built directly as one coefficient and one
exponent vector: a number or 'i' multiplies the coefficient, a coordinate
or its power adds to the exponent vector. Only a factor of more than one
term, a parenthesized sum, goes through PhasePolynomial's ``*`` and
``**``. Terms are summed in place by PhasePolynomial's add-then-drop-zero
rule, so the result equals the sum of products of its factors, term
order included. The printer emits
terms in graded-lexicographic order (highest total degree first) and its
output always re-parses to the same polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import _ZERO_KEY, CR_I, CR_ONE, CR_ZERO, ComplexRational, PhasePolynomial

__all__ = ["ParseError", "parse_expression", "format_polynomial"]

MAX_EXPONENT = 64
MAX_POWER_TERMS = 1000

_ALIASES = {"x": ("q", 1), "y": ("q", 2), "px": ("p", 1), "py": ("p", 2)}
_VAR_NAMES = ["q0", "q1", "q2", "q3", "p0", "p1", "p2", "p3"]


class ParseError(ValueError):
    """Syntax or range error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Term:
    """A term being built: coefficient, exponent vector, and the product of
    its multi-term factors (None while every factor has had one term)."""

    __slots__ = ("coeff", "exps", "poly")

    def __init__(self):
        self.coeff = CR_ONE
        self.exps = [0] * 8
        self.poly = None

    def scale(self, c: ComplexRational):
        # a product with 1 or with i needs no Fraction multiplication
        if self.coeff is CR_ONE:
            self.coeff = c
        elif c is CR_I:
            self.coeff = ComplexRational(-self.coeff.im, self.coeff.re)
        else:
            self.coeff = self.coeff * c


def _power(c: ComplexRational, exponent: int) -> ComplexRational:
    if exponent == 0:
        return CR_ONE
    out = c
    for _ in range(exponent - 1):
        out = out * c
    return out


class _Parser:
    def __init__(self, text: str, dims: int):
        self.toks = _Tokenizer(text)
        self.dims = dims

    def parse(self) -> PhasePolynomial:
        terms = self._expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return PhasePolynomial._raw(terms, self.dims)

    def _expr(self) -> dict:
        # PhasePolynomial.__add__'s rule, in place: add, then drop a zero sum
        terms: dict = {}
        negate = False
        while True:
            for key, coeff in self._term():
                if negate:
                    coeff = -coeff
                if key in terms:
                    acc = terms[key] + coeff
                    if acc.is_zero():
                        del terms[key]
                    else:
                        terms[key] = acc
                else:
                    terms[key] = coeff
            kind = self.toks.peek()[0]
            if kind not in ("+", "-"):
                return terms
            self.toks.next()
            negate = kind == "-"

    def _term(self):
        """The nonzero (key, coefficient) pairs of one term."""
        term = _Term()
        self._factor(term)
        while True:
            kind = self.toks.peek()[0]
            if kind == "*":
                self.toks.next()
                self._factor(term)
            elif kind == "/":
                # division only by a positive integer literal
                self.toks.next()
                dkind, dvalue, dpos = self.toks.next()
                if dkind != "int" or int(dvalue) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                term.scale(ComplexRational(Fraction(1, int(dvalue))))
            else:
                break
        if term.coeff.is_zero():
            return ()
        key = tuple(term.exps)
        if term.poly is None:
            return ((key, term.coeff),)
        return (PhasePolynomial._raw({key: term.coeff}, self.dims) * term.poly).terms.items()

    def _factor(self, term: _Term):
        negate = False
        start = self.toks.peek()[2]
        while self.toks.peek()[0] == "-":
            self.toks.next()
            negate = not negate
        atom = self._atom()
        exponent = 1
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, value, pos = self.toks.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            exponent = int(value)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds limit {MAX_EXPONENT}", pos)
            if isinstance(atom, dict) and len(atom) > 1:
                # a t-term group to the k has at most C(t+k-1, k) terms
                bound = comb(len(atom) + exponent - 1, exponent)
                if bound > MAX_POWER_TERMS:
                    raise ParseError(
                        f"a group of {len(atom)} terms to the power {exponent} can have "
                        f"{bound} terms, more than the limit {MAX_POWER_TERMS}",
                        pos,
                    )
        if isinstance(atom, int):
            term.exps[atom] += exponent
        elif isinstance(atom, ComplexRational):
            term.scale(_power(atom, exponent))
        elif len(atom) > 1:
            poly = PhasePolynomial._raw(atom, self.dims) ** exponent
            if term.poly is None:
                term.poly = poly
            else:
                # a product of t1 and t2 terms has at most t1*t2 terms
                bound = len(term.poly.terms) * len(poly.terms)
                if bound > MAX_POWER_TERMS:
                    raise ParseError(
                        f"a product of groups of {len(term.poly.terms)} and {len(poly.terms)} "
                        f"terms can have {bound} terms, more than the limit {MAX_POWER_TERMS}",
                        start,
                    )
                term.poly = term.poly * poly
        else:
            # a group of at most one term is a monomial factor
            key, coeff = next(iter(atom.items()), (_ZERO_KEY, CR_ZERO))
            term.scale(_power(coeff, exponent))
            for slot, e in enumerate(key):
                term.exps[slot] += e * exponent
        if negate:
            term.coeff = -term.coeff

    def _atom(self):
        """A coordinate's exponent slot, a number, or the terms of a group."""
        kind, value, pos = self.toks.next()
        if kind == "int":
            numerator = int(value)
            if self.toks.peek()[0] == "/":
                self.toks.next()
                dkind, dvalue, dpos = self.toks.next()
                if dkind != "int" or int(dvalue) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                return ComplexRational(Fraction(numerator, int(dvalue)))
            return ComplexRational(Fraction(numerator))
        if kind == "ident":
            if value == "i":
                return CR_I
            return self._variable(value, pos)
        if kind == "(":
            inner = self._expr()
            ckind, _, cpos = self.toks.next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            return inner
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def _variable(self, name: str, pos: int) -> int:
        if name in _ALIASES:
            kind, index = _ALIASES[name]
        elif len(name) == 2 and name[0] in "qp" and name[1].isdecimal():
            kind, index = name[0], int(name[1])
        else:
            raise ParseError(f"unknown identifier {name!r}", pos)
        if index >= self.dims:
            raise ParseError(
                f"identifier {name!r} out of range for dims={self.dims}", pos
            )
        return index if kind == "q" else 4 + index


def parse_expression(text: str, dims: int = 4) -> PhasePolynomial:
    """Parse ``text`` into an exact PhasePolynomial over ``dims`` coordinate pairs."""
    return _Parser(text, dims).parse()


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_coeff(c: ComplexRational, has_monomial: bool) -> str:
    """Render a nonzero coefficient, assuming any overall '-' was already pulled out."""
    if c.im == 0:
        if c.re == 1 and has_monomial:
            return ""
        return _format_fraction(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        return f"{_format_fraction(c.im)}*i"
    sign = " + " if c.im > 0 else " - "
    im = abs(c.im)
    im_str = "i" if im == 1 else f"{_format_fraction(im)}*i"
    return f"({_format_fraction(c.re)}{sign}{im_str})"


def _format_monomial(key: tuple) -> str:
    parts = []
    for slot, e in enumerate(key):
        if e == 0:
            continue
        name = _VAR_NAMES[slot]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _is_negative(c: ComplexRational) -> bool:
    return c.re < 0 or (c.re == 0 and c.im < 0)


def format_polynomial(poly: PhasePolynomial) -> str:
    """Canonical string form: graded-lex term order, exact rational coefficients."""
    if not poly.terms:
        return "0"
    keys = sorted(poly.terms, key=lambda k: (-sum(k), tuple(-e for e in k)))
    pieces = []
    for idx, key in enumerate(keys):
        coeff = poly.terms[key]
        negative = _is_negative(coeff)
        if negative:
            coeff = -coeff
        mono = _format_monomial(key)
        coeff_str = _format_coeff(coeff, bool(mono))
        if mono and coeff_str:
            body = f"{coeff_str}*{mono}"
        else:
            body = mono or coeff_str
        if idx == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
