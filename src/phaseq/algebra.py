"""Exact polynomial algebra over phase-space coordinates.

The eight generators are q0..q3 and p0..p3 (upper-index components).
Coefficients are complex numbers with exact rational real and imaginary
parts, so every algebraic identity in this package can be tested for
literal equality instead of closeness to zero. A coefficient is held as
one Gaussian integer over one positive denominator, in lowest terms, and
its arithmetic builds no Fractions; ``re`` and ``im`` are built on read.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "ComplexRational",
    "CR_ZERO",
    "CR_ONE",
    "CR_I",
    "MetricSignature",
    "MOSTLY_MINUS",
    "MOSTLY_PLUS",
    "PhasePolynomial",
    "q_var",
    "p_var",
    "poisson_bracket",
]

_RationalLike = (int, Fraction)


class ComplexRational:
    """Complex number with exact rational real and imaginary parts.

    Held as one integer triple (a, b, d) that stands for (a + b*i)/d, with
    d > 0 and gcd(a, b, d) = 1, so every value has exactly one triple and
    equality and hashing compare its three integers. Arithmetic works in
    integers with one gcd per result. ``re`` and ``im`` are read-only
    Fractions; values are immutable and unordered.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        if not isinstance(re, _RationalLike) or not isinstance(im, _RationalLike):
            raise TypeError("ComplexRational parts must be int or Fraction")
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        # both parts are in lowest terms, so over lcm(q, s) gcd(a, b, d) = 1
        d = lcm(q, s)
        _set_abd(self, (p * (d // q), r * (d // s), d))

    @property
    def re(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    @staticmethod
    def of(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, _RationalLike):
            return _triple(value.numerator, 0, value.denominator)
        if isinstance(value, complex):
            # exact binary floats convert losslessly through Fraction
            return ComplexRational(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return ComplexRational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to ComplexRational")

    def __add__(self, other):
        if other.__class__ is not ComplexRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _from_integers(a + c, b + e, d)
        return _from_integers(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _triple(-a, -b, d)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        if other.__class__ is not ComplexRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _from_integers(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.of(other)
        a, b, d = self._abd
        c, e, f = other._abd
        if not (c or e):
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        return _from_integers((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def conjugate(self) -> "ComplexRational":
        a, b, d = self._abd
        return _triple(a, -b, d)

    def is_zero(self) -> bool:
        a, b, _ = self._abd
        return not a and not b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        a, b, d = self._abd
        return complex(a / d) + 1j * complex(b / d)

    def __eq__(self, other):
        if other.__class__ is ComplexRational:
            return self._abd == other._abd
        return NotImplemented

    def __hash__(self):
        return hash(self._abd)

    def __repr__(self):
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ComplexRational, (self.re, self.im)


def _operand(value):
    """value as a ComplexRational, or NotImplemented when of() refuses it.

    The arithmetic methods return that NotImplemented, so Python tries the
    other operand's reflected method: CR_I * q_var(0) scales the polynomial.
    """
    try:
        return ComplexRational.of(value)
    except TypeError:
        return NotImplemented


_set_abd = ComplexRational._abd.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> ComplexRational:
    """The ComplexRational (a + b*i)/d for a triple already in lowest terms."""
    c = _new(ComplexRational)
    _set_abd(c, (a, b, d))
    return c


def _from_integers(a: int, b: int, d: int) -> ComplexRational:
    """The ComplexRational (a + b*i)/d for integers a, b and d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))
CR_I = ComplexRational(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class MetricSignature:
    """Diagonal metric with entries +/-1 and exactly one timelike direction."""

    diag: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.diag) != 4 or any(g not in (1, -1) for g in self.diag):
            raise ValueError("metric diagonal must be four entries of +/-1")
        if abs(sum(self.diag)) != 2:
            raise ValueError("metric must have exactly one timelike entry")

    def __getitem__(self, mu: int) -> int:
        return self.diag[mu]

    def label(self) -> str:
        return "".join("+" if g == 1 else "-" for g in self.diag)


MOSTLY_MINUS = MetricSignature((1, -1, -1, -1))
MOSTLY_PLUS = MetricSignature((-1, 1, 1, 1))

# exponent keys: (q0, q1, q2, q3, p0, p1, p2, p3)
_ZERO_KEY = (0,) * 8


class PhasePolynomial:
    """Multivariate polynomial in q0..q3, p0..p3 with ComplexRational coefficients.

    Immutable; all arithmetic is exact. An exponent key is eight
    nonnegative integers, (q0, q1, q2, q3, p0, p1, p2, p3).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            coeff = ComplexRational.of(coeff)
            if coeff.is_zero():
                continue
            try:
                exps = tuple(map(operator.index, key))
            except TypeError:
                exps = ()
            if len(exps) != 8 or min(exps) < 0:
                raise ValueError(f"bad exponent key {key}")
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "PhasePolynomial":
        # internal fast path: terms already clean
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, dims: int = 4) -> "PhasePolynomial":
        if dims != 4:
            raise ValueError("dims must be 4")
        return cls._raw({})

    @classmethod
    def constant(cls, value) -> "PhasePolynomial":
        c = ComplexRational.of(value)
        return cls._raw({} if c.is_zero() else {_ZERO_KEY: c})

    @classmethod
    def coordinate(cls, kind: str, index: int) -> "PhasePolynomial":
        if kind not in ("q", "p"):
            raise ValueError("kind must be 'q' or 'p'")
        if not 0 <= index < 4:
            raise ValueError(f"generator index {index} out of range")
        key = [0] * 8
        key[index + (0 if kind == "q" else 4)] = 1
        return cls._raw({tuple(key): CR_ONE})

    @classmethod
    def monomial(cls, exponents, coeff=CR_ONE, dims: int = 4) -> "PhasePolynomial":
        if dims != 4:
            raise ValueError("dims must be 4")
        return cls({tuple(exponents): ComplexRational.of(coeff)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PhasePolynomial):
            other = PhasePolynomial.constant(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, CR_ZERO) + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return PhasePolynomial._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return PhasePolynomial._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PhasePolynomial):
            other = PhasePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return PhasePolynomial.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PhasePolynomial):
            return self.scale(other)
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                acc = terms.get(key, CR_ZERO) + c1 * c2
                if acc.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        return PhasePolynomial._raw(terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "PhasePolynomial":
        c = ComplexRational.of(value)
        if c.is_zero():
            return PhasePolynomial.zero()
        return PhasePolynomial._raw({k: v * c for k, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = PhasePolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    # -- calculus ----------------------------------------------------------

    def derivative(self, kind: str, index: int) -> "PhasePolynomial":
        """Exact partial derivative with respect to q{index} or p{index}."""
        if kind not in ("q", "p"):
            raise ValueError("kind must be 'q' or 'p'")
        if not 0 <= index < 4:
            raise ValueError("generator index out of range")
        slot = index + (0 if kind == "q" else 4)
        terms: dict = {}
        for key, coeff in self.terms.items():
            e = key[slot]
            if e == 0:
                continue
            nk = list(key)
            nk[slot] = e - 1
            terms[tuple(nk)] = coeff * e
        return PhasePolynomial._raw(terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def conjugate(self) -> "PhasePolynomial":
        return PhasePolynomial._raw({k: c.conjugate() for k, c in self.terms.items()})

    def constant_term(self) -> ComplexRational:
        return self.terms.get(_ZERO_KEY, CR_ZERO)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, PhasePolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, complex, ComplexRational)):
            return self == PhasePolynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        from .parsing import format_polynomial

        return format_polynomial(self)

    def __repr__(self):
        return f"PhasePolynomial({self.__str__()!r})"


def q_var(index: int) -> PhasePolynomial:
    return PhasePolynomial.coordinate("q", index)


def p_var(index: int) -> PhasePolynomial:
    return PhasePolynomial.coordinate("p", index)


def poisson_bracket(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Poisson bracket sum_mu g^{mumu} (df/dq^mu dg/dp^mu - df/dp^mu dg/dq^mu).

    The metric factor raises the momentum-derivative index; with the
    mostly-minus default, {q0, p0} = 1 and {q1, p1} = -1.
    """
    out = PhasePolynomial.zero()
    for mu in range(4):
        gm = metric[mu]
        term = f.derivative("q", mu) * g.derivative("p", mu) - f.derivative(
            "p", mu
        ) * g.derivative("q", mu)
        out = out + term.scale(gm)
    return out
