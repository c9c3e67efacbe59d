"""Independent reference implementations used to cross-check the package.

Everything here is derived from first principles with a different method
than the code under test: closed-form Gaussian moment integrals and brute
numerical quadrature for the star product, the mode-shift grid star
product that the mixed-representation algorithm replaces,
three_pass_grid_star, the same mixed-representation star with one inverse
q transform and plane wave per q-mode, which the q-Fourier accumulation
replaces, two_pass_grid_star, that accumulation with one inverse transform
over every p axis per factor and q-mode, which grid_star's one transform
per p axis (an outer pair's f transform shared by the inner q-modes)
replaces, the
derivative-multi-index walk that the per-pair closed-form Moyal star
replaces, direct numeric evaluation for the exact polynomial algebra,
Bopp shifts in derivative form as the operator route that the
package's symbol calculus replaces, the parser that built each term
from PhasePolynomial products with its own character-by-character
scanner, which the flat one-regex parser with integer coefficients
replaces, and fraction_closed_form_star, the same per-pair closed form summed in
FractionPairComplex arithmetic term by term, which the integer-coded
Moyal star (one common denominator per factor, one reduced integer
triple per output term) replaces, and constant_matrix_product, the
4x4 product of tuple matrices of ComplexRational that the spinor layer's
one matrix product (entries are symbols, multiplied by the star product)
replaces for constant matrices. dense_matrix_product is that product on
nested-tuple matrices of symbols, with the star products of all 64 entry
pairs of a 4x4 product, which the product over nonzero entry pairs of the
read-only entry maps replaces; sparse_matrix and dense_matrix convert
between the two forms. dirac_basis_tables gives the textbook
Kronecker tables of gamma5, alpha and Sigma, against which the tables
clifford_report derives from the gammas are checked. commutative_star and
pair1_flipped_star are wrong star products, and mutate_star patches one
into every module that multiplies, so a test can require that a physics
check fails under it. spinor_wigner_sum is
the per-component Hermitian spinor Wigner sum that wigner_landau's single
grid star replaces, and laguerre_coefficients gives the exact rational power-basis
coefficients of L_n, evaluated in Fraction arithmetic, against which the
generalized-Laguerre recurrence of the Landau eigenfunctions is checked.
FractionPairComplex is the complex rational held as a pair of Fractions,
which ComplexRational's one reduced Gaussian-integer triple replaces.
row_by_row_field_csv is the CSV field dump written one csv.writer row and
six format calls per grid point, which write_field_csv's per-axis
formatting and one %-format per block of rows replaces. basis_sweep
star-multiplies every residual, zero or not, onto every basis monomial,
which AlgebraReport.sweep's decision by the residual symbol replaces.
rayleigh_quotient_fresh builds its 400-point Gauss-Legendre rule on every
call, which rayleigh_quotient's one rule per process replaces.
per_row_kummer_m, per_row_kummer_u and per_row_laguerre evaluate one float
x at a time, the terminating M series in Fraction arithmetic and the two
psi values of each U term for every x; they are the route that the confluent
functions' one array pass per table (the terminating series in integers
over one denominator) replaces, and per_row_table runs one of them over a
table as specfun-eval did. digamma_kummer_u is that U series with scipy's
digamma for both psi values, which the package's own psi (a shifted
asymptotic series, and exact harmonic numbers at the integers) replaces.
roll_fd_derivative sums the eighth-order stencil's shifted copies of the
field with np.roll, the route that fd_derivative's one FFT pair with the
stencil's exact Fourier multiplier replaces.
"""

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import digamma

import phaseq.dirac
import phaseq.poincare
import phaseq.star
from phaseq import (
    CR_ZERO,
    MOSTLY_MINUS,
    ComplexRational,
    Field,
    LandauParams,
    MetricSignature,
    PhasePolynomial,
    bandlimit,
    grid_star,
    monomial_basis,
    moyal_star,
    reduced_ode_apply,
)
from phaseq.confluent import (
    MAX_SERIES_ARG,
    SERIES_TERM_LIMIT,
    _check_terms,
    _is_nonpositive_int,
    _laguerre,
    _psi,
    _psi_of_integers,
)
from phaseq.grids import _FD1_W, _FD2_W
from phaseq.parsing import _ALIASES, MAX_EXPONENT, MAX_NESTING, ParseError


def eval_poly(poly: PhasePolynomial, qs, ps) -> complex:
    """Evaluate a PhasePolynomial at numeric coordinates."""
    total = 0j
    for key, coeff in poly.terms.items():
        val = coeff.to_complex()
        for i in range(4):
            if key[i]:
                val *= qs[i] ** key[i]
            if key[4 + i]:
                val *= ps[i] ** key[4 + i]
        total += val
    return total


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_poly(
    rng: random.Random,
    max_degree: int = 3,
    n_terms: int = 4,
    pairs: int = 4,
) -> PhasePolynomial:
    """A random polynomial in the first ``pairs`` (q, p) pairs."""
    poly = PhasePolynomial.zero()
    for _ in range(n_terms):
        key = [0] * 8
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            slot = rng.randrange(2 * pairs)
            key[slot if slot < pairs else slot - pairs + 4] += 1
        coeff = ComplexRational(random_rational(rng), random_rational(rng))
        poly = poly + PhasePolynomial.monomial(tuple(key), coeff)
    return poly


def gaussian_qp_star(q, p, s: float) -> complex:
    """Closed form for ((q w) star (p w))(q, p) with w = exp(-(q^2+p^2)/s).

    Uses the integral form of the star product,

        (f star g)(q, p) = (1/pi^2) int f(q+a, p+b) g(q+c, p+d)
                           exp(2i(a d - b c)) da db dc dd,

    which for Gaussian-times-linear integrands reduces to moments of a
    four-dimensional complex Gaussian. The pair signature here is the
    single (q, p) pair with a +1 sign.
    """
    A = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(A, 1.0 / s)
    A[0, 3] = A[3, 0] = -1j
    A[1, 2] = A[2, 1] = 1j
    b = np.array([-2 * q / s, -2 * p / s, -2 * q / s, -2 * p / s], dtype=complex)
    Ainv = np.linalg.inv(A)
    Z = np.pi**2 / np.sqrt(np.linalg.det(A)) * np.exp(0.25 * b @ Ainv @ b)
    m = 0.5 * Ainv @ b
    Sigma = 0.5 * Ainv
    moment = (q + m[0]) * (p + m[3]) + Sigma[0, 3]
    return complex(
        Z * np.exp(-2.0 * (q * q + p * p) / s) * moment / np.pi**2
    )


def quadrature_star(f_fn, g_fn, q, p, half_width: float = 8.0, m: int = 120):
    """Brute Gauss-Legendre quadrature of the star-product integral.

    ``f_fn`` and ``g_fn`` take (q, p) arrays and must decay inside the
    integration box [-half_width, half_width]^4.
    """
    x, w = np.polynomial.legendre.leggauss(m)
    x = x * half_width
    w = w * half_width
    QA, PB = np.meshgrid(x, x, indexing="ij")
    F = f_fn(q + QA, p + PB) * np.outer(w, w)
    G = g_fn(q + QA, p + PB) * np.outer(w, w)
    K1 = np.exp(2j * np.outer(x, x))  # exp(2i a d)
    K2 = np.exp(-2j * np.outer(x, x))  # exp(-2i b c)
    val = np.einsum("ab,cd,ad,bc->", F, G, K1, K2, optimize=True)
    return complex(val / np.pi**2)


def mode_shift_star(f, g):
    """Grid star product by translating f once per Fourier mode of g.

    g is expanded in its discrete Fourier modes; for each nonzero mode, f
    is translated by half the paired conjugate wavenumber (a pure phase in
    full Fourier space) and multiplied by that plane wave. The Nyquist mode
    of every even-sized axis is projected out of both factors first. This
    costs one full inverse FFT per mode, O(N^2 log N).
    """
    spec = f.spec
    shape = spec.shape
    ndim = len(shape)
    ghat = np.fft.fftn(g.values) / spec.total_points
    fhat = np.fft.fftn(f.values)
    for axis, ax in enumerate(spec.axes):
        if ax.n % 2 == 0:
            cut = [slice(None)] * ndim
            cut[axis] = ax.n // 2
            ghat[tuple(cut)] = 0.0
            fhat[tuple(cut)] = 0.0

    ks = [ax.wavenumbers() for ax in spec.axes]
    kvecs, rels = [], []
    for axis, ax in enumerate(spec.axes):
        s = [1] * ndim
        s[axis] = ax.n
        kvecs.append(ks[axis].reshape(s))
        rels.append((ax.spacing * np.arange(ax.n)).reshape(s))

    # the q axis of a pair is translated by -sign*k_p/2, the p axis by
    # +sign*k_q/2; an axis in no pair is never translated
    partner = {axis: (axis, 0.0) for axis in range(ndim)}
    for qi, pi, sign in spec.pairs:
        partner[qi] = (pi, -0.5 * sign)
        partner[pi] = (qi, +0.5 * sign)

    out = np.zeros(shape, dtype=np.complex128)
    for flat in np.flatnonzero(ghat):
        idx = np.unravel_index(flat, shape)
        phase = np.zeros(shape)
        wave = np.zeros(shape)
        for axis in range(ndim):
            wave = wave + ks[axis][idx[axis]] * rels[axis]
            pax, factor = partner[axis]
            delta = factor * ks[pax][idx[pax]]
            if delta:
                phase = phase + kvecs[axis] * delta
        shifted = np.fft.ifftn(fhat * np.exp(1j * phase))
        out += ghat[idx] * np.exp(1j * wave) * shifted
    return Field(spec, out)


def three_pass_grid_star(f: Field, g: Field) -> Field:
    """Numerical star product in the mixed representation, three passes per mode.

    Both factors are band-limited, then Fourier-transformed along every
    paired axis. With f_a(p) and g_c(p) the q-mode coefficients of the two
    factors, a pair (q, p, sigma) gives the twisted convolution

        h(q, p) = sum_{a,c} exp(i(a+c)(q-lo)) f_a(p + sigma c/2) g_c(p - sigma a/2),

    where both p translations are pure phases in p-Fourier space, so the
    result is exact for band-limited fields. For each q-mode c of g it
    makes three full O(N log N) passes: the p transforms of both shifted
    factors and an inverse q transform of their product, which is then
    multiplied by exp(i kappa_c (q - lo)) and summed. That is O(N_q N log N)
    in all for N grid points and N_q q-modes. An axis in no pair is never
    transformed, so the product is plain along it. grid_star replaces the
    per-mode inverse q transform and plane wave by a q-mode shift and one
    inverse q transform at the end.
    """
    f._check(g)
    spec = f.spec
    ndim = len(spec.axes)
    q_axes = tuple(qi for qi, _, _ in spec.pairs)
    p_axes = tuple(pi for _, pi, _ in spec.pairs)
    q_shape = tuple(spec.axes[qi].n for qi in q_axes)

    def along(axis, values):
        shape = [1] * ndim
        shape[axis] = values.size
        return values.reshape(shape)

    # per-axis wavenumbers and offsets x - lo, broadcastable over the grid
    k = [along(axis, ax.wavenumbers()) for axis, ax in enumerate(spec.axes)]
    x = [along(axis, ax.spacing * np.arange(ax.n)) for axis, ax in enumerate(spec.axes)]

    fhat = np.fft.fftn(bandlimit(f).values, axes=q_axes + p_axes)
    ghat = np.fft.fftn(bandlimit(g).values, axes=q_axes + p_axes)
    # shifts g_c by -sigma a/2 along p for every output q-mode a
    twist = np.exp(-0.5j * sum(s * k[qi] * k[pi] for qi, pi, s in spec.pairs))
    out = np.zeros(spec.shape, dtype=np.complex128)
    for c in np.ndindex(*q_shape):
        pick = [slice(None)] * ndim
        shift = wave = 0.0
        for (qi, pi, s), ci in zip(spec.pairs, c):
            pick[qi] = slice(ci, ci + 1)
            kappa = k[qi].flat[ci]
            shift = shift + s * kappa * k[pi]
            wave = wave + kappa * x[qi]
        fs = np.fft.ifftn(fhat * np.exp(0.5j * shift), axes=p_axes)
        gs = np.fft.ifftn(ghat[tuple(pick)] * twist, axes=p_axes)
        out += np.exp(1j * wave) * np.fft.ifftn(fs * gs, axes=q_axes)
    return Field(spec, out / np.prod(q_shape))


def two_pass_grid_star(f: Field, g: Field) -> Field:
    """Numerical star product in the mixed representation, two passes per mode.

    The twisted convolution of grid_star, summed the same way: for each
    q-mode c of g, both factors are shifted by one phase over every p axis
    at once and transformed back along all p axes with one ifftn each;
    their product is shifted to the output q-mode a + c in one q-Fourier
    accumulator, and one inverse q transform closes the sum. grid_star
    replaces each ifftn by one transform per p axis and shares f's
    transform along an outer p axis across the inner q-modes; with one
    pair the arithmetic is the same.
    """
    f._check(g)
    spec = f.spec
    ndim = len(spec.axes)
    q_axes = tuple(qi for qi, _, _ in spec.pairs)
    p_axes = tuple(pi for _, pi, _ in spec.pairs)
    q_shape = tuple(spec.axes[qi].n for qi in q_axes)

    def along(axis, values):
        shape = [1] * ndim
        shape[axis] = values.size
        return values.reshape(shape)

    # per-axis wavenumbers, broadcastable over the grid
    k = [along(axis, ax.wavenumbers()) for axis, ax in enumerate(spec.axes)]

    fhat = np.fft.fftn(bandlimit(f).values, axes=q_axes + p_axes)
    ghat = np.fft.fftn(bandlimit(g).values, axes=q_axes + p_axes)
    # shifts g_c by -sigma a/2 along p for every q-mode a of f
    twist = np.exp(-0.5j * sum(s * k[qi] * k[pi] for qi, pi, s in spec.pairs))
    acc = np.zeros(spec.shape, dtype=np.complex128)
    for c in np.ndindex(*q_shape):
        pick = [slice(None)] * ndim
        shift = 0.0
        for (qi, pi, s), ci in zip(spec.pairs, c):
            pick[qi] = slice(ci, ci + 1)
            shift = shift + s * k[qi].flat[ci] * k[pi]
        fs = np.fft.ifftn(fhat * np.exp(0.5j * shift), axes=p_axes)
        gs = np.fft.ifftn(ghat[tuple(pick)] * twist, axes=p_axes)
        # exp(i kappa_c (q - lo)) moves q-mode a to a + c on the grid
        acc += np.roll(fs * gs, c, axis=q_axes)
    return Field(spec, np.fft.ifftn(acc, axes=q_axes) / np.prod(q_shape))


def roll_fd_derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Eighth-order central difference as a sum of periodically shifted copies.

    Each stencil weight w_j scales f(x + j h), taken with np.roll, and the
    sum is divided by h^order.
    """
    h = f.spec.axes[axis].spacing
    weights = _FD1_W if order == 1 else _FD2_W
    out = np.zeros_like(f.values)
    for offset, w in weights:
        out += w * np.roll(f.values, -offset, axis=axis)
    return Field(f.spec, out / h**order)


def spinor_wigner_sum(psi):
    """Hermitian Wigner function of a 4-spinor, one grid star per component.

    The sum of psi_a (star) conj(psi_a) over the nonzero components, which
    wigner_landau replaces by twice one grid star for its (+phi, -phi)
    spinor.
    """
    out = Field.zeros(psi[0].spec)
    for comp in psi:
        if comp.max_abs() == 0.0:
            continue
        out = out + grid_star(comp, comp.conjugate())
    return out


# ---------------------------------------------------------------------------
# Laguerre polynomials in exact rational arithmetic


def laguerre_coefficients(n: int) -> list:
    """Exact coefficients of L_n: L_n(x) = sum_k c_k x^k with rational c_k."""
    return [
        Fraction((-1) ** k * comb(n, k), factorial(k)) for k in range(n + 1)
    ]


def _horner(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def exact_landau_polynomials(n: int, eB: Fraction, z: Fraction):
    """P, P' and P'' at z for P(z) = L_n(2z/eB), all in Fraction arithmetic.

    The Landau eigenfunction is e^{-z/eB} P(z); its derivatives follow from
    these by the product rule.
    """
    scale = 2 / Fraction(eB)
    poly = [c * scale**k for k, c in enumerate(laguerre_coefficients(n))]
    poly1 = [k * c for k, c in enumerate(poly)][1:]
    poly2 = [k * c for k, c in enumerate(poly1)][1:]
    return tuple(_horner(p, Fraction(z)) for p in (poly, poly1, poly2))


# ---------------------------------------------------------------------------
# complex rationals as a pair of Fractions


@dataclass(frozen=True)
class FractionPairComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "FractionPairComplex":
        if isinstance(value, FractionPairComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionPairComplex(Fraction(value))
        if isinstance(value, complex):
            # exact binary floats convert losslessly through Fraction
            return FractionPairComplex(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return FractionPairComplex(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to FractionPairComplex")

    def __add__(self, other):
        other = FractionPairComplex.of(other)
        return FractionPairComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionPairComplex.of(other))

    def __rsub__(self, other):
        return FractionPairComplex.of(other) + (-self)

    def __mul__(self, other):
        other = FractionPairComplex.of(other)
        return FractionPairComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionPairComplex.of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return FractionPairComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "FractionPairComplex":
        return FractionPairComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


# ---------------------------------------------------------------------------
# exact star product as a walk over derivative multi-indices


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


def derivative_walk_star(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Exact star product by walking every derivative multi-index.

    Expansion over derivative multi-indices alpha (q on f, p on g) and
    beta (p on f, q on g):

        f*g = sum (i/2)^{|a|+|b|} (-1)^{|b|} / (a! b!)
              * prod_mu g^{mumu (a_mu+b_mu)}
              * (d_q^a d_p^b f) (d_p^a d_q^b g)
    """
    kmax = min(f.degree(), g.degree())
    out = PhasePolynomial.zero()
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


# ---------------------------------------------------------------------------
# exact star product by the per-pair closed form, coefficient by coefficient


def _closed_form_pair_terms(a: int, b: int, c: int, d: int, sign: int) -> list:
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


def fraction_closed_form_star(
    f: PhasePolynomial, g: PhasePolynomial, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """Exact star product by the per-pair closed form in FractionPairComplex arithmetic.

    Each term pair multiplies by the per-pair closed form, for sign
    g = g^{mumu} of pair mu:

        q^a p^b * q^c p^d = sum_{r <= min(a,d), s <= min(b,c)}
            (i g/2)^{r+s} (-1)^s / (r! s!) * a!/(a-r)! b!/(b-s)! d!/(d-r)! c!/(c-s)!
            * q^{a+c-r-s} p^{b+d-r-s},

    taken over the Cartesian product of the four pairs' terms.
    """
    terms: dict = {}
    f_terms = [(key, FractionPairComplex(c.re, c.im)) for key, c in f.terms.items()]
    g_terms = [(key, FractionPairComplex(c.re, c.im)) for key, c in g.terms.items()]
    for key1, c1 in f_terms:
        for key2, c2 in g_terms:
            c = c1 * c2
            # c times i^0, i^1, i^2, i^3
            turns = (c, FractionPairComplex(-c.im, c.re), -c, FractionPairComplex(c.im, -c.re))
            pairs = [
                _closed_form_pair_terms(
                    key1[mu], key1[4 + mu], key2[mu], key2[4 + mu], metric[mu]
                )
                for mu in range(4)
            ]
            for combo in product(*pairs):
                k = sum(t[0] for t in combo)
                w = Fraction(prod(t[1] for t in combo), 2**k)
                turned = turns[k % 4]
                coeff = FractionPairComplex(turned.re * w, turned.im * w)
                key = tuple(t[2] for t in combo) + tuple(t[3] for t in combo)
                acc = terms.get(key)
                terms[key] = coeff if acc is None else acc + coeff
    return PhasePolynomial._raw(
        {key: ComplexRational(c.re, c.im) for key, c in terms.items() if c}
    )


# ---------------------------------------------------------------------------
# spinor matrices: constants in ComplexRational arithmetic, and symbols
# in the dense nested-tuple form


def constant_matrix_product(a, b):
    """a * b for 4x4 tuple matrices of ComplexRational, summed entrywise."""
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(4)), CR_ZERO) for j in range(4)
        )
        for i in range(4)
    )


def dense_matrix_product(a, b, metric=MOSTLY_MINUS):
    """a * b for nested-tuple matrices of symbols: each entry the sum over
    every k of the star products a[i][k] * b[k][j], zero factors included."""
    return tuple(
        tuple(
            sum(
                (moyal_star(a[i][k], b[k][j], metric) for k in range(len(b))),
                PhasePolynomial.zero(),
            )
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def sparse_matrix(rows):
    """The read-only map {(i, j): entry} of a nested-tuple matrix's nonzero entries."""
    return MappingProxyType(
        {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if not x.is_zero()}
    )


def dense_matrix(m, shape=(4, 4)):
    """The nested-tuple matrix of a map of nonzero entries, zeros filled in."""
    rows, cols = shape
    return tuple(
        tuple(m.get((i, j), PhasePolynomial.zero()) for j in range(cols)) for i in range(rows)
    )


# the 2x2 identity and the Pauli matrices, as tables of 0, +-1 and +-1j
_I2 = ((1, 0), (0, 1))
_PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def _kron(a, b):
    """The Kronecker product of two 2x2 tables, as a map of constant symbols."""
    return sparse_matrix(
        tuple(
            tuple(PhasePolynomial.constant(a[i // 2][j // 2] * b[i % 2][j % 2]) for j in range(4))
            for i in range(4)
        )
    )


def dirac_basis_tables():
    """The textbook Dirac-basis (gamma5, (alpha^1..3), (Sigma^1..3)):
    gamma5 = sigma_1 x I, alpha^k = sigma_1 x sigma_k and Sigma^k = I x sigma_k,
    the same under either metric."""
    return (
        _kron(_PAULI[0], _I2),
        tuple(_kron(_PAULI[0], s) for s in _PAULI),
        tuple(_kron(_I2, s) for s in _PAULI),
    )


# ---------------------------------------------------------------------------
# mutation controls: wrong star products that a physics check must notice


def commutative_star(f, g, metric=MOSTLY_MINUS):
    """The commutative product f * g in place of the star product."""
    return f * g


def _flip_p1(f):
    """T f with T: p1 -> -p1."""
    return PhasePolynomial._raw(
        {key: -c if key[5] % 2 else c for key, c in f.terms.items()}
    )


def pair1_flipped_star(f, g, metric=MOSTLY_MINUS):
    """The star product with pair 1's sign flipped, as T(T f * T g) with T: p1 -> -p1."""
    return _flip_p1(moyal_star(_flip_p1(f), _flip_p1(g), metric))


def mutate_star(monkeypatch, product):
    """Make every exact check multiply with `product` for the rest of the test:
    these three modules hold every moyal_star an exact check calls."""
    for module in (phaseq.star, phaseq.poincare, phaseq.dirac):
        monkeypatch.setattr(module, "moyal_star", product)


# ---------------------------------------------------------------------------
# operator trees: Bopp shifts as differential operators, applied to f


def bopp_position(mu: int, metric=MOSTLY_MINUS):
    """Q^mu f = q^mu f + (i/2) g^{mumu} df/dp_mu."""
    q = PhasePolynomial.coordinate("q", mu)
    shift = ComplexRational(Fraction(0), Fraction(metric[mu], 2))
    return lambda f: q * f + f.derivative("p", mu).scale(shift)


def bopp_momentum(mu: int, metric=MOSTLY_MINUS):
    """P^mu f = p^mu f - (i/2) g^{mumu} df/dq_mu."""
    p = PhasePolynomial.coordinate("p", mu)
    shift = ComplexRational(Fraction(0), Fraction(-metric[mu], 2))
    return lambda f: p * f + f.derivative("q", mu).scale(shift)


def combine(*parts):
    """The operator sum_k c_k A_k from (c_k, A_k) pairs."""
    return lambda f: sum(
        (op(f).scale(c) for c, op in parts), PhasePolynomial.zero()
    )


def compose(*ops):
    """Ordered composition; the rightmost operator is applied first."""

    def apply(f):
        for op in reversed(ops):
            f = op(f)
        return f

    return apply


def tree_commutator(a, b, f: PhasePolynomial) -> PhasePolynomial:
    """(AB - BA) f by applying the operators in turn."""
    return a(b(f)) - b(a(f))


def tree_lowered_momentum(mu: int, metric=MOSTLY_MINUS):
    """P_mu = g_{mumu} P^mu."""
    return combine((metric[mu], bopp_momentum(mu, metric)))


def tree_angular(mu: int, nu: int, metric=MOSTLY_MINUS):
    """M_{mu nu} = Q_mu P_nu - Q_nu P_mu with lowered Bopp shifts."""

    def lowered_q(a):
        return combine((metric[a], bopp_position(a, metric)))

    return combine(
        (1, compose(lowered_q(mu), tree_lowered_momentum(nu, metric))),
        (-1, compose(lowered_q(nu), tree_lowered_momentum(mu, metric))),
    )


# ---------------------------------------------------------------------------
# identity sweeps: every residual multiplied onto every basis monomial


def basis_sweep(report, pairs, max_degree: int, metric: MetricSignature):
    """Record residual * m for each (relation, residual) pair and each
    monomial m of degree <= max_degree, monomial-major."""
    for mono in monomial_basis(max_degree):
        for relation, residual in pairs:
            report.record(relation, mono, moyal_star(residual, mono, metric))


# ---------------------------------------------------------------------------
# parser: every term built as a product of PhasePolynomial factors


class _Tokenizer:
    """Scan character by character into (kind, text, position) tokens."""

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


class _ProductParser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0

    def parse(self) -> PhasePolynomial:
        poly = self._expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return poly

    def _expr(self) -> PhasePolynomial:
        out = self._term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                out = out + self._term()
            elif kind == "-":
                self.toks.next()
                out = out - self._term()
            else:
                return out

    def _term(self) -> PhasePolynomial:
        out = self._factor()
        while True:
            kind = self.toks.peek()[0]
            if kind == "*":
                self.toks.next()
                out = out * self._factor()
            elif kind == "/":
                # division only by a positive integer literal
                self.toks.next()
                dkind, dvalue, dpos = self.toks.next()
                if dkind != "int" or int(dvalue) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                out = out.scale(Fraction(1, int(dvalue)))
            else:
                return out

    def _factor(self) -> PhasePolynomial:
        sign = 1
        while self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -sign
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, value, pos = self.toks.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            exponent = int(value)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds limit {MAX_EXPONENT}", pos)
            base = base**exponent
        return base if sign == 1 else -base

    def _atom(self) -> PhasePolynomial:
        kind, value, pos = self.toks.next()
        if kind == "int":
            numerator = int(value)
            if self.toks.peek()[0] == "/":
                self.toks.next()
                dkind, dvalue, dpos = self.toks.next()
                if dkind != "int" or int(dvalue) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                return PhasePolynomial.constant(Fraction(numerator, int(dvalue)))
            return PhasePolynomial.constant(numerator)
        if kind == "ident":
            if value == "i":
                return PhasePolynomial.constant(ComplexRational(Fraction(0), Fraction(1)))
            return self._variable(value, pos)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting depth exceeds limit {MAX_NESTING}", pos)
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            ckind, _, cpos = self.toks.next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            return inner
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def _variable(self, name: str, pos: int) -> PhasePolynomial:
        if name in _ALIASES:
            kind, index = _ALIASES[name]
        elif len(name) == 2 and name[0] in "qp" and name[1].isdecimal():
            kind, index = name[0], int(name[1])
        else:
            raise ParseError(f"unknown identifier {name!r}", pos)
        if index >= 4:
            raise ParseError(f"identifier {name!r} out of range for dims=4", pos)
        return PhasePolynomial.coordinate(kind, index)


def polynomial_product_parse(text: str) -> PhasePolynomial:
    """Parse ``text`` by scanning it character by character and multiplying and
    adding PhasePolynomial values; ``parse_expression`` must give the same result."""
    return _ProductParser(text).parse()


def row_by_row_field_csv(f: Field, path):
    """One row per grid point: axis coordinates, then re and im."""
    coords = f.spec.meshgrid()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([ax.name for ax in f.spec.axes] + ["re", "im"])
        flat = [c.ravel() for c in coords]
        values = f.values.ravel()
        for row in range(values.size):
            writer.writerow(
                [format(float(c[row]), ".17g") for c in flat]
                + [
                    format(float(values[row].real), ".17g"),
                    format(float(values[row].imag), ".17g"),
                ]
            )


def rayleigh_quotient_fresh(phi, params: LandauParams) -> float:
    """<phi, Op phi> / <phi, phi> on z in [0, 30 eB], with a 400-point
    Gauss-Legendre rule built for this call."""
    z_max = 30.0 * params.eB
    x, w = leggauss(400)
    z = 0.5 * z_max * (x + 1.0)
    w = 0.5 * z_max * w
    op = reduced_ode_apply(phi, params, z)
    vals = phi(z)
    denom = float(np.sum(w * vals * vals))
    if abs(denom) < 1e-300:
        raise ZeroDivisionError("vanishing norm in Rayleigh quotient")
    return float(np.sum(w * vals * op)) / denom


def per_row_kummer_m(a: float, b: float, x: float) -> float:
    """M(a, b, x) for one float x: the terminating series in Fraction
    arithmetic, and otherwise the Kahan-compensated forward series, with
    the Kummer transformation for x < 0."""
    a, b, x = float(a), float(b), float(x)
    if _is_nonpositive_int(b) and not (
        _is_nonpositive_int(a) and int(a) > int(b)
    ):
        raise ValueError("M(a, b, x) has a pole for nonpositive integer b")
    if _is_nonpositive_int(a):
        n = -int(a)
        _check_terms(f"terminating series for M({a}, {b}, x)", n + 1)
        xf, bf = Fraction(x), Fraction(b)
        total = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            total += term
            if k < n:
                term *= Fraction(int(a) + k) * xf / (bf + k) / (k + 1)
        return float(total)
    if abs(x) > MAX_SERIES_ARG:
        raise ValueError(
            f"|x| = {abs(x)} exceeds the series domain limit {MAX_SERIES_ARG}"
        )
    if x < 0:
        return math.exp(x) * per_row_kummer_m(b - a, b, -x)
    total = 1.0
    term = 1.0
    comp = 0.0
    for k in range(SERIES_TERM_LIMIT):
        term *= (a + k) * x / ((b + k) * (k + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise OverflowError(f"series for M({a}, {b}, {x}) overflows")
        if abs(term) <= 1e-17 * max(abs(total), 1.0):
            return total
    raise RuntimeError("series for M(a, b, x) did not converge")


def per_row_kummer_u(a: float, b: float, x: float) -> float:
    """U(a, 1, x) for one float x: (-1)^n n! L_n(x) for a = -n, and
    otherwise the logarithmic series with the package's psi(a + k) and
    its correctly rounded psi(1 + k) in each term."""
    return _per_row_u(a, b, x, _psi, _psi_of_integers().__getitem__)


def digamma_kummer_u(a: float, b: float, x: float) -> float:
    """U(a, 1, x) for one float x by the same series with two scipy
    digamma calls per term, the route the package's own psi replaces."""
    return _per_row_u(a, b, x, digamma, lambda k: digamma(1.0 + k))


def _per_row_u(a, b, x, psi, psi_one_plus):
    """U(a, 1, x) for one float x, with psi(a + k) and psi(1 + k) of each
    term of the logarithmic series taken from psi and psi_one_plus(k)."""
    a, b, x = float(a), float(b), float(x)
    if b != 1.0:
        raise ValueError("kummer_u supports b = 1 only")
    if _is_nonpositive_int(a):
        n = -int(a)
        value = per_row_laguerre(n, x)
        return ((-1.0) ** n) * math.factorial(n) * value
    if x <= 0:
        raise ValueError("U(a, 1, x) requires x > 0")
    if x > MAX_SERIES_ARG:
        raise ValueError(
            f"x = {x} exceeds the series domain limit {MAX_SERIES_ARG}"
        )
    lnx = math.log(x)
    prefactor = -1.0 / math.gamma(a)
    total = 0.0
    largest = 0.0
    poch_over_fact2 = 1.0
    for k in range(SERIES_TERM_LIMIT):
        bracket = lnx + psi(a + k) - 2.0 * psi_one_plus(k)
        term = poch_over_fact2 * bracket
        total += term
        largest = max(largest, abs(term))
        poch_over_fact2 *= (a + k) * x / ((k + 1.0) * (k + 1.0))
        if k > 4 and abs(term) <= 1e-17 * max(abs(total), 1.0):
            if largest * 1e-16 > 1e-10 * max(abs(total), 1e-300):
                raise ValueError(
                    "cancellation in the logarithmic series exceeds the "
                    f"accuracy budget at a={a}, x={x}; reduce x"
                )
            return prefactor * total
    raise RuntimeError("series for U(a, 1, x) did not converge")


def per_row_laguerre(n: int, x: float) -> float:
    """L_n(x) for one float x by the recurrence."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    return _laguerre(n, 0, float(x))


def per_row_table(fn, xs):
    """fn at each x in turn, as specfun-eval evaluated its table row by row:
    (list of values, None), or (None, the first row's error)."""
    try:
        return [fn(float(x)) for x in xs], None
    except (ValueError, OverflowError, RuntimeError, ZeroDivisionError) as exc:
        return None, exc
