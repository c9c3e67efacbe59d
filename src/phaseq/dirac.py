"""Gamma matrices, sigma blocks and the Dirac square, in one algebra of
matrices of phase-space symbols.

A matrix is the read-only map {(row, col): PhasePolynomial} of its nonzero
entries, built by symbol_matrix; a missing entry is zero, so a 4x1 spinor
is a map whose keys all have column 0. A matrix acts on spinors by left
star multiplication, and the product of two matrices sums the star
products of their nonzero entry pairs, so a matrix of constants (the gamma
matrices) and a matrix of symbols (gamma^mu P_mu) multiply through the
same route. Entries are exact, and ``==`` on two matrices is mapping
equality, so every Clifford-algebra identity is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType

from .algebra import (
    CR_I,
    ComplexRational,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    MetricSignature,
    PhasePolynomial,
    p_var,
)
from .poincare import AlgebraReport, casimir_p2
from .star import moyal_star

__all__ = [
    "GammaRep",
    "standard_gamma_rep",
    "sigma",
    "gamma_product_decomposition",
    "clifford_report",
    "dirac_square_check",
]

_ZERO = PhasePolynomial.zero()
_HALF_I = ComplexRational(Fraction(0), Fraction(1, 2))


def symbol_matrix(entries) -> MappingProxyType:
    """The read-only map of the nonzero entries of {(row, col): PhasePolynomial}.

    Read-only because matrices are shared: standard_gamma_rep is cached.
    """
    return MappingProxyType({key: x for key, x in entries.items() if not x.is_zero()})


def _diag(value) -> MappingProxyType:
    """value * I, for a number or a phase-space symbol."""
    if not isinstance(value, PhasePolynomial):
        value = PhasePolynomial.constant(value)
    return symbol_matrix({(i, i): value for i in range(4)})


def mat_mul(a, b, metric: MetricSignature = MOSTLY_MINUS) -> MappingProxyType:
    """a * b, each entry the sum over k of the star products a[i, k] * b[k, j],
    taken over the pairs of nonzero entries only."""
    b_rows: dict = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            xy = moyal_star(x, y, metric)
            out[i, j] = out[i, j] + xy if (i, j) in out else xy
    return symbol_matrix(out)


def mat_add(a, b) -> MappingProxyType:
    out = dict(a)
    for key, y in b.items():
        out[key] = out[key] + y if key in out else y
    return symbol_matrix(out)


def mat_scale(c, a) -> MappingProxyType:
    """c * a for a number c."""
    return symbol_matrix({key: x.scale(c) for key, x in a.items()})


# 2x2 tables: the identity, i*sigma_2 and the Pauli matrices
_I2 = ((1, 0), (0, 1))
_I_SIGMA2 = ((0, 1), (-1, 0))
_PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def _kron(a, b) -> MappingProxyType:
    """The Kronecker product of two 2x2 tables of 0, +-1 and +-1j, as a constant matrix."""
    return symbol_matrix(
        {
            (i, j): PhasePolynomial.constant(a[i // 2][j // 2] * b[i % 2][j % 2])
            for i in range(4)
            for j in range(4)
        }
    )


@dataclass(frozen=True)
class GammaRep:
    """A representation of the Clifford algebra: four gammas and the metric of
    {gamma^mu, gamma^nu} = 2 g^{mu nu} I. Sigma blocks, alpha, Sigma and gamma5
    are derived from the gammas, never stored."""

    gamma: tuple  # (gamma^0, gamma^1, gamma^2, gamma^3)
    metric: MetricSignature


@lru_cache(maxsize=2)
def standard_gamma_rep(metric: MetricSignature = MOSTLY_MINUS) -> GammaRep:
    """The Dirac-basis gamma matrices: gamma^0 = sigma_3 x I and gamma^k =
    (i sigma_2) x sigma_k.

    With the mostly-minus metric these are the textbook matrices; for the
    mostly-plus metric every gamma is multiplied by i so that the Clifford
    relation {gamma^mu, gamma^nu} = 2 g^{mu nu} I still holds entrywise.
    """
    if metric not in (MOSTLY_MINUS, MOSTLY_PLUS):
        raise ValueError("unsupported metric")
    gammas = (_kron(_PAULI[2], _I2),) + tuple(_kron(_I_SIGMA2, s) for s in _PAULI)
    if metric == MOSTLY_PLUS:
        gammas = tuple(mat_scale(CR_I, g) for g in gammas)
    return GammaRep(gammas, metric)


def _products(rep: GammaRep) -> list:
    """The 16 products gamma^mu gamma^nu, indexed [mu][nu]."""
    return [[mat_mul(a, b, rep.metric) for b in rep.gamma] for a in rep.gamma]


def _half_i_commutator(ab, ba) -> MappingProxyType:
    """(i/2) (ab - ba): sigma^{mu nu} from gamma^mu gamma^nu and gamma^nu gamma^mu."""
    return mat_add(mat_scale(_HALF_I, ab), mat_scale(-_HALF_I, ba))


def _sigma_block(products: list, mu: int, nu: int) -> MappingProxyType:
    """sigma^{mu nu} from the 16 gamma products of _products."""
    return _half_i_commutator(products[mu][nu], products[nu][mu])


def _derived_tables(products: list, metric: MetricSignature) -> tuple:
    """(gamma5, alpha, Sigma) from the gamma products: gamma5 = i gamma^0
    gamma^1 gamma^2 gamma^3, alpha^j = g_00 gamma^0 gamma^j, Sigma^k = gamma5 alpha^k."""
    gamma5 = mat_scale(CR_I, mat_mul(products[0][1], products[2][3], metric))
    alpha = tuple(mat_scale(metric[0], products[0][j]) for j in (1, 2, 3))
    return gamma5, alpha, tuple(mat_mul(gamma5, a, metric) for a in alpha)


def sigma(mu: int, nu: int, rep: GammaRep) -> MappingProxyType:
    """sigma^{mu nu} = (i/2) [gamma^mu, gamma^nu], from the two products it needs."""
    if not (0 <= mu < 4 and 0 <= nu < 4):
        raise ValueError("index out of range")
    a, b, metric = rep.gamma[mu], rep.gamma[nu], rep.metric
    return _half_i_commutator(mat_mul(a, b, metric), mat_mul(b, a, metric))


def gamma_product_decomposition(rep: GammaRep) -> ComplexRational:
    """The unique c with gamma^mu gamma^nu = g^{mu nu} I + c sigma^{mu nu} for all mu != nu.

    The off-diagonal metric vanishes, so c is read from the first nonzero
    entry of sigma^{01} in row-major order, and every product must equal
    c sigma^{mu nu} exactly.
    Raises ValueError when sigma^{01} is zero or no consistent c exists (a
    broken representation).
    """
    return _decomposition_constant(_products(rep))


def _decomposition_constant(products: list) -> ComplexRational:
    """gamma_product_decomposition's c, read from the 16 gamma^mu gamma^nu."""
    s01 = _sigma_block(products, 0, 1)
    if not s01:
        raise ValueError("degenerate sigma block")
    key = min(s01)
    c = products[0][1].get(key, _ZERO).constant_term() / s01[key].constant_term()
    for mu, nu in permutations(range(4), 2):
        if products[mu][nu] != mat_scale(c, _sigma_block(products, mu, nu)):
            raise ValueError("no consistent decomposition constant")
    return c


def clifford_report(rep: GammaRep) -> dict:
    """Check a representation's Clifford relation, sigma blocks, decomposition
    constant and gamma5 exactly.

    alpha, Sigma and gamma5 come from the representation's own gammas
    (_derived_tables), so every representation of the Clifford algebra with
    its metric passes, in any basis. Returns {"pass", "failures",
    "decomposition_constant"}: one failure string per identity that does not
    hold, and gamma_product_decomposition's constant as str(complex), or
    None with a "decomposition: ..." failure when it is inconsistent.
    """
    metric = rep.metric
    products = _products(rep)
    gamma5, alpha, sigma_big = _derived_tables(products, metric)
    failures = []
    for mu in range(4):
        for nu in range(4):
            want = _diag(2 * metric[mu] if mu == nu else 0)
            if mat_add(products[mu][nu], products[nu][mu]) != want:
                failures.append(f"anticommutator({mu},{nu})")
    # sigma^{0j} = i g_00 alpha^j and sigma^{ij} = g_00 Sigma^k for cyclic
    # (i, j, k), under either metric
    flip = metric[0]
    for j in range(1, 4):
        if _sigma_block(products, 0, j) != mat_scale(CR_I * flip, alpha[j - 1]):
            failures.append(f"sigma(0,{j}) != {flip:+d}*i*alpha^{j}")
    for (i, j), k in {(1, 2): 2, (2, 3): 0, (3, 1): 1}.items():
        if _sigma_block(products, i, j) != mat_scale(flip, sigma_big[k]):
            failures.append(f"sigma({i},{j}) != {flip:+d}*Sigma^{k + 1}")
    try:
        const_str = str(_decomposition_constant(products).to_complex())
    except ValueError as exc:
        failures.append(f"decomposition: {exc}")
        const_str = None
    if mat_mul(gamma5, gamma5, metric) != _diag(1):
        failures.append("gamma5^2 != I")
    for mu, g in enumerate(rep.gamma):
        if mat_add(mat_mul(gamma5, g, metric), mat_mul(g, gamma5, metric)):
            failures.append(f"gamma5 anticommutator with gamma^{mu}")
    return {
        "pass": not failures,
        "failures": failures,
        "decomposition_constant": const_str,
    }


def dirac_square_check(
    max_degree: int = 2, metric: MetricSignature = MOSTLY_MINUS
) -> AlgebraReport:
    """Verify (gamma.P)^2 = (P^mu P_mu) I on all spinor monomials of degree <= max_degree.

    gamma.P = sum_mu gamma^mu P_mu with P_mu = g_{mumu} p^mu and the
    standard gamma matrices of the metric. The residual symbol matrix
    R = (gamma.P) * (gamma.P) - P^2 I is built once; the spinor with
    monomial m in component `slot` maps to row `a` as R[a][slot] * m. Each
    entry is one relation of AlgebraReport.sweep: it holds exactly when
    R[a][slot] is the zero symbol, and `checked` counts 16 C(8 + d, d).
    """
    rep = standard_gamma_rep(metric)
    slash = symbol_matrix({})
    for mu in range(4):
        p_mu = _diag(p_var(mu).scale(metric[mu]))
        slash = mat_add(slash, mat_mul(p_mu, rep.gamma[mu], metric))
    residual = mat_add(mat_mul(slash, slash, metric), _diag(-casimir_p2(metric)))
    report = AlgebraReport()
    cells = [(slot, a) for slot in range(4) for a in range(4)]
    pairs = [(f"diracsq[slot={s},row={a}]", residual.get((a, s), _ZERO)) for s, a in cells]
    report.sweep(pairs, max_degree, metric)
    return report
