"""Gamma matrices, sigma blocks and the Dirac square, in one algebra of
4x4 matrices of phase-space symbols.

A matrix is a 4x4 tuple of row tuples of PhasePolynomial entries. It acts
on spinors by left star multiplication, and the product of two matrices
sums the star products of their entries, so a matrix of constants (the
gamma matrices) and a matrix of symbols (gamma^mu P_mu) multiply through
the same route. Entries are exact, and ``==`` on two matrices is literal
equality, so every Clifford-algebra identity is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    CR_I,
    ComplexRational,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    MetricSignature,
    PhasePolynomial,
    p_var,
)
from .poincare import AlgebraReport, casimir_p2, monomial_basis
from .star import moyal_star

__all__ = [
    "GammaRep",
    "standard_gamma_rep",
    "sigma",
    "gamma_product_decomposition",
    "clifford_report",
    "dirac_square_check",
]

Matrix = tuple  # 4x4 nested tuples of PhasePolynomial


def _diag(value) -> Matrix:
    """value * I, for a number or a phase-space symbol."""
    if not isinstance(value, PhasePolynomial):
        value = PhasePolynomial.constant(value)
    zero = PhasePolynomial.zero()
    return tuple(tuple(value if i == j else zero for j in range(4)) for i in range(4))


def mat_identity() -> Matrix:
    return _diag(1)


def mat_zero() -> Matrix:
    return _diag(0)


def mat_mul(a: Matrix, b: Matrix, metric: MetricSignature = MOSTLY_MINUS) -> Matrix:
    """a * b, each entry the sum over k of the star products a[i][k] * b[k][j]."""
    return tuple(
        tuple(
            sum(
                (moyal_star(a[i][k], b[k][j], metric) for k in range(4)),
                PhasePolynomial.zero(),
            )
            for j in range(4)
        )
        for i in range(4)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] + b[i][j] for j in range(4)) for i in range(4))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] - b[i][j] for j in range(4)) for i in range(4))


def mat_scale(c, a: Matrix) -> Matrix:
    """c * a for a number c."""
    return tuple(tuple(a[i][j].scale(c) for j in range(4)) for i in range(4))


def anticommutator(a: Matrix, b: Matrix, metric: MetricSignature = MOSTLY_MINUS) -> Matrix:
    return mat_add(mat_mul(a, b, metric), mat_mul(b, a, metric))


# 2x2 tables: the identity, i*sigma_2 and the Pauli matrices
_I2 = ((1, 0), (0, 1))
_I_SIGMA2 = ((0, 1), (-1, 0))
_PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def _kron(a, b) -> Matrix:
    """The Kronecker product of two 2x2 tables of 0, +-1 and +-1j, as a constant matrix."""
    return tuple(
        tuple(
            PhasePolynomial.constant(a[i // 2][j // 2] * b[i % 2][j % 2])
            for j in range(4)
        )
        for i in range(4)
    )


@dataclass(frozen=True)
class GammaRep:
    """Dirac representation: gamma^0 = diag(I,-I), gamma^i off-diagonal Pauli blocks."""

    gamma: tuple  # (gamma^0, gamma^1, gamma^2, gamma^3)
    gamma5: Matrix
    alpha: tuple  # (alpha^1, alpha^2, alpha^3)
    sigma_big: tuple  # (Sigma^1, Sigma^2, Sigma^3)
    metric: MetricSignature


@lru_cache(maxsize=2)
def standard_gamma_rep(metric: MetricSignature = MOSTLY_MINUS) -> GammaRep:
    """The Dirac-basis gamma matrices.

    gamma^0 = sigma_3 x I, gamma^k = (i sigma_2) x sigma_k, gamma^5 =
    sigma_1 x I, alpha^k = sigma_1 x sigma_k and Sigma^k = I x sigma_k.
    With the mostly-minus metric these are the textbook matrices; for the
    mostly-plus metric every gamma is multiplied by i so that the Clifford
    relation {gamma^mu, gamma^nu} = 2 g^{mu nu} I still holds entrywise.
    """
    if metric not in (MOSTLY_MINUS, MOSTLY_PLUS):
        raise ValueError("unsupported metric")
    gammas = (_kron(_PAULI[2], _I2),) + tuple(_kron(_I_SIGMA2, s) for s in _PAULI)
    if metric == MOSTLY_PLUS:
        gammas = tuple(mat_scale(CR_I, g) for g in gammas)
    gamma5 = _kron(_PAULI[0], _I2)
    alpha = tuple(_kron(_PAULI[0], s) for s in _PAULI)
    sigma_big = tuple(_kron(_I2, s) for s in _PAULI)
    return GammaRep(gammas, gamma5, alpha, sigma_big, metric)


def sigma(mu: int, nu: int, rep: GammaRep) -> Matrix:
    """sigma^{mu nu} = (i/2) [gamma^mu, gamma^nu]."""
    if not (0 <= mu < 4 and 0 <= nu < 4):
        raise ValueError("index out of range")
    comm = mat_sub(
        mat_mul(rep.gamma[mu], rep.gamma[nu], rep.metric),
        mat_mul(rep.gamma[nu], rep.gamma[mu], rep.metric),
    )
    return mat_scale(ComplexRational(Fraction(0), Fraction(1, 2)), comm)


def gamma_product_decomposition(rep: GammaRep) -> ComplexRational:
    """The unique c with gamma^mu gamma^nu = g^{mu nu} I + c sigma^{mu nu} for all mu != nu.

    Raises ValueError when no consistent c exists (a broken representation).
    """
    candidate = None
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            prod = mat_mul(rep.gamma[mu], rep.gamma[nu], rep.metric)
            sig = sigma(mu, nu, rep)
            # off-diagonal metric vanishes, so prod must equal c * sigma
            local = None
            for i in range(4):
                for j in range(4):
                    s_ij = sig[i][j].constant_term()
                    p_ij = prod[i][j].constant_term()
                    if s_ij.is_zero():
                        if not p_ij.is_zero():
                            raise ValueError("no consistent decomposition constant")
                        continue
                    ratio = p_ij / s_ij
                    if local is None:
                        local = ratio
                    elif local != ratio:
                        raise ValueError("no consistent decomposition constant")
            if local is None:
                raise ValueError("degenerate sigma block")
            if candidate is None:
                candidate = local
            elif candidate != local:
                raise ValueError("no consistent decomposition constant")
    return candidate


def clifford_report(rep: GammaRep) -> dict:
    """Check a representation's Clifford relation, sigma blocks, decomposition
    constant and gamma5 exactly.

    Returns {"pass", "failures", "decomposition_constant"}: one failure
    string per identity that does not hold, and the constant of
    gamma_product_decomposition as str(complex), or None with a
    "decomposition: ..." failure when it is inconsistent.
    """
    metric = rep.metric
    failures = []
    for mu in range(4):
        for nu in range(4):
            want = mat_scale(2 * metric[mu] if mu == nu else 0, mat_identity())
            if anticommutator(rep.gamma[mu], rep.gamma[nu], metric) != want:
                failures.append(f"anticommutator({mu},{nu})")
    # the mostly-plus gammas carry an extra factor of i each, so every
    # sigma block flips sign relative to the mostly-minus convention
    flip = metric[0]
    for j in range(3):
        if sigma(0, j + 1, rep) != mat_scale(CR_I * flip, rep.alpha[j]):
            failures.append(f"sigma(0,{j + 1}) != {flip:+d}*i*alpha^{j + 1}")
    spatial = {(1, 2): 2, (2, 3): 0, (3, 1): 1}
    for (i, j), k in spatial.items():
        if sigma(i, j, rep) != mat_scale(flip, rep.sigma_big[k]):
            failures.append(f"sigma({i},{j}) != {flip:+d}*Sigma^{k + 1}")
    try:
        const_str = str(gamma_product_decomposition(rep).to_complex())
    except ValueError as exc:
        failures.append(f"decomposition: {exc}")
        const_str = None
    g5 = rep.gamma5
    if mat_mul(g5, g5, metric) != mat_identity():
        failures.append("gamma5^2 != I")
    for mu in range(4):
        if anticommutator(g5, rep.gamma[mu], metric) != mat_zero():
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
    monomial m in component `slot` maps to row `a` as R[a][slot] * m.
    """
    rep = standard_gamma_rep(metric)
    slash = mat_zero()
    for mu in range(4):
        p_mu = _diag(p_var(mu).scale(metric[mu]))
        slash = mat_add(slash, mat_mul(p_mu, rep.gamma[mu], metric))
    residual = mat_sub(mat_mul(slash, slash, metric), _diag(casimir_p2(metric)))
    report = AlgebraReport()
    for mono in monomial_basis(max_degree):
        for slot in range(4):
            for a in range(4):
                report.record(
                    f"diracsq[slot={slot},row={a}]",
                    mono,
                    moyal_star(residual[a][slot], mono, metric),
                )
    return report
