"""Gamma matrices, sigma blocks, chirality projectors, and the Dirac operator.

Matrix entries are exact ComplexRational scalars, so every Clifford-algebra
identity is tested for literal equality. Matrices are tuples of row tuples;
the Dirac operator is a matrix of phase-space symbols acting by left star
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    CR_I,
    CR_ONE,
    CR_ZERO,
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
    "Matrix",
    "mat_mul",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_eq",
    "mat_identity",
    "mat_zero",
    "mat_to_numpy",
    "anticommutator",
    "GammaRep",
    "standard_gamma_rep",
    "sigma",
    "gamma_product_decomposition",
    "chiral_projector",
    "project_solution",
    "dirac_operator",
    "dirac_square_check",
]

Matrix = tuple  # 4x4 nested tuples of ComplexRational


def _m(rows) -> Matrix:
    return tuple(tuple(ComplexRational.of(v) for v in row) for row in rows)


def mat_identity() -> Matrix:
    return _m([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def mat_zero() -> Matrix:
    return _m([[0] * 4 for _ in range(4)])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(4)), CR_ZERO) for j in range(4)
        )
        for i in range(4)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] + b[i][j] for j in range(4)) for i in range(4))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] - b[i][j] for j in range(4)) for i in range(4))


def mat_scale(c, a: Matrix) -> Matrix:
    c = ComplexRational.of(c)
    return tuple(tuple(c * a[i][j] for j in range(4)) for i in range(4))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(a[i][j] == b[i][j] for i in range(4) for j in range(4))


def mat_to_numpy(a: Matrix) -> np.ndarray:
    return np.array([[a[i][j].to_complex() for j in range(4)] for i in range(4)])


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(mat_mul(a, b), mat_mul(b, a))


# Pauli matrices with exact entries
_PAULI = (
    ((CR_ZERO, CR_ONE), (CR_ONE, CR_ZERO)),
    ((CR_ZERO, -CR_I), (CR_I, CR_ZERO)),
    ((CR_ONE, CR_ZERO), (CR_ZERO, -CR_ONE)),
)


def _block(tl, tr, bl, br) -> Matrix:
    """Assemble a 4x4 matrix from 2x2 blocks (each a 2x2 tuple or scalar*I2)."""

    def cell(blk, i, j):
        if blk is None:
            return CR_ZERO
        if isinstance(blk, ComplexRational):
            return blk if i == j else CR_ZERO
        return blk[i][j]

    rows = []
    for i in range(2):
        rows.append(tuple(cell(tl, i, j) for j in range(2)) + tuple(cell(tr, i, j) for j in range(2)))
    for i in range(2):
        rows.append(tuple(cell(bl, i, j) for j in range(2)) + tuple(cell(br, i, j) for j in range(2)))
    return tuple(rows)


@dataclass(frozen=True)
class GammaRep:
    """Dirac representation: gamma^0 = diag(I,-I), gamma^i off-diagonal Pauli blocks."""

    gamma: tuple  # (gamma^0, gamma^1, gamma^2, gamma^3)
    gamma5: Matrix
    alpha: tuple  # (alpha^1, alpha^2, alpha^3)
    sigma_big: tuple  # (Sigma^1, Sigma^2, Sigma^3)
    metric: MetricSignature


def standard_gamma_rep(metric: MetricSignature = MOSTLY_MINUS) -> GammaRep:
    """The Dirac-basis gamma matrices.

    With the mostly-minus metric the blocks are the textbook ones; for the
    mostly-plus metric every gamma is multiplied by i so that the Clifford
    relation {gamma^mu, gamma^nu} = 2 g^{mu nu} I still holds entrywise.
    """
    if metric not in (MOSTLY_MINUS, MOSTLY_PLUS):
        raise ValueError("unsupported metric")
    g0 = _block(CR_ONE, None, None, -CR_ONE)
    gi = tuple(_block(None, _PAULI[k], mat_scale_2(-CR_ONE, _PAULI[k]), None) for k in range(3))
    gammas = (g0,) + gi
    if metric == MOSTLY_PLUS:
        gammas = tuple(mat_scale(CR_I, g) for g in gammas)
    gamma5 = _block(None, CR_ONE, CR_ONE, None)
    alpha = tuple(_block(None, _PAULI[k], _PAULI[k], None) for k in range(3))
    sigma_big = tuple(_block(_PAULI[k], None, None, _PAULI[k]) for k in range(3))
    return GammaRep(gammas, gamma5, alpha, sigma_big, metric)


def mat_scale_2(c: ComplexRational, a) -> tuple:
    return tuple(tuple(c * a[i][j] for j in range(2)) for i in range(2))


def sigma(mu: int, nu: int, rep: GammaRep) -> Matrix:
    """sigma^{mu nu} = (i/2) [gamma^mu, gamma^nu]."""
    if not (0 <= mu < 4 and 0 <= nu < 4):
        raise ValueError("index out of range")
    comm = mat_sub(
        mat_mul(rep.gamma[mu], rep.gamma[nu]), mat_mul(rep.gamma[nu], rep.gamma[mu])
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
            prod = mat_mul(rep.gamma[mu], rep.gamma[nu])
            sig = sigma(mu, nu, rep)
            # off-diagonal metric vanishes, so prod must equal c * sigma
            local = None
            for i in range(4):
                for j in range(4):
                    if sig[i][j].is_zero():
                        if not prod[i][j].is_zero():
                            raise ValueError("no consistent decomposition constant")
                        continue
                    ratio = prod[i][j] / sig[i][j]
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


def chiral_projector(sign: int, rep: GammaRep) -> Matrix:
    """(I + sign*gamma5)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    half = ComplexRational(Fraction(1, 2))
    return mat_scale(
        half,
        mat_add(mat_identity(), mat_scale(ComplexRational.of(sign), rep.gamma5)),
    )


def project_solution(psi, rep: GammaRep, sign: int = 1):
    """Apply the chirality projector to a 4-component value array.

    ``psi`` may be any sequence of four numbers or numpy arrays; the result
    satisfies gamma5 * out = sign * out.
    """
    proj = mat_to_numpy(chiral_projector(sign, rep))
    comps = [np.asarray(c) for c in psi]
    return [sum(proj[i][j] * comps[j] for j in range(4)) for i in range(4)]


def dirac_operator(
    mass, rep: GammaRep | None = None, metric: MetricSignature = MOSTLY_MINUS
) -> tuple:
    """gamma^mu P_mu - m I as a 4x4 tuple of symbols, P_mu = g_{mumu} p^mu."""
    if rep is None:
        rep = standard_gamma_rep(metric)
    mass_c = ComplexRational.of(mass)
    if mass_c.im != 0 or mass_c.re < 0:
        raise ValueError("mass must be real and nonnegative")
    momenta = [p_var(mu).scale(metric[mu]) for mu in range(4)]
    return tuple(
        tuple(
            sum(
                (momenta[mu].scale(rep.gamma[mu][i][j]) for mu in range(4)),
                PhasePolynomial.constant(-mass_c if i == j else 0),
            )
            for j in range(4)
        )
        for i in range(4)
    )


def dirac_square_check(
    max_degree: int = 2, metric: MetricSignature = MOSTLY_MINUS
) -> AlgebraReport:
    """Verify (gamma.P)^2 = (P^mu P_mu) I on all spinor monomials of degree <= max_degree.

    The residual symbol matrix R = (gamma.P) * (gamma.P) - P^2 I is built
    once; the spinor with monomial m in component `slot` maps to row `a`
    as R[a][slot] * m.
    """
    slash = dirac_operator(0, standard_gamma_rep(metric), metric)
    p2 = casimir_p2(metric)
    residual = [
        [
            sum(
                (moyal_star(slash[a][k], slash[k][b], metric) for k in range(4)),
                -p2 if a == b else PhasePolynomial.zero(),
            )
            for b in range(4)
        ]
        for a in range(4)
    ]
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
