"""Symplectic Poincare generators and exact verification of their algebra.

Generators are phase-space symbols acting by left star multiplication,
since a Bopp shift is left star multiplication: Q^mu f = q^mu * f and
P^mu f = p^mu * f. With lowered components Q_mu = g_{mumu} q^mu and
P_mu = g_{mumu} p^mu:

    M_{mu nu} = Q_mu * P_nu - Q_nu * P_mu
    W_mu      = 1/2 eps_{mu nu rho sigma} M^{nu sigma} * P^rho

An operator identity [A, B] = C is decided by its residual symbol
s = A*B - B*A - C, built once. It holds on every monomial m of degree <= d
exactly when s * m = 0 for each, and since the basis holds 1 and s * 1 = s,
exactly when s is the literal zero polynomial. `checked` counts C(8 + d, d)
monomials per relation; only a nonzero s is star-multiplied onto them, one
violation per nonzero product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb

from .algebra import (
    ComplexRational,
    MOSTLY_MINUS,
    MetricSignature,
    PhasePolynomial,
)
from .star import commutator_on, moyal_star

__all__ = [
    "AlgebraReport",
    "monomial_basis",
    "angular_generator",
    "check_poincare_algebra",
    "pauli_lubanski",
    "casimir_p2",
    "casimir_w2",
    "check_casimirs",
    "levi_civita",
]

_I = ComplexRational(Fraction(0), Fraction(1))
_ONE = PhasePolynomial.constant(1)


@dataclass
class AlgebraReport:
    """Outcome of an exact operator-identity sweep over a monomial basis.

    Each violation is a {"relation", "monomial", "residual"} dict of strings.
    """

    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, relation: str, monomial: PhasePolynomial, residual: PhasePolynomial):
        self.checked += 1
        if not residual.is_zero():
            self.violations.append(
                {"relation": relation, "monomial": str(monomial), "residual": str(residual)}
            )

    def sweep(self, pairs, max_degree: int, metric: MetricSignature):
        """Record residual * m for each (relation, residual) pair and each
        monomial m of degree <= max_degree, monomial-major; a zero residual
        passes on all C(8 + max_degree, 8) of them without building the basis."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        failing = [(rel, res) for rel, res in pairs if not res.is_zero()]
        self.checked += comb(8 + max_degree, 8) * (len(pairs) - len(failing))
        if failing:
            for mono in monomial_basis(max_degree):
                for relation, residual in failing:
                    self.record(relation, mono, moyal_star(residual, mono, metric))

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "pass": self.passed,
            "violations": self.violations,
        }


def monomial_basis(max_degree: int) -> list[PhasePolynomial]:
    """All monomials in q0..q3, p0..p3 of total degree <= max_degree, by exponent tuple."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    keys = (
        tuple(slots.count(i) for i in range(8))
        for total in range(max_degree + 1)
        for slots in combinations_with_replacement(range(8), total)
    )
    return [PhasePolynomial.monomial(k) for k in sorted(keys)]


def levi_civita(mu: int, nu: int, rho: int, sigma: int) -> int:
    """eps_{mu nu rho sigma} with eps_{0123} = +1 (all indices lowered)."""
    idx = (mu, nu, rho, sigma)
    if len(set(idx)) != 4:
        return 0
    sign = 1
    lst = list(idx)
    for i in range(3):
        for j in range(3 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign


def _lowered(kind: str, mu: int, metric: MetricSignature) -> PhasePolynomial:
    """Q_mu (kind "q") or P_mu (kind "p"): g_{mumu} times the coordinate."""
    return PhasePolynomial.coordinate(kind, mu).scale(metric[mu])


def angular_generator(
    mu: int, nu: int, metric: MetricSignature = MOSTLY_MINUS
) -> PhasePolynomial:
    """M_{mu nu} = Q_mu * P_nu - Q_nu * P_mu (both indices lowered)."""
    if not (0 <= mu < 4 and 0 <= nu < 4):
        raise ValueError("index out of range")
    return moyal_star(
        _lowered("q", mu, metric), _lowered("p", nu, metric), metric
    ) - moyal_star(_lowered("q", nu, metric), _lowered("p", mu, metric), metric)


def check_poincare_algebra(
    max_degree: int, metric: MetricSignature = MOSTLY_MINUS
) -> AlgebraReport:
    """Verify the three commutator families on every monomial of degree <= max_degree.

    The relations checked are the ones the generators above satisfy exactly:

        [M_{mu nu}, P_sigma]   = i (g_{mu sigma} P_nu - g_{nu sigma} P_mu)
        [P_mu, P_nu]           = 0
        [M_{mu nu}, M_{rho s}] = i (g_{mu rho} M_{nu s} + g_{nu s} M_{mu rho}
                                    - g_{mu s} M_{nu rho} - g_{nu rho} M_{mu s})
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    report = AlgebraReport()
    P = [_lowered("p", mu, metric) for mu in range(4)]
    M = {
        (mu, nu): angular_generator(mu, nu, metric)
        for mu in range(4)
        for nu in range(4)
        if mu != nu
    }

    pairs = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]

    for mu, nu in [(a, b) for a in range(4) for b in range(a, 4)]:
        residual = commutator_on(P[mu], P[nu], _ONE, metric)
        report.sweep([(f"[P_{mu},P_{nu}]", residual)], max_degree, metric)

    for mu, nu in pairs:
        for sigma in range(4):
            rhs = PhasePolynomial.zero()
            if sigma == mu:
                rhs = rhs + P[nu].scale(_I * metric[mu])
            if sigma == nu:
                rhs = rhs - P[mu].scale(_I * metric[nu])
            residual = commutator_on(M[(mu, nu)], P[sigma], _ONE, metric) - rhs
            report.sweep([(f"[M_{mu}{nu},P_{sigma}]", residual)], max_degree, metric)

    for mu, nu in pairs:
        for rho, sig in pairs:
            rhs = PhasePolynomial.zero()
            for (a, b), (c, d), sign in (
                ((mu, rho), (nu, sig), 1),
                ((nu, sig), (mu, rho), 1),
                ((mu, sig), (nu, rho), -1),
                ((nu, rho), (mu, sig), -1),
            ):
                if a == b and c != d:
                    rhs = rhs + M[(c, d)].scale(_I * (sign * metric[a]))
            residual = commutator_on(M[(mu, nu)], M[(rho, sig)], _ONE, metric) - rhs
            report.sweep([(f"[M_{mu}{nu},M_{rho}{sig}]", residual)], max_degree, metric)

    return report


def pauli_lubanski(mu: int, metric: MetricSignature = MOSTLY_MINUS) -> PhasePolynomial:
    """W_mu = 1/2 eps_{mu nu rho sigma} M^{nu sigma} * P^rho (lower index mu)."""
    if not 0 <= mu < 4:
        raise ValueError("index out of range")
    q = [PhasePolynomial.coordinate("q", i) for i in range(4)]
    p = [PhasePolynomial.coordinate("p", i) for i in range(4)]
    half = ComplexRational(Fraction(1, 2))
    out = PhasePolynomial.zero()
    for nu, rho, sigma in permutations([i for i in range(4) if i != mu], 3):
        eps = levi_civita(mu, nu, rho, sigma)
        if eps == 0:
            continue
        # M^{nu sigma} = Q^nu * P^sigma - Q^sigma * P^nu (raised: bare coordinates)
        m_up = moyal_star(q[nu], p[sigma], metric) - moyal_star(
            q[sigma], p[nu], metric
        )
        out = out + moyal_star(m_up, p[rho], metric).scale(half * eps)
    return out


def casimir_p2(metric: MetricSignature = MOSTLY_MINUS) -> PhasePolynomial:
    """P^2 = P^mu * P_mu."""
    out = PhasePolynomial.zero()
    for mu in range(4):
        p = PhasePolynomial.coordinate("p", mu)
        out = out + moyal_star(p, p, metric).scale(metric[mu])
    return out


def casimir_w2(metric: MetricSignature = MOSTLY_MINUS) -> PhasePolynomial:
    """W^2 = W^mu * W_mu."""
    out = PhasePolynomial.zero()
    for mu in range(4):
        w = pauli_lubanski(mu, metric)
        out = out + moyal_star(w, w, metric).scale(metric[mu])
    return out


def check_casimirs(
    max_degree_p2: int = 2,
    max_degree_w2: int = 1,
    metric: MetricSignature = MOSTLY_MINUS,
) -> AlgebraReport:
    """Verify [P^2, .] and [W^2, .] annihilate every generator on monomial bases."""
    if max_degree_p2 < 1 or max_degree_w2 < 1:
        raise ValueError("max_degree must be >= 1")
    report = AlgebraReport()
    pairs = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
    generators = [(f"P_{mu}", _lowered("p", mu, metric)) for mu in range(4)] + [
        (f"M_{mu}{nu}", angular_generator(mu, nu, metric)) for mu, nu in pairs
    ]
    for name, casimir, degree in (
        ("P2", casimir_p2(metric), max_degree_p2),
        ("W2", casimir_w2(metric), max_degree_w2),
    ):
        for label, gen in generators:
            residual = commutator_on(casimir, gen, _ONE, metric)
            report.sweep([(f"[{name},{label}]", residual)], degree, metric)
    return report
