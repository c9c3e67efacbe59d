"""A walk through the exact symbolic layer.

Star products, Moyal brackets, Bopp shifts as symbols and the symmetry
algebra, all in exact rational arithmetic. Run with:

    python3 demos/star_product_tour.py
"""

from phaseq import (
    MOSTLY_PLUS,
    check_poincare_algebra,
    commutator_on,
    monomial_basis,
    moyal_star,
    parse_expression,
)

# The star product of two phase-space polynomials terminates into another
# polynomial. The canonical pair picks up the i/2 that plain
# multiplication misses.
q0 = parse_expression("q0")
p0 = parse_expression("p0")
print("q0 * p0  =", q0 * p0)
print("q0 . p0  =", moyal_star(q0, p0))
print("p0 . q0  =", moyal_star(p0, q0))

# Spatial pairs carry the metric sign; with the mostly-plus signature the
# sign comes back.
q1 = parse_expression("q1")
p1 = parse_expression("p1")
print("\nq1 . p1 (+---) =", moyal_star(q1, p1))
print("q1 . p1 (-+++) =", moyal_star(q1, p1, MOSTLY_PLUS))

# The Moyal bracket of the canonical pair is the classical i{q, p}.
bracket = moyal_star(q0, p0) - moyal_star(p0, q0)
print("\n[q0, p0] under the star:", bracket)

# A Bopp shift is left star multiplication: Q0 f = q0 . f and P0 f = p0 . f,
# so operators are handled through their symbols. Applying the commutator
# of Q0 and P0 to any polynomial returns i times it.
f = parse_expression("q0^2*p0 + 3*q1*p2")
print("\nQ0 f       =", moyal_star(q0, f))
print("[Q0, P0] f =", commutator_on(q0, p0, f))

# Star products of higher-degree polynomials stay exact: here is one with
# a few correction orders in play.
f = parse_expression("q0^3")
g = parse_expression("p0^3")
print("\nq0^3 . p0^3 =", moyal_star(f, g))

# The ten generators built from these symbols close into the expected
# algebra with literal-zero residuals over a monomial basis.
report = check_poincare_algebra(2)
print(
    f"\nsymmetry algebra on degree-2 basis: {report.checked} identities,",
    f"{len(report.violations)} violations, basis size {len(monomial_basis(2))}",
)
