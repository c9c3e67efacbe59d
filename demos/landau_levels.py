"""The charged particle in a uniform magnetic field, phase-space style.

Builds the level spectrum, checks the closed-form eigenfunctions against
the reduced radial equation, and confirms the full 4D phase-space
operator agrees with the reduced route on a grid. Run with:

    python3 demos/landau_levels.py
"""

import numpy as np

from phaseq import (
    LandauParams,
    eigenfunction,
    landau_grid,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
)

params = LandauParams(eB=1.0, s=1)

# The bound-state condition quantizes k = 2n+1, so the oscillator-like
# invariant kappa = eB(2n+1). The two lambda^2 columns disagree by the
# sign of the spin shift: lambda2_paper is the displayed closed form,
# lambda2_oracle is what kappa = lambda^2 + s eB actually forces.
print("n   k  kappa  lambda2_paper  lambda2_oracle")
for n in range(6):
    row = spectrum(n, params)
    print(
        f"{row.n}  {row.k:2d}  {row.kappa:5.1f}  {row.lambda2_paper:13.1f}"
        f"  {row.lambda2_oracle:14.1f}"
    )

# The eigenfunctions are Laguerre polynomials under a decaying
# exponential in the completed-square variable z. They satisfy the
# reduced equation to rounding error.
phi = eigenfunction(2, params)
z = np.linspace(0.0, 30.0, 300)
kappa = spectrum(2, params).kappa
residual = np.max(np.abs(reduced_ode_apply(phi, params, z) - kappa * phi(z)))
print(f"\nn=2 eigenfunction: max ODE residual {residual:.2e}")
print(f"norm^2 (closed form): {phi.norm_squared()}")
print(f"Rayleigh quotient: {rayleigh_quotient(phi, params):.12f} (kappa = {kappa})")

# A deliberately polluted trial function moves the Rayleigh quotient
# only at second order in the pollution.
phi0 = eigenfunction(0, params)
phi1 = eigenfunction(1, params)
mixed = lambda t: phi0(t) + 0.01 * phi1(t)
print(f"Rayleigh of phi0 + 0.01 phi1: {rayleigh_quotient(mixed, params):.6f}")

# Full 4D check: apply the complete star-squared operator to the
# eigenfunction on an (x, y, px, py) grid and compare with the reduced
# route over the grid interior.
report = reduction_equivalence_check(0, params, landau_grid(12, 1.7))
print(
    f"\nfull 4D operator vs reduced route (12^4): rel diff"
    f" {report.relative_difference:.2e}, imaginary part"
    f" {report.imag_fraction:.2e}"
)
