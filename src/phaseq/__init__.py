"""Symbolic and numerical phase-space quantum mechanics toolkit.

Exact rational polynomial algebra over the phase-space variables
q0..q3, p0..p3, the Moyal star product (a Bopp shift is left star
multiplication, so operators are handled as their symbols),
symmetry-algebra and Casimir verification, gamma-matrix machinery,
FFT-grid numerics with a numerical star product and Wigner functions,
the relativistic magnetic bound-state (Landau) problem, and the
confluent hypergeometric special functions it needs.
"""

__version__ = "1.0.0"

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
    poisson_bracket,
    q_var,
)
from .confluent import kummer_m, kummer_u, laguerre
from .dirac import (
    GammaRep,
    chiral_projector,
    clifford_report,
    dirac_square_check,
    gamma_product_decomposition,
    project_solution,
    sigma,
    standard_gamma_rep,
)
from .grids import (
    Axis,
    Field,
    GridSpec,
    KGReport,
    bandlimit,
    fd_derivative,
    fourier_derivative,
    grid_star,
    inner_product,
    kg_two_route_check,
    read_field_binary,
    wigner_from_amplitude,
    write_field_binary,
    write_field_csv,
)
from .landau import (
    LandauEigenfunction,
    LandauParams,
    ReductionReport,
    SpectrumRow,
    eigenfunction,
    full_operator_apply,
    landau_amplitude,
    landau_grid,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
    temporal_factor_check,
    temporal_factor_residual,
    wigner_landau,
    z_variable,
)
from .parsing import ParseError, format_polynomial, parse_expression
from .poincare import (
    AlgebraReport,
    ResidualRecord,
    angular_generator,
    casimir_p2,
    casimir_w2,
    check_casimirs,
    check_poincare_algebra,
    levi_civita,
    monomial_basis,
    pauli_lubanski,
)
from .star import commutator_on, moyal_star

__all__ = [name for name in dir() if not name.startswith("_")]
