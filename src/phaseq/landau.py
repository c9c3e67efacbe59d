"""Charged-particle Landau problem in phase space.

Covers the full 4D magnetic operator over (x, y, px, py), the radial
variable z and the reduced ordinary differential equation it satisfies,
the exact spectrum, polynomial-times-exponential eigenfunctions evaluated
through the Laguerre recurrence, a Rayleigh-quotient eigenvalue oracle,
and Landau Wigner functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .confluent import _laguerre
from .grids import Axis, Field, GridSpec, fd_derivative, wigner_from_amplitude

__all__ = [
    "LandauParams",
    "SpectrumRow",
    "landau_grid",
    "z_variable",
    "spectrum",
    "LandauEigenfunction",
    "eigenfunction",
    "landau_amplitude",
    "reduced_ode_apply",
    "rayleigh_quotient",
    "full_operator_apply",
    "ReductionReport",
    "reduction_equivalence_check",
    "wigner_landau",
]


@dataclass(frozen=True)
class LandauParams:
    """Charge times field strength and the spin label; the level is passed apart."""

    eB: float = 1.0
    s: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.eB) and self.eB > 0):
            raise ValueError("bound levels require a finite e*B > 0")
        if self.s not in (1, -1):
            raise ValueError("s must be +1 or -1")


def _check_level(n) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")


@dataclass(frozen=True)
class SpectrumRow:
    """One Landau level: quantization parameter and both lambda^2 readings."""

    n: int
    s: int
    eB: float
    k: int
    kappa: float
    lambda2_paper: float
    lambda2_oracle: float

    @property
    def s_sign_discrepant(self) -> bool:
        return self.lambda2_paper != self.lambda2_oracle


def landau_grid(points: int, box: float) -> GridSpec:
    """The (x, y, px, py) grid, points per axis on [-box, box), x paired with
    px and y with py (sign -1), as full_operator_apply and landau_amplitude assume."""
    return GridSpec(
        [Axis(name, points, -box, box) for name in ("x", "y", "px", "py")],
        pairs=[(0, 2, -1), (1, 3, -1)],
    )


def z_variable(x, y, px, py, params: LandauParams):
    """The radial phase-space variable, evaluated as a completed square.

    Algebraically z = px^2 + py^2 + eB(y px - x py) + (eB)^2/4 (x^2 + y^2);
    the completed-square form (px + eB y/2)^2 + (py - eB x/2)^2 is used so
    the result is nonnegative by construction.
    """
    eB = params.eB
    a = px + 0.5 * eB * y
    b = py - 0.5 * eB * x
    return a * a + b * b


def _check_z_range(params: LandauParams, spec: GridSpec) -> None:
    """Refuse a grid on which z, at most 2 (box (1 + eB/2))^2, or the
    Laguerre argument 2z/eB is not a finite float."""
    box = max(max(abs(ax.lo), abs(ax.hi)) for ax in spec.axes)
    reach = box * (1.0 + 0.5 * params.eB)
    if not math.isfinite(2.0 * reach * reach * max(1.0, 2.0 / params.eB)):
        raise ValueError(
            f"box = {box} and eB = {params.eB} are out of range: "
            "z up to 2 (box (1 + eB/2))^2, or 2z/eB, overflows a float"
        )


def spectrum(n: int, params: LandauParams) -> SpectrumRow:
    """Exact level data for (n, s): k = 2n+1 and kappa = eB(2n+1).

    Two lambda^2 values are reported: ``lambda2_paper`` = eB(2n+1+s) and
    ``lambda2_oracle`` = kappa - s eB = eB(2n+1-s). They differ in the sign
    of the spin shift; both are emitted so the discrepancy stays visible.
    """
    _check_level(n)
    s, eB = params.s, params.eB
    k = 2 * n + 1
    kappa = eB * k
    return SpectrumRow(
        n=n,
        s=s,
        eB=eB,
        k=k,
        kappa=kappa,
        lambda2_paper=eB * (2 * n + 1 + s),
        lambda2_oracle=kappa - s * eB,
    )


class LandauEigenfunction:
    """phi_n(z) = e^{-z/eB} L_n(2 z / eB), with analytic derivatives.

    With u = 2z/eB every polynomial factor comes from the generalized
    Laguerre recurrence: dL_n^(a)/du = -L_{n-1}^(a+1), so the k-th
    z-derivative of L_n(u) is (-2/eB)^k L_{n-k}^(k)(u). A level that is not a
    nonnegative integer is refused here, one above SERIES_TERM_LIMIT - 1 when
    first evaluated.
    """

    def __init__(self, n: int, params: LandauParams):
        _check_level(n)
        self.n = n
        self.params = params
        self.decay = 1.0 / params.eB  # a in e^{-a z}
        self.scale = 2.0 / params.eB  # u = scale * z
        # the second derivative of L_n(u) carries scale^2 = (2/eB)^2
        if not math.isfinite(self.scale * self.scale):
            raise ValueError(f"eB = {params.eB} is too small: (2/eB)^2 overflows a float")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        # an overflowing L_n(2z/eB) leaves non-finite samples, which Field refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(-self.decay * z) * _laguerre(self.n, 0, self.scale * z)

    def jet(self, z):
        """(phi, phi', phi'') in z from one exp and one Laguerre pass per
        factor L_n(u), L_{n-1}^(1)(u), L_{n-2}^(2)(u); 0 past degree n."""
        z = np.asarray(z, dtype=float)
        a, u = self.decay, self.scale * z
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-a * z)
            p, p1, p2 = (
                (-self.scale) ** k * _laguerre(self.n - k, k, u) if k <= self.n else 0.0
                for k in range(3)
            )
            return e * p, e * (p1 - a * p), e * (p2 - 2 * a * p1 + a * a * p)

    def norm_squared(self) -> float:
        """Integral of phi_n^2 over z in [0, inf); equals eB/2 exactly."""
        return self.params.eB / 2.0


def eigenfunction(n: int, params: LandauParams) -> LandauEigenfunction:
    return LandauEigenfunction(n, params)


def landau_amplitude(n: int, params: LandauParams, spec: GridSpec) -> Field:
    """phi_n(z) sampled on a landau_grid, z from the grid's coordinates."""
    phi_n = eigenfunction(n, params)
    _check_z_range(params, spec)
    return Field(spec, phi_n(z_variable(*spec.meshgrid(), params)))


def reduced_ode_apply(phi, params: LandauParams, z):
    """Apply z phi - (eB)^2 phi' - (eB)^2 z phi'' pointwise on the z samples.

    ``phi`` is a LandauEigenfunction (analytic derivatives) or any other
    callable of z (differentiated with 5-point central stencils of fixed
    step 1e-3 around each sample).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or len(z) < 5:
        raise ValueError("need at least 5 sample points")
    eB2 = params.eB**2
    if isinstance(phi, LandauEigenfunction):
        vals, d1, d2 = phi.jet(z)
    else:
        vals = phi(z)
        h = 1e-3
        stencil = [phi(z + j * h) for j in (-2, -1, 0, 1, 2)]
        d1 = (-stencil[4] + 8 * stencil[3] - 8 * stencil[1] + stencil[0]) / (12 * h)
        d2 = (
            -stencil[4]
            + 16 * stencil[3]
            - 30 * stencil[2]
            + 16 * stencil[1]
            - stencil[0]
        ) / (12 * h * h)
    return z * vals - eB2 * d1 - eB2 * z * d2


@lru_cache(maxsize=1)
def _gauss_legendre_400() -> tuple:
    """The 400-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use (not at import) and read-only, since every caller shares them."""
    x, w = leggauss(400)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def rayleigh_quotient(phi, params: LandauParams) -> float:
    """Eigenvalue estimate <phi, Op phi> / <phi, phi> on z in [0, 30 eB].

    The reduced operator z phi - (eB)^2 (z phi')' is self-adjoint with
    unit weight in z. Quadrature is 400-point Gauss-Legendre, its rule
    built once per process; analytic derivatives are used when phi is a
    LandauEigenfunction.
    """
    z_max = 30.0 * params.eB
    x, w = _gauss_legendre_400()
    z = 0.5 * z_max * (x + 1.0)
    w = 0.5 * z_max * w
    op = reduced_ode_apply(phi, params, z)
    vals = phi(z)
    denom = float(np.sum(w * vals * vals))
    if abs(denom) < 1e-300:
        raise ZeroDivisionError("vanishing norm in Rayleigh quotient")
    return float(np.sum(w * vals * op)) / denom


def full_operator_apply(phi: Field, params: LandauParams) -> Field:
    """Apply the full 4D magnetic operator to a field on a landau_grid.

    The operator is the spatial block of the squared interacting Dirac
    operator, with the spin matrix already replaced by its scalar
    eigenvalue (the -s eB term). Derivatives are 8th-order finite
    differences, which keep boundary wraparound artifacts local.
    """
    if len(phi.spec.axes) != 4:
        raise ValueError("expected a 4D field over (x, y, px, py)")
    eB = params.eB
    X, Y, PX, PY = phi.spec.meshgrid()
    v = phi.values

    first = [fd_derivative(phi, axis) for axis in range(4)]
    dx, dy, dpx, dpy = (f.values for f in first)
    dxx, dyy = (fd_derivative(phi, axis, 2).values for axis in (0, 1))
    # the mixed derivatives d_y d_px and d_x d_py start from dy and dx
    dy_px = fd_derivative(first[1], 2).values
    dx_py = fd_derivative(first[0], 3).values
    out = (PX**2 + PY**2) * v
    out = out - 0.25 * (dxx + dyy)
    out = out - 1j * (PY * dy + PX * dx)
    out = out - eB * (
        (X * PY - Y * PX) * v
        + 0.5j * (PY * dpx - PX * dpy)
        - 0.5j * (X * dy - Y * dx)
        + 0.25 * (dy_px - dx_py)
    )
    # (x + (i/2) d_px)^2 and (y + (i/2) d_py)^2, applied as nested first-order ops
    inner_x = Field(phi.spec, X * v + 0.5j * dpx)
    sq_x = X * inner_x.values + 0.5j * fd_derivative(inner_x, 2).values
    inner_y = Field(phi.spec, Y * v + 0.5j * dpy)
    sq_y = Y * inner_y.values + 0.5j * fd_derivative(inner_y, 3).values
    out = out + 0.25 * eB * eB * (sq_x + sq_y)
    out = out - params.s * eB * v
    return Field(phi.spec, out)


@dataclass(frozen=True)
class ReductionReport:
    """Interior comparison of the full 4D operator against the reduced ODE."""

    n: int
    s: int
    eB: float
    grid_shape: tuple
    interior_margin: int
    relative_difference: float
    imag_fraction: float
    expected_value: float


def reduction_equivalence_check(
    n: int, params: LandauParams, spec: GridSpec
) -> ReductionReport:
    """Compare full_operator_apply(phi_n(z)) with its reduced-route value.

    The eigenfunction composed with z satisfies the full operator with
    eigenvalue kappa - s eB (the spin term is constant on these states),
    so the report gives the max relative deviation from that multiple
    over the interior region, plus the size of the spurious imaginary
    part. The interior margin, a third of the smallest axis and at least
    4 points, excludes points near the (non-decaying) box boundary where
    wraparound pollutes derivatives; it leaves an interior only from 9
    points per axis, and a smaller grid is a ValueError.
    """
    row = spectrum(n, params)
    expected = row.lambda2_oracle  # kappa - s eB
    # keep the compared region a fixed fraction of the box so that
    # refinement comparisons look at comparable interiors
    interior_margin = max(4, min(spec.shape) // 3)
    if min(spec.shape) <= 2 * interior_margin:
        raise ValueError(
            f"the reduction check needs at least 9 points per axis, got {min(spec.shape)}"
        )
    phi_n = eigenfunction(n, params)
    _check_z_range(params, spec)
    # sampled inline, not by landau_amplitude: holding X..PY and z through
    # full_operator_apply keeps grid-ops peak RSS at 148 MB, not 167-169 MB
    X, Y, PX, PY = spec.meshgrid()
    zval = z_variable(X, Y, PX, PY, params)
    phi = Field(spec, phi_n(zval))
    applied = full_operator_apply(phi, params)

    sl = tuple(
        slice(interior_margin, size - interior_margin) for size in spec.shape
    )
    inner_out = applied.values[sl]
    inner_phi = phi.values[sl]
    # normalize by the reduced-route magnitude kappa*|phi|, which is nonzero
    # even when the expected full-operator multiple kappa - s eB vanishes
    scale = float(row.kappa * np.max(np.abs(inner_phi)))
    rel = float(np.max(np.abs(inner_out - expected * inner_phi))) / scale
    imag_frac = float(np.max(np.abs(inner_out.imag))) / phi.max_abs()
    return ReductionReport(
        n=n,
        s=params.s,
        eB=params.eB,
        grid_shape=spec.shape,
        interior_margin=interior_margin,
        relative_difference=rel,
        imag_fraction=imag_frac,
        expected_value=expected,
    )


def wigner_landau(amp: Field) -> Field:
    """Wigner function of a Landau state from its landau_amplitude phi.

    In the 4-spinor with the negative-chirality structure (upper block chi,
    lower block -chi) and the spin-s row selected, the nonzero components
    are +phi and -phi, and both give the same grid star, so the Hermitian
    spinor sum is 2 phi (star) conj(phi) bit for bit.
    """
    return 2 * wigner_from_amplitude(amp)
