import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from phaseq import (
    Axis,
    GridSpec,
    LandauParams,
    eigenfunction,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
    temporal_factor_check,
    temporal_factor_residual,
    wigner_landau,
    z_variable,
)


def test_params_validation():
    with pytest.raises(ValueError):
        LandauParams(e=1.0, B=-1.0)
    with pytest.raises(ValueError):
        LandauParams(s=0)
    with pytest.raises(ValueError):
        LandauParams(n=-1)
    assert LandauParams(e=2.0, B=0.5).eB == 1.0


def test_z_variable_completed_square():
    rng = np.random.default_rng(3)
    params = LandauParams(e=1.0, B=1.5)
    x, y, px, py = rng.normal(size=(4, 10))
    z = z_variable(x, y, px, py, params)
    eB = params.eB
    expected = (px + 0.5 * eB * y) ** 2 + (py - 0.5 * eB * x) ** 2
    assert np.allclose(z, expected, atol=1e-14)


def test_spectrum_rows():
    for n in range(11):
        for s in (1, -1):
            for eB in (0.5, 1.0, 2.0):
                row = spectrum(LandauParams(e=1.0, B=eB, s=s, n=n))
                assert row.k == 2 * n + 1
                assert row.kappa == eB * (2 * n + 1)
                assert row.lambda2_paper == eB * (2 * n + 1 + s)
                assert row.lambda2_oracle == eB * (2 * n + 1 - s)
                assert row.s_sign_discrepant == (s != 0)


def test_eigenfunction_values_and_derivatives():
    params = LandauParams(e=1.0, B=2.0)
    phi = eigenfunction(3, params)
    z = np.linspace(0.0, 20.0, 50)
    eB = params.eB
    expected = np.exp(-z / eB) * eval_laguerre(3, 2.0 * z / eB)
    assert np.max(np.abs(phi(z) - expected)) < 1e-12
    h = 1e-6
    num_d1 = (phi(z + h) - phi(z - h)) / (2 * h)
    assert np.max(np.abs(phi.derivative(z, 1) - num_d1)) < 1e-7


def test_eigenfunction_norm_exact():
    for eB in (0.5, 1.0, 3.0):
        params = LandauParams(e=1.0, B=eB)
        for n in range(4):
            phi = eigenfunction(n, params)
            assert phi.norm_squared() == eB / 2.0
            assert abs(phi.normalization() - math.sqrt(2.0 / eB)) < 1e-15
            # quadrature agrees with the closed form
            x = np.linspace(0, 40 * eB, 20001)
            quad = np.trapezoid(phi(x) ** 2, x)
            assert abs(quad - eB / 2.0) < 1e-4 * eB


def test_reduced_ode_eigen_residual():
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(e=1.0, B=eB)
        for n in range(6):
            phi = eigenfunction(n, params)
            z = np.linspace(0.0, 30.0 * eB, 400)
            kappa = eB * (2 * n + 1)
            residual = reduced_ode_apply(phi, params, z) - kappa * phi(z)
            assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(phi(z)))


def test_reduced_ode_callable_and_array_paths():
    params = LandauParams(e=1.0, B=1.0)
    phi = eigenfunction(1, params)
    z = np.linspace(0.0, 10.0, 801)
    analytic = reduced_ode_apply(phi, params, z)
    from_callable = reduced_ode_apply(lambda t: phi(t), params, z)
    assert np.max(np.abs(from_callable - analytic)) < 1e-6
    with pytest.raises(TypeError):
        reduced_ode_apply(phi(z), params, z)


def test_rayleigh_quotient_matches_eigenvalue():
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(e=1.0, B=eB)
        for n in range(6):
            phi = eigenfunction(n, params)
            kappa = eB * (2 * n + 1)
            assert abs(rayleigh_quotient(phi, params) - kappa) < 1e-7 * kappa


def test_rayleigh_quotient_perturbation_insensitive():
    params = LandauParams(e=1.0, B=1.0)
    phi0 = eigenfunction(0, params)
    phi1 = eigenfunction(1, params)
    mixed = lambda z: phi0(z) + 0.01 * phi1(z)
    rq = rayleigh_quotient(mixed, params)
    # first-order insensitivity: a 1e-2 amplitude error moves the
    # quotient by O(1e-4), not O(1e-2)
    assert abs(rq - 1.0) < 5e-4


def test_temporal_factor_two_routes():
    assert temporal_factor_residual(2.0, 1.0, 0.5) == -(1.5**2) - 0.25
    for E, alpha, m in [(1.0, 0.5, 0.0), (2.0, 1.0, 0.5), (0.7, -0.3, 1.2)]:
        assert temporal_factor_check(E, alpha, m) < 1e-10


def test_reduction_equivalence_small_grid():
    spec = GridSpec(
        [Axis(name, 12, -1.7, 1.7) for name in ("x", "y", "px", "py")],
        pairs=[(0, 2, -1), (1, 3, -1)],
    )
    params = LandauParams(e=1.0, B=1.0, s=1)
    report = reduction_equivalence_check(0, params, spec)
    assert report.expected_value == 0.0
    assert report.relative_difference < 1e-2
    assert report.imag_fraction < 1e-3


def test_wigner_landau_real_small_grid():
    spec = GridSpec(
        [Axis(name, 8, -3.0, 3.0) for name in ("x", "y", "px", "py")],
        pairs=[(0, 2, -1), (1, 3, -1)],
    )
    params = LandauParams(e=1.0, B=1.0, s=1)
    fw = wigner_landau(0, params, spec)
    assert np.max(np.abs(fw.values.imag)) < 1e-10 * fw.max_abs()
