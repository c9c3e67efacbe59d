import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_laguerre

import phaseq.cli
import phaseq.landau
from phaseq import (
    Field,
    LandauEigenfunction,
    LandauParams,
    eigenfunction,
    landau_amplitude,
    landau_grid,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
    wigner_landau,
    z_variable,
)

from oracles import exact_landau_polynomials, rayleigh_quotient_fresh, spinor_wigner_sum


def test_params_validation():
    assert [f.name for f in dataclasses.fields(LandauParams)] == ["eB", "s"]
    with pytest.raises(ValueError):
        LandauParams(eB=-1.0)
    with pytest.raises(ValueError):
        LandauParams(s=0)
    with pytest.raises(ValueError):
        spectrum(-1, LandauParams())
    with pytest.raises(ValueError):
        eigenfunction(-1, LandauParams())
    for eB in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            LandauParams(eB=eB)
    # (2/eB)^2 overflows at eB = 1e-154 although (1/eB)^2 does not
    with pytest.raises(ValueError, match=r"\(2/eB\)\^2"):
        eigenfunction(5, LandauParams(eB=1e-154))


@pytest.mark.parametrize("n", [-1, 2.5])
def test_eigenfunction_class_refuses_an_invalid_level(n):
    # the public class refuses what eigenfunction refuses, before any
    # evaluation: n = -1 would otherwise read L_{-1} as 1 - u
    for make in (LandauEigenfunction, eigenfunction):
        with pytest.raises(ValueError, match="^n must be a nonnegative integer$"):
            make(n, LandauParams())


def test_landau_grid_layout():
    spec = landau_grid(8, 2.5)
    assert [(a.name, a.n, a.lo, a.hi) for a in spec.axes] == [
        (name, 8, -2.5, 2.5) for name in ("x", "y", "px", "py")
    ]
    assert spec.pairs == ((0, 2, -1), (1, 3, -1))


def test_landau_amplitude_samples_phi_of_z():
    spec = landau_grid(8, 3.0)
    params = LandauParams(eB=1.5, s=-1)
    amp = landau_amplitude(2, params, spec)
    X, Y, PX, PY = spec.meshgrid()
    want = eigenfunction(2, params)(z_variable(X, Y, PX, PY, params))
    assert amp.spec == spec
    assert np.array_equal(amp.values, want.astype(complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_samplers_refuse_a_grid_whose_z_overflows():
    params = LandauParams(eB=1e200)
    with pytest.raises(ValueError, match=r"2 \(box \(1 \+ eB/2\)\)\^2, or 2z/eB, overflows"):
        landau_amplitude(0, params, landau_grid(8, 3.0))
    with pytest.raises(ValueError, match=r"2 \(box \(1 \+ eB/2\)\)\^2, or 2z/eB, overflows"):
        reduction_equivalence_check(0, params, landau_grid(10, 3.0))
    # at eB = 1, 2z/eB <= 4 (1.5 box)^2 is finite for box = 4e153, not 5e153
    assert landau_amplitude(0, LandauParams(), landau_grid(8, 4e153)).spec.shape == (8,) * 4
    with pytest.raises(ValueError, match="overflows"):
        landau_amplitude(0, LandauParams(), landau_grid(8, 5e153))
    # at eB = 4, z <= 2 (3 box)^2 is finite for box = 3e153, not 4e153
    assert landau_amplitude(0, LandauParams(eB=4.0), landau_grid(8, 3e153)).spec.shape == (8,) * 4
    with pytest.raises(ValueError, match="overflows"):
        landau_amplitude(0, LandauParams(eB=4.0), landau_grid(8, 4e153))


def test_z_variable_completed_square():
    rng = np.random.default_rng(3)
    params = LandauParams(eB=1.5)
    x, y, px, py = rng.normal(size=(4, 10))
    z = z_variable(x, y, px, py, params)
    eB = params.eB
    expected = (px + 0.5 * eB * y) ** 2 + (py - 0.5 * eB * x) ** 2
    assert np.allclose(z, expected, atol=1e-14)


def test_spectrum_rows():
    for n in range(11):
        for s in (1, -1):
            for eB in (0.5, 1.0, 2.0):
                row = spectrum(n, LandauParams(eB, s))
                assert row.k == 2 * n + 1
                assert row.kappa == eB * (2 * n + 1)
                assert row.lambda2_paper == eB * (2 * n + 1 + s)
                assert row.lambda2_oracle == eB * (2 * n + 1 - s)
                assert row.s_sign_discrepant == (s != 0)


def test_eigenfunction_values_and_derivatives():
    params = LandauParams(eB=2.0)
    phi = eigenfunction(3, params)
    z = np.linspace(0.0, 20.0, 50)
    eB = params.eB
    expected = np.exp(-z / eB) * eval_laguerre(3, 2.0 * z / eB)
    assert np.max(np.abs(phi(z) - expected)) < 1e-12
    h = 1e-6
    num_d1 = (phi(z + h) - phi(z - h)) / (2 * h)
    assert np.max(np.abs(phi.jet(z)[1] - num_d1)) < 1e-7


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 16, 40, 100])
def test_eigenfunction_matches_exact_oracle(n):
    # phi, phi' and phi'' against e^{-z/eB} times the product-rule
    # combination of L_n(2z/eB) and its z-derivatives, summed exactly from
    # the rational coefficients at rational z on [0, 30 eB]
    for eB in (Fraction(1, 2), Fraction(1), Fraction(2)):
        phi = eigenfunction(n, LandauParams(float(eB)))
        a = 1 / eB
        zs = [j * eB / 2 for j in range(61)]
        exact = [[], [], []]
        for z in zs:
            p, p1, p2 = exact_landau_polynomials(n, eB, z)
            e = math.exp(-float(a * z))
            exact[0].append(e * float(p))
            exact[1].append(e * float(p1 - a * p))
            exact[2].append(e * float(p2 - 2 * a * p1 + a * a * p))
        z = np.array([float(v) for v in zs])
        got = (phi(z), phi.jet(z)[1], phi.jet(z)[2])
        for values, want in zip(got, exact):
            want = np.array(want)
            assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))


def test_eigenfunction_norm_exact():
    for eB in (0.5, 1.0, 3.0):
        params = LandauParams(eB)
        for n in range(4):
            phi = eigenfunction(n, params)
            assert phi.norm_squared() == eB / 2.0
            # quadrature agrees with the closed form
            x = np.linspace(0, 40 * eB, 20001)
            quad = np.trapezoid(phi(x) ** 2, x)
            assert abs(quad - eB / 2.0) < 1e-4 * eB


def test_reduced_ode_eigen_residual():
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(eB)
        for n in range(6):
            phi = eigenfunction(n, params)
            z = np.linspace(0.0, 30.0 * eB, 400)
            kappa = eB * (2 * n + 1)
            residual = reduced_ode_apply(phi, params, z) - kappa * phi(z)
            assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(phi(z)))


def test_reduced_ode_callable_and_array_paths():
    params = LandauParams(eB=1.0)
    phi = eigenfunction(1, params)
    z = np.linspace(0.0, 10.0, 801)
    analytic = reduced_ode_apply(phi, params, z)
    from_callable = reduced_ode_apply(lambda t: phi(t), params, z)
    assert np.max(np.abs(from_callable - analytic)) < 1e-6
    with pytest.raises(TypeError):
        reduced_ode_apply(phi(z), params, z)


def test_rayleigh_quotient_matches_eigenvalue():
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(eB)
        for n in range(6):
            phi = eigenfunction(n, params)
            kappa = eB * (2 * n + 1)
            assert abs(rayleigh_quotient(phi, params) - kappa) < 1e-7 * kappa


def test_rayleigh_quotient_equals_fresh_rule_route():
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(eB)
        for n in range(6):
            phi = eigenfunction(n, params)
            assert rayleigh_quotient(phi, params) == rayleigh_quotient_fresh(phi, params)


def test_rayleigh_quotient_builds_its_rule_once(monkeypatch):
    calls = []
    leggauss = phaseq.landau.leggauss

    def counting(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(phaseq.landau, "leggauss", counting)
    phaseq.landau._gauss_legendre_400.cache_clear()
    try:
        for n, eB in [(0, 1.0), (3, 0.5), (5, 2.0), (0, 1.0)]:
            params = LandauParams(eB)
            rayleigh_quotient(eigenfunction(n, params), params)
    finally:
        phaseq.landau._gauss_legendre_400.cache_clear()
    assert calls == [400]


def test_rayleigh_quotient_rule_is_read_only():
    params = LandauParams(1.0)
    rayleigh_quotient(eigenfunction(0, params), params)
    for array in phaseq.landau._gauss_legendre_400():
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_rayleigh_quotient_perturbation_insensitive():
    params = LandauParams(eB=1.0)
    phi0 = eigenfunction(0, params)
    phi1 = eigenfunction(1, params)
    mixed = lambda z: phi0(z) + 0.01 * phi1(z)
    rq = rayleigh_quotient(mixed, params)
    # first-order insensitivity: a 1e-2 amplitude error moves the
    # quotient by O(1e-4), not O(1e-2)
    assert abs(rq - 1.0) < 5e-4


@pytest.mark.parametrize("n, passes", [(0, 4), (1, 6), (8, 8)])
def test_landau_eigen_makes_one_laguerre_pass_per_factor(tmp_path, capsys, monkeypatch, n, passes):
    # one L_n pass for the table's phi, one per jet factor (L_n, L_{n-1}^(1),
    # L_{n-2}^(2), as far as they exist) for its residual, and the same two
    # for the Rayleigh quotient
    calls = []
    laguerre = phaseq.landau._laguerre

    def counting(degree, alpha, u):
        calls.append((degree, alpha))
        return laguerre(degree, alpha, u)

    monkeypatch.setattr(phaseq.landau, "_laguerre", counting)
    monkeypatch.chdir(tmp_path)
    assert phaseq.cli.main(["landau-eigen", "--n", str(n)]) == 0
    capsys.readouterr()
    assert len(calls) == passes


def test_full_operator_reuses_its_first_derivatives(monkeypatch):
    # four first and two second derivatives of phi, the two mixed ones from
    # dy and dx, and one each for the two nested (q + (i/2) d_p)^2 squares
    calls = []
    fd_derivative = phaseq.landau.fd_derivative

    def counting(f, axis, order=1):
        calls.append((axis, order))
        return fd_derivative(f, axis, order)

    monkeypatch.setattr(phaseq.landau, "fd_derivative", counting)
    params = LandauParams()
    phaseq.landau.full_operator_apply(landau_amplitude(1, params, landau_grid(9, 1.7)), params)
    assert len(calls) == 10


def test_reduction_equivalence_small_grid():
    params = LandauParams(eB=1.0, s=1)
    report = reduction_equivalence_check(0, params, landau_grid(12, 1.7))
    assert report.expected_value == 0.0
    assert report.relative_difference < 1e-2
    assert report.imag_fraction < 1e-3


def test_reduction_check_refuses_grid_without_interior(monkeypatch):
    # the 4-point interior margin leaves nothing to compare below 9 points,
    # and the refusal comes before the 4-D operator is applied
    def unreachable(*args):
        raise AssertionError("full_operator_apply was reached")

    monkeypatch.setattr(phaseq.landau, "full_operator_apply", unreachable)
    with pytest.raises(ValueError, match="at least 9 points"):
        reduction_equivalence_check(0, LandauParams(), landau_grid(8, 1.7))


def test_reduction_check_smallest_grid_has_one_interior_point():
    report = reduction_equivalence_check(0, LandauParams(), landau_grid(9, 1.7))
    assert report.interior_margin == 4
    assert math.isfinite(report.relative_difference)


def test_wigner_landau_real_small_grid():
    amp = landau_amplitude(0, LandauParams(eB=1.0, s=1), landau_grid(8, 3.0))
    fw = wigner_landau(amp)
    assert np.max(np.abs(fw.values.imag)) < 1e-10 * fw.max_abs()


@pytest.mark.parametrize("points", [8, 12])
@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("n", [0, 2])
def test_wigner_landau_equals_spinor_sum(n, s, points):
    # one grid star, doubled, is bit-identical to the spinor sum over the
    # components (+phi, -phi) in the spin-s rows
    spec = landau_grid(points, 3.0)
    amp = landau_amplitude(n, LandauParams(eB=1.0, s=s), spec)
    zero = Field.zeros(spec)
    spinor = [amp, zero, -1 * amp, zero] if s == 1 else [zero, amp, zero, -1 * amp]
    fw = wigner_landau(amp)
    assert np.array_equal(fw.values, spinor_wigner_sum(spinor).values)
