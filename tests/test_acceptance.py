"""Acceptance gate: twelve verification criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion states its tolerance inline; the exact-algebra criteria
demand literal zero residuals, the grid criteria demand the stated
numerical tolerances on frozen configurations.
"""

import random
import time

import numpy as np
from scipy.special import eval_laguerre

from phaseq import (
    Axis,
    CR_I,
    Field,
    GridSpec,
    LandauParams,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    PhasePolynomial,
    bandlimit,
    check_casimirs,
    check_poincare_algebra,
    commutator_on,
    dirac_square_check,
    eigenfunction,
    gamma_product_decomposition,
    inner_product,
    kg_two_route_check,
    kummer_m,
    kummer_u,
    landau_amplitude,
    landau_grid,
    monomial_basis,
    moyal_star,
    p_var,
    poisson_bracket,
    q_var,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    sigma,
    spectrum,
    standard_gamma_rep,
    wigner_from_amplitude,
    wigner_landau,
)
from phaseq.dirac import _diag, mat_add, mat_mul, mat_scale

from oracles import (
    bopp_momentum,
    bopp_position,
    dirac_basis_tables,
    random_poly,
    tree_commutator,
)

METRICS = (MOSTLY_MINUS, MOSTLY_PLUS)


def _verdict(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {label} ({detail})"


def test_criterion_01_symmetry_algebra_degree_3():
    start = time.perf_counter()
    report = check_poincare_algebra(3, MOSTLY_MINUS)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    _verdict(
        1,
        "symmetry algebra, degree-3 basis, exact residuals",
        ok,
        f"{report.checked} identities, {len(report.violations)} violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_canonical_commutator():
    # symbols q^mu, p^nu under the star, cross-checked against the Bopp
    # shifts applied as differential operators
    i_const = PhasePolynomial.constant(CR_I)
    checked = 0
    bad = 0
    basis = monomial_basis(3)
    for metric in METRICS:
        for mu in range(4):
            for nu in range(4):
                q_op = bopp_position(mu, metric)
                p_op = bopp_momentum(nu, metric)
                expected = (
                    i_const.scale(metric[mu])
                    if mu == nu
                    else PhasePolynomial.zero()
                )
                for mono in basis:
                    got = commutator_on(q_var(mu), p_var(nu), mono, metric)
                    checked += 1
                    if got != expected * mono or got != tree_commutator(
                        q_op, p_op, mono
                    ):
                        bad += 1
    _verdict(
        2,
        "canonical commutator i*g on degree-3 basis, both metrics",
        bad == 0,
        f"{checked} commutators, {bad} nonzero residuals",
    )


def test_criterion_03_casimir_centrality():
    start = time.perf_counter()
    report = check_casimirs(2, 1, MOSTLY_MINUS)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 300.0
    _verdict(
        3,
        "Casimir centrality, exact residuals",
        ok,
        f"{report.checked} identities, {len(report.violations)} violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_clifford_and_sigma_blocks():
    failures = []
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        for mu in range(4):
            for nu in range(4):
                a, b = rep.gamma[mu], rep.gamma[nu]
                want = _diag(2 * metric[mu] if mu == nu else 0)
                if mat_add(mat_mul(a, b), mat_mul(b, a)) != want:
                    failures.append(f"{metric.label()} anticomm({mu},{nu})")
    rep = standard_gamma_rep(MOSTLY_MINUS)
    _, alpha, sigma_big = dirac_basis_tables()
    for j in range(3):
        if sigma(0, j + 1, rep) != mat_scale(CR_I, alpha[j]):
            failures.append(f"sigma(0,{j + 1})")
    for (i, j), k in {(1, 2): 2, (2, 3): 0, (3, 1): 1}.items():
        if sigma(i, j, rep) != sigma_big[k]:
            failures.append(f"sigma({i},{j})")
    try:
        const = gamma_product_decomposition(rep)
        if const != -CR_I:
            failures.append("decomposition constant")
    except ValueError:
        failures.append("decomposition inconsistent")
    _verdict(
        4,
        "Clifford relation, sigma blocks, decomposition constant",
        not failures,
        f"entrywise exact, failures: {failures or 'none'}",
    )


def test_criterion_05_dirac_square_degree_2():
    report = dirac_square_check(2, MOSTLY_MINUS)
    _verdict(
        5,
        "operator square equals wave operator on degree-2 spinors",
        report.passed,
        f"{report.checked} components, {len(report.violations)} violations",
    )


def test_criterion_06_kg_two_route_convergence():
    results = {}
    for n in (64, 128):
        spec = GridSpec([Axis("q0", n, -9, 9), Axis("q1", n, -9, 9)])
        phi = Field.from_function(
            spec, lambda a, b: np.exp(-(a * a + b * b) / 4)
        )
        results[n] = kg_two_route_check(
            phi, (0.7, 0.3), 1.0
        ).relative_discrepancy
    ratio = results[64] / results[128]
    ok = results[128] <= 1e-8 and ratio >= 10.0
    _verdict(
        6,
        "two-route wave-operator agreement",
        ok,
        f"128^2 rel {results[128]:.2e} (<=1e-8), 64->128 ratio {ratio:.0f} (>=10)",
    )


def test_criterion_07_landau_spectrum():
    bad = 0
    flagged = 0
    for n in range(11):
        for s in (1, -1):
            for eB in (0.5, 1.0, 2.0):
                row = spectrum(n, LandauParams(eB, s))
                if row.k != 2 * n + 1:
                    bad += 1
                if row.kappa != eB * (2 * n + 1):
                    bad += 1
                if row.lambda2_paper != eB * (2 * n + 1 + s):
                    bad += 1
                if row.s_sign_discrepant:
                    flagged += 1
    _verdict(
        7,
        "level spectrum k = 2n+1, kappa = eB(2n+1) exact, n <= 10",
        bad == 0 and flagged == 66,
        f"{bad} wrong entries, {flagged}/66 rows carry the spin-sign "
        "discrepancy flag",
    )


def test_criterion_08_eigenfunction_residual_and_rayleigh():
    worst_res = 0.0
    worst_rq = 0.0
    for eB in (0.5, 1.0, 2.0):
        params = LandauParams(eB)
        z = np.linspace(0.0, 30.0 * eB, 400)
        for n in range(6):
            phi = eigenfunction(n, params)
            kappa = eB * (2 * n + 1)
            res = np.max(
                np.abs(reduced_ode_apply(phi, params, z) - kappa * phi(z))
            ) / np.max(np.abs(phi(z)))
            worst_res = max(worst_res, float(res))
            rq_err = abs(rayleigh_quotient(phi, params) - kappa) / kappa
            worst_rq = max(worst_rq, rq_err)
    ok = worst_res <= 1e-9 and worst_rq <= 1e-7
    _verdict(
        8,
        "eigenfunction ODE residual and Rayleigh quotient, n <= 5",
        ok,
        f"max rel residual {worst_res:.2e} (<=1e-9), max Rayleigh error "
        f"{worst_rq:.2e} (<=1e-7)",
    )


def test_criterion_09_reduction_equivalence():
    params = LandauParams(eB=1.0, s=1)
    tol = {0: 1e-3, 1: 5e-3}
    results = {}
    for n_pts in (12, 16):
        spec = landau_grid(n_pts, 1.7)
        for n in (0, 1):
            results[(n_pts, n)] = reduction_equivalence_check(n, params, spec)
    ok = True
    details = []
    for n in (0, 1):
        fine = results[(16, n)]
        coarse = results[(12, n)]
        monotone = fine.relative_difference < coarse.relative_difference
        within = fine.relative_difference <= tol[n]
        imag_ok = fine.imag_fraction <= 1e-4
        ok = ok and monotone and within and imag_ok
        details.append(
            f"n={n}: 16^4 rel {fine.relative_difference:.2e} "
            f"(12^4 {coarse.relative_difference:.2e}, monotone={monotone}), "
            f"imag {fine.imag_fraction:.1e}"
        )
    _verdict(
        9,
        "full 4D operator matches reduced route, refinement monotone",
        ok,
        "; ".join(details),
    )


def test_criterion_10_wigner_properties():
    # scalar Gaussian on 128^2
    spec2 = GridSpec([Axis("q", 128, -8, 8), Axis("p", 128, -8, 8)])
    amp = Field.from_function(spec2, lambda q, p: np.exp(-(q * q + p * p)))
    fw2 = wigner_from_amplitude(amp)
    scalar_realness = float(np.max(np.abs(fw2.values.imag))) / fw2.max_abs()

    # n = 0 magnetic bound state on 12^4
    spec4 = landau_grid(12, 3.0)
    amp4 = landau_amplitude(0, LandauParams(eB=1.0, s=1), spec4)
    fw4 = wigner_landau(amp4)
    realness = float(np.max(np.abs(fw4.values.imag))) / fw4.max_abs()
    amp4 = bandlimit(amp4)
    norm2 = 2.0 * inner_product(amp4, amp4).real
    ones = Field(spec4, np.ones(spec4.shape))
    trace_err = abs(inner_product(ones, fw4).real - norm2) / norm2
    ok = realness <= 1e-6 and trace_err <= 1e-3 and scalar_realness <= 1e-8
    _verdict(
        10,
        "Wigner realness and trace/norm agreement",
        ok,
        f"12^4 realness {realness:.1e} (<=1e-6), trace rel err "
        f"{trace_err:.1e} (<=1e-3); 128^2 scalar realness "
        f"{scalar_realness:.1e} (<=1e-8)",
    )


def test_criterion_11_special_functions():
    worst_id = 0.0
    xs = np.linspace(0.0, 50.0, 101)
    for n in range(11):
        for x in xs:
            ref = eval_laguerre(n, x)
            err = abs(kummer_m(-n, 1, x) - ref) / max(1.0, abs(ref))
            worst_id = max(worst_id, err)

    def ode_residual(fn, a, b, x, h=1e-2):
        f = [fn(x + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
        d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
        return abs(x * d2 + (b - x) * d1 - a * f[2]) / max(1.0, abs(f[2]))

    worst_ode = 0.0
    for a, b, x in [(0.5, 1.5, 2.0), (1.2, 2.3, 8.0), (-3, 1.0, 12.0)]:
        worst_ode = max(worst_ode, ode_residual(lambda t: kummer_m(a, b, t), a, b, x))
    for a, x in [(0.5, 1.0), (1.3, 3.0), (2.2, 2.0)]:
        worst_ode = max(worst_ode, ode_residual(lambda t: kummer_u(a, 1.0, t), a, 1.0, x))
    ok = worst_id <= 1e-12 and worst_ode <= 1e-8
    _verdict(
        11,
        "M(-n,1,x) = L_n(x) and confluent ODE residuals",
        ok,
        f"identity max err {worst_id:.1e} (<=1e-12), ODE residual "
        f"{worst_ode:.1e} (<=1e-8)",
    )


def test_criterion_12_star_structure():
    rng = random.Random(2024)
    assoc_bad = 0
    for _ in range(200):
        f = random_poly(rng, max_degree=4, n_terms=3)
        g = random_poly(rng, max_degree=4, n_terms=3)
        h = random_poly(rng, max_degree=4, n_terms=3)
        if moyal_star(moyal_star(f, g), h) != moyal_star(f, moyal_star(g, h)):
            assoc_bad += 1
    bracket_bad = 0
    i_const = PhasePolynomial.constant(CR_I)
    for _ in range(100):
        f = random_poly(rng, max_degree=2, n_terms=3)
        g = random_poly(rng, max_degree=2, n_terms=3)
        moyal = moyal_star(f, g) - moyal_star(g, f)
        if moyal != i_const * poisson_bracket(f, g):
            bracket_bad += 1
    ok = assoc_bad == 0 and bracket_bad == 0
    _verdict(
        12,
        "star associativity (200 trials) and bracket correspondence",
        ok,
        f"{assoc_bad} associativity failures, {bracket_bad} bracket failures",
    )
