import pytest

from phaseq import (
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    AlgebraReport,
    PhasePolynomial,
    angular_generator,
    casimir_p2,
    casimir_w2,
    check_casimirs,
    check_poincare_algebra,
    dirac_square_check,
    levi_civita,
    commutator_on,
    monomial_basis,
    moyal_star,
    p_var,
    pauli_lubanski,
)

from oracles import (
    basis_sweep,
    commutative_star,
    mutate_star,
    pair1_flipped_star,
    tree_angular,
    tree_commutator,
    tree_lowered_momentum,
)

METRICS = pytest.mark.parametrize("metric", [MOSTLY_MINUS, MOSTLY_PLUS], ids=["+---", "-+++"])


def test_levi_civita():
    assert levi_civita(0, 1, 2, 3) == 1
    assert levi_civita(1, 0, 2, 3) == -1
    assert levi_civita(0, 0, 2, 3) == 0
    assert levi_civita(3, 2, 1, 0) == 1
    total = sum(
        abs(levi_civita(a, b, c, d))
        for a in range(4)
        for b in range(4)
        for c in range(4)
        for d in range(4)
    )
    assert total == 24


def test_monomial_basis_counts():
    # 1 + 8 + C(9,2) monomials up to degree 2 in 8 variables
    assert len(monomial_basis(0)) == 1
    assert len(monomial_basis(1)) == 9
    assert len(monomial_basis(2)) == 45


def test_algebra_check_degree_two_both_metrics():
    for metric in (MOSTLY_MINUS, MOSTLY_PLUS):
        report = check_poincare_algebra(2, metric)
        assert report.passed
        assert report.checked > 0
        assert not report.violations


def test_angular_generator_antisymmetry():
    basis = monomial_basis(2)
    for mu in range(4):
        for nu in range(4):
            m_ab = angular_generator(mu, nu)
            m_ba = angular_generator(nu, mu)
            for mono in basis:
                assert moyal_star(m_ab, mono) == PhasePolynomial.zero() - moyal_star(
                    m_ba, mono
                )


def test_pauli_lubanski_orthogonal_to_momentum():
    # W^mu P_mu = 0: contract with the metric to raise the W index
    for metric in (MOSTLY_MINUS, MOSTLY_PLUS):
        basis = monomial_basis(1)
        for mono in basis:
            acc = PhasePolynomial.zero()
            for mu in range(4):
                w = pauli_lubanski(mu, metric)
                p_mono = moyal_star(p_var(mu), mono, metric)
                acc = acc + (metric[mu] * moyal_star(w, p_mono, metric))
            assert acc.is_zero()


def test_casimir_check_small_degrees():
    report = check_casimirs(1, 1)
    assert report.passed


def test_casimir_p2_on_constant_is_quadratic_form():
    p2 = casimir_p2()
    one = PhasePolynomial.constant(1)
    out = moyal_star(p2, one)
    # P^mu P_mu acting on 1 gives p0^2 - p1^2 - p2^2 - p3^2 (mostly-minus)
    from phaseq import p_var

    expected = (
        p_var(0) * p_var(0)
        - p_var(1) * p_var(1)
        - p_var(2) * p_var(2)
        - p_var(3) * p_var(3)
    )
    assert out == expected


def test_casimir_w2_annihilates_constants():
    w2 = casimir_w2()
    one = PhasePolynomial.constant(1)
    # on scalar (spin-0) states W^2 has no constant piece; acting on 1 the
    # orbital parts cancel exactly
    assert moyal_star(w2, one).is_zero()


def test_degree_validation():
    with pytest.raises(ValueError):
        check_poincare_algebra(0)
    with pytest.raises(ValueError):
        check_casimirs(0, 0)


def test_dropped_rhs_violations_match_oracle_trees():
    # with the right-hand sides left out, [M, P] and [M, M] are false
    # relations; the symbol sweep and the operator-tree sweep must report
    # the same violations, string for string
    basis = monomial_basis(2)
    for metric in (MOSTLY_MINUS, MOSTLY_PLUS):
        P = [p_var(mu).scale(metric[mu]) for mu in range(4)]
        relations = [
            (f"[M_01,P_{sigma}]", angular_generator(0, 1, metric), P[sigma],
             tree_angular(0, 1, metric), tree_lowered_momentum(sigma, metric))
            for sigma in range(4)
        ] + [
            ("[M_12,M_23]", angular_generator(1, 2, metric),
             angular_generator(2, 3, metric),
             tree_angular(1, 2, metric), tree_angular(2, 3, metric)),
        ]
        symbols, trees = AlgebraReport(), AlgebraReport()
        for rel, a, b, tree_a, tree_b in relations:
            residual = commutator_on(a, b, PhasePolynomial.constant(1), metric)
            for mono in basis:
                symbols.record(rel, mono, moyal_star(residual, mono, metric))
                trees.record(rel, mono, tree_commutator(tree_a, tree_b, mono))
        assert symbols.checked == trees.checked == 5 * len(basis)
        assert symbols.violations
        assert symbols.violations == trees.violations


def _sweeps_made(monkeypatch, check, *args):
    """A check's report and the (pairs, max_degree, metric) of every sweep it made."""
    calls = []
    sweep = AlgebraReport.sweep

    def spy(report, pairs, max_degree, metric):
        calls.append((list(pairs), max_degree, metric))
        sweep(report, pairs, max_degree, metric)

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraReport, "sweep", spy)
        report = check(*args)
    return report, calls


def _assert_routes_agree(calls):
    """AlgebraReport.sweep and the multiply-everything route give one report."""
    fast, reference = AlgebraReport(), AlgebraReport()
    for pairs, max_degree, metric in calls:
        fast.sweep(pairs, max_degree, metric)
        basis_sweep(reference, pairs, max_degree, metric)
    assert fast.checked == reference.checked
    assert fast.violations == reference.violations
    return fast


@METRICS
def test_sweep_matches_reference_route_on_passing_relations(monkeypatch, metric):
    for check, args, relations in (
        (check_poincare_algebra, (2, metric), 70),
        (check_casimirs, (2, 1, metric), 20),
        (dirac_square_check, (2, metric), 16),
    ):
        report, calls = _sweeps_made(monkeypatch, check, *args)
        assert sum(len(pairs) for pairs, _, _ in calls) == relations
        fast = _assert_routes_agree(calls)
        assert report.passed and not fast.violations
        assert report.checked == fast.checked


@METRICS
def test_sweep_matches_reference_route_on_dropped_rhs_relations(metric):
    # one call with zero and nonzero residuals mixed keeps the
    # monomial-major order; one call per relation keeps relation-major order
    P = [p_var(mu).scale(metric[mu]) for mu in range(4)]
    M = {pair: angular_generator(*pair, metric) for pair in ((0, 1), (1, 2), (2, 3))}
    relations = [(f"[M_01,P_{sigma}]", M[0, 1], P[sigma]) for sigma in range(4)]
    relations.append(("[M_12,M_23]", M[1, 2], M[2, 3]))
    one = PhasePolynomial.constant(1)
    pairs = [(rel, commutator_on(a, b, one, metric)) for rel, a, b in relations]
    assert {res.is_zero() for _, res in pairs} == {True, False}
    for calls in ([(pairs, 2, metric)], [([pair], 2, metric) for pair in pairs]):
        fast = _assert_routes_agree(calls)
        assert fast.checked == 5 * 45
        assert fast.violations


@METRICS
def test_sweep_matches_reference_route_on_a_perturbed_dirac_residual(monkeypatch, metric):
    _, [(pairs, max_degree, _)] = _sweeps_made(monkeypatch, dirac_square_check, 2, metric)
    relation, residual = pairs[6]
    pairs[6] = (relation, residual + p_var(1) * p_var(2))
    fast = _assert_routes_agree([(pairs, max_degree, metric)])
    assert fast.checked == 16 * 45
    assert {v["relation"] for v in fast.violations} == {relation}
    assert len(fast.violations) == 45


def test_sweep_refuses_a_negative_degree_and_counts_zero_residuals():
    report = AlgebraReport()
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        report.sweep([("zero", PhasePolynomial.zero())], -1, MOSTLY_MINUS)
    report.sweep([("zero", PhasePolynomial.zero())] * 2, 8, MOSTLY_MINUS)
    assert report.checked == 2 * 12870 and report.passed


@METRICS
def test_algebra_and_casimir_sweeps_fail_under_wrong_star_products(monkeypatch, metric):
    # mutation controls: the violations at degree 1 under each wrong product;
    # the commutative one cannot fail [P2, .] = 0, whose both sides it keeps zero
    mutate_star(monkeypatch, pair1_flipped_star)
    assert len(check_poincare_algebra(1, metric).violations) == 81
    assert len(check_casimirs(1, 1, metric).violations) == 27
    mutate_star(monkeypatch, commutative_star)
    assert len(check_poincare_algebra(1, metric).violations) == 324
