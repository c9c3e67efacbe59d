import random
from fractions import Fraction
from itertools import product

import pytest

import phaseq.dirac
import phaseq.star
from phaseq import (
    CR_I,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    ComplexRational,
    GammaRep,
    MetricSignature,
    PhasePolynomial,
    clifford_report,
    dirac_square_check,
    gamma_product_decomposition,
    p_var,
    q_var,
    sigma,
    standard_gamma_rep,
)
from phaseq.dirac import (
    _derived_tables,
    _diag,
    _products,
    _sigma_block,
    mat_add,
    mat_mul,
    mat_scale,
    symbol_matrix,
)

from oracles import (
    constant_matrix_product,
    dense_matrix,
    dense_matrix_product,
    dirac_basis_tables,
    random_poly,
    sparse_matrix,
)

METRICS = (MOSTLY_MINUS, MOSTLY_PLUS)


def anticommutator(a, b, metric=MOSTLY_MINUS):
    return mat_add(mat_mul(a, b, metric), mat_mul(b, a, metric))


def test_clifford_relation_exact():
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        for mu in range(4):
            for nu in range(4):
                want = _diag(2 * metric[mu] if mu == nu else 0)
                got = anticommutator(rep.gamma[mu], rep.gamma[nu])
                assert got == want


def test_gamma5_properties():
    gamma5 = dirac_basis_tables()[0]
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        assert mat_mul(gamma5, gamma5) == _diag(1)
        for mu in range(4):
            assert anticommutator(gamma5, rep.gamma[mu]) == _diag(0)


def test_sigma_block_structure():
    _, alpha, sigma_big = dirac_basis_tables()
    rep = standard_gamma_rep(MOSTLY_MINUS)
    for j in range(3):
        want = mat_scale(CR_I, alpha[j])
        assert sigma(0, j + 1, rep) == want
    for (i, j), k in {(1, 2): 2, (2, 3): 0, (3, 1): 1}.items():
        assert sigma(i, j, rep) == sigma_big[k]
        assert sigma(j, i, rep) == mat_scale(-1, sigma_big[k])


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
def test_sigma_makes_two_products_and_matches_the_product_table(monkeypatch, metric):
    rep = standard_gamma_rep(metric)
    blocks = _products(rep)
    calls = []

    def counting(a, b, metric=MOSTLY_MINUS):
        calls.append(metric)
        return mat_mul(a, b, metric)

    monkeypatch.setattr(phaseq.dirac, "mat_mul", counting)
    for mu, nu in product(range(4), repeat=2):
        calls.clear()
        assert sigma(mu, nu, rep) == _sigma_block(blocks, mu, nu)
        assert calls == [metric, metric]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
def test_derived_tables_match_dirac_basis_oracle(metric):
    # gamma5 = i g0 g1 g2 g3, alpha^j = g_00 g0 gj and Sigma^k = gamma5 alpha^k
    # of the standard gammas are the textbook Kronecker tables under both metrics
    assert _derived_tables(_products(standard_gamma_rep(metric)), metric) == dirac_basis_tables()


def test_standard_gamma_rep_is_cached_per_metric():
    assert standard_gamma_rep(MOSTLY_PLUS) is standard_gamma_rep(MOSTLY_PLUS)
    # an unsupported signature is refused on every call, never cached
    other = MetricSignature((-1, -1, 1, -1))
    for _ in range(2):
        with pytest.raises(ValueError):
            standard_gamma_rep(other)
    assert standard_gamma_rep.cache_info().maxsize == 2


def test_sigma12_spectrum():
    # sigma^{12} squares to I and has zero trace: eigenvalues +-1, twice each
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        s12 = sigma(1, 2, rep)
        assert mat_mul(s12, s12, metric) == _diag(1)
        dense = dense_matrix(s12)
        assert sum((dense[i][i] for i in range(4)), PhasePolynomial.zero()).is_zero()


def test_gamma_product_decomposition_constant():
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        c = gamma_product_decomposition(rep)
        assert c == -CR_I
        for mu in range(4):
            for nu in range(4):
                if mu == nu:
                    continue
                lhs = mat_mul(rep.gamma[mu], rep.gamma[nu])
                rhs = mat_scale(c, sigma(mu, nu, rep))
                assert lhs == rhs


def test_broken_representation_rejected():
    rep = standard_gamma_rep(MOSTLY_MINUS)
    bad_g3 = mat_add(rep.gamma[3], _diag(CR_I))
    broken = GammaRep((rep.gamma[0], rep.gamma[1], rep.gamma[2], bad_g3), rep.metric)
    with pytest.raises(ValueError):
        gamma_product_decomposition(broken)


def test_dirac_square_degree_one():
    for metric in METRICS:
        report = dirac_square_check(1, metric)
        assert report.passed
        assert report.checked == 4 * 4 * 9


def _entries(m):
    """A matrix of constant symbols as a tuple matrix of ComplexRational."""
    assert all(entry.degree() <= 0 for entry in m.values())
    return tuple(tuple(entry.constant_term() for entry in row) for row in dense_matrix(m))


def _random_constant_matrix(rng):
    def part():
        return Fraction(rng.randint(-6, 6), rng.choice((2, 3, 5)))

    return symbol_matrix(
        {
            (i, j): PhasePolynomial.constant(
                ComplexRational(part(), part()) if rng.random() < 0.5 else 0
            )
            for i in range(4)
            for j in range(4)
        }
    )


def _product_families():
    rng = random.Random(14)
    mats = [_random_constant_matrix(rng) for _ in range(20)]
    families = {"random": [(mats[i], mats[(i + 1) % 20]) for i in range(20)]}
    gamma5, alpha, sigma_big = dirac_basis_tables()  # the same tables under either metric
    for metric in METRICS:
        rep = standard_gamma_rep(metric)
        extras = (gamma5,) + alpha + sigma_big
        families[f"gamma pairs {metric.label()}"] = list(product(rep.gamma, repeat=2))
        families[f"gamma5 alpha Sigma {metric.label()}"] = list(product(extras, repeat=2))
    return families


_PRODUCT_FAMILIES = _product_families()


@pytest.mark.parametrize("family", sorted(_PRODUCT_FAMILIES))
def test_mat_mul_matches_constant_matrix_product(family):
    for a, b in _PRODUCT_FAMILIES[family]:
        want = constant_matrix_product(_entries(a), _entries(b))
        for metric in METRICS:
            got = dense_matrix(mat_mul(a, b, metric))
            assert all(got[i][j] == want[i][j] for i in range(4) for j in range(4))


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
def test_mat_mul_star_multiplies_symbol_entries(metric):
    for k in range(4):
        q, p = _diag(q_var(k)), _diag(p_var(k))
        bracket = mat_add(mat_mul(q, p, metric), mat_scale(-1, mat_mul(p, q, metric)))
        assert bracket == _diag(CR_I * metric[k])


def _random_symbol_matrix(rng, rows, cols):
    """A nested-tuple matrix of symbols with about half its entries zero."""
    zero = PhasePolynomial.zero()
    return tuple(
        tuple(random_poly(rng, 2, 2) if rng.random() < 0.5 else zero for _ in range(cols))
        for _ in range(rows)
    )


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
@pytest.mark.parametrize("cols", [4, 1], ids=["4x4 times 4x4", "4x4 times 4x1"])
def test_mat_mul_matches_dense_product(metric, cols):
    # the product over nonzero entry pairs against the one that star-multiplies
    # all of them, zero factors included; a 4x1 spinor is a map with column 0 only
    rng = random.Random(37 + cols)
    for _ in range(12):
        a, b = _random_symbol_matrix(rng, 4, 4), _random_symbol_matrix(rng, 4, cols)
        got = mat_mul(sparse_matrix(a), sparse_matrix(b), metric)
        assert all(key[1] < cols for key in got)
        assert dense_matrix(got, (4, cols)) == dense_matrix_product(a, b, metric)


def test_symbol_matrix_drops_zeros_and_is_read_only():
    m = symbol_matrix({(0, 0): PhasePolynomial.zero(), (1, 2): q_var(0)})
    assert dict(m) == {(1, 2): q_var(0)}
    # standard_gamma_rep is cached, so its matrices are shared by every caller
    with pytest.raises(TypeError):
        standard_gamma_rep(MOSTLY_MINUS).gamma[0][0, 1] = q_var(0)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
def test_products_skip_zero_entries(monkeypatch, metric):
    # a product star-multiplies only pairs of nonzero entries: 116 star products
    # per clifford_report (1,856 with all 64 pairs of each of its 29 products;
    # the decomposition constant reads the report's own 16 gamma^mu gamma^nu)
    # and 52 per dirac_square_check(1) (320 with all pairs)
    calls = []

    def counting(f, g, metric=MOSTLY_MINUS):
        calls.append(metric)
        return phaseq.star.moyal_star(f, g, metric)

    monkeypatch.setattr(phaseq.dirac, "moyal_star", counting)
    clifford_report(standard_gamma_rep(metric))
    assert len(calls) == 116
    calls.clear()
    dirac_square_check(1, metric)
    assert len(calls) == 52


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label())
def test_clifford_report_standard_rep(metric):
    report = clifford_report(standard_gamma_rep(metric))
    assert report == {"pass": True, "failures": [], "decomposition_constant": "-1j"}


def test_clifford_report_perturbed_gamma3():
    rep = standard_gamma_rep(MOSTLY_MINUS)
    bad_g3 = symbol_matrix({**rep.gamma[3], (3, 1): PhasePolynomial.constant(7)})
    broken = GammaRep(rep.gamma[:3] + (bad_g3,), rep.metric)
    # alpha, Sigma and gamma5 are derived from the broken gammas, so the
    # bad entry reaches gamma5 (through gamma^2 gamma^3) and every Sigma^k
    assert clifford_report(broken) == {
        "pass": False,
        "failures": [
            "anticommutator(1,3)",
            "anticommutator(2,3)",
            "anticommutator(3,1)",
            "anticommutator(3,2)",
            "anticommutator(3,3)",
            "sigma(1,2) != +1*Sigma^3",
            "sigma(2,3) != +1*Sigma^1",
            "sigma(3,1) != +1*Sigma^2",
            "decomposition: no consistent decomposition constant",
            "gamma5^2 != I",
            "gamma5 anticommutator with gamma^1",
            "gamma5 anticommutator with gamma^2",
        ],
        "decomposition_constant": None,
    }
