import ast
import copy
import importlib
import operator
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import phaseq
from phaseq import (
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

from phaseq.algebra import _from_integers

from oracles import FractionPairComplex, eval_poly, random_poly, random_rational

LIBRARY_MODULES = ("algebra", "confluent", "dirac", "grids", "landau", "parsing", "poincare", "star")
# sorted(phaseq.__all__): the 62 public names and the 8 library modules
PUBLIC_API = [
    "AlgebraReport", "Axis", "CR_I", "CR_ONE", "CR_ZERO", "ComplexRational",
    "Field", "GammaRep", "GridSpec", "KGReport", "LandauEigenfunction",
    "LandauParams", "MOSTLY_MINUS", "MOSTLY_PLUS", "MetricSignature", "ParseError",
    "PhasePolynomial", "ReductionReport", "SpectrumRow", "algebra",
    "angular_generator", "bandlimit", "casimir_p2", "casimir_w2", "check_casimirs",
    "check_poincare_algebra", "clifford_report", "commutator_on", "confluent",
    "dirac", "dirac_square_check", "eigenfunction", "fd_derivative",
    "format_polynomial", "fourier_derivative", "full_operator_apply",
    "gamma_product_decomposition", "grid_star", "grids", "inner_product",
    "kg_two_route_check", "kummer_m", "kummer_u", "laguerre", "landau",
    "landau_amplitude", "landau_grid", "levi_civita", "monomial_basis",
    "moyal_star", "p_var", "parse_expression", "parsing", "pauli_lubanski",
    "poincare", "poisson_bracket", "q_var", "rayleigh_quotient",
    "read_field_binary", "reduced_ode_apply", "reduction_equivalence_check",
    "sigma", "spectrum", "standard_gamma_rep", "star", "wigner_from_amplitude",
    "wigner_landau", "write_field_binary", "write_field_csv", "z_variable",
]


def test_complex_rational_matches_python_complex():
    rng = random.Random(11)
    for _ in range(200):
        a = ComplexRational(random_rational(rng), random_rational(rng))
        b = ComplexRational(random_rational(rng), random_rational(rng))
        assert a + b == ComplexRational(a.re + b.re, a.im + b.im)
        assert a - b == ComplexRational(a.re - b.re, a.im - b.im)
        assert a * b == ComplexRational(
            a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re
        )
        if not b.is_zero():
            assert (a / b) * b == a
        assert a.conjugate() == ComplexRational(a.re, -a.im)


def test_complex_rational_identities():
    assert CR_I * CR_I == -CR_ONE
    assert CR_ZERO.is_zero()
    assert not CR_ONE.is_zero()
    assert ComplexRational.of(Fraction(3, 2)).to_complex() == 1.5 + 0j
    with pytest.raises(ZeroDivisionError):
        CR_ONE / CR_ZERO


def _seeded_value(rng):
    """A ComplexRational and its FractionPairComplex reference, built from the same integers."""
    scale = rng.choice((1, 1, 1, 10**20))
    a, b = rng.randint(-3, 3) * scale, rng.randint(-3, 3)
    d = rng.choice((1, 2, 3, 4, 6))
    ref = FractionPairComplex(Fraction(a, d), Fraction(b, d))
    if rng.random() < 0.5:
        # int or Fraction parts; a shared denominator leaves the naive triple unreduced
        parts = [a if d == 1 else Fraction(a, d), b if d == 1 else Fraction(b, d)]
        return ComplexRational(*parts), ref
    # the integer triple times a common factor
    k = rng.choice((1, 2, 6, 35))
    return _from_integers(k * a, k * b, k * d), ref


def _assert_same(value, ref):
    assert type(value) is ComplexRational
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == (ref.re, ref.im)
    a, b, d = value._abd
    assert d > 0 and gcd(a, b, d) == 1


_PLAIN = [0, 1, -2, Fraction(3, 4), Fraction(-5, 6), 0.5, -0.375, 0.0, 1.5 + 0.25j, 2j, 0j]


def test_complex_rational_matches_fraction_pair_reference():
    rng = random.Random("complex-rational-reference")
    values = [_seeded_value(rng) for _ in range(60)]
    for value in _PLAIN:
        _assert_same(ComplexRational.of(value), FractionPairComplex.of(value))
    for x, rx in values:
        _assert_same(x, rx)
        _assert_same(-x, -rx)
        _assert_same(x.conjugate(), rx.conjugate())
        assert ComplexRational.of(x) is x
        assert x.is_zero() == rx.is_zero() and bool(x) == bool(rx)
        assert x.to_complex() == rx.to_complex()
        for v in _PLAIN:
            for op in (operator.add, operator.sub, operator.mul):
                _assert_same(op(x, v), op(rx, v))
                _assert_same(op(v, x), op(v, rx))
            if v:
                _assert_same(x / v, rx / v)
            else:
                with pytest.raises(ZeroDivisionError):
                    x / v
    equal_pairs = 0
    for x, rx in values:
        for y, ry in values:
            for op in (operator.add, operator.sub, operator.mul):
                _assert_same(op(x, y), op(rx, ry))
            if ry.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                _assert_same(x / y, rx / ry)
            assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
            if x == y:
                assert hash(x) == hash(y)
                equal_pairs += x is not y
    # equal values built by different routes meet
    assert equal_pairs > 0


def test_complex_rational_value_semantics():
    x = ComplexRational(Fraction(1, 2), -3)
    assert x._abd == (1, -6, 2)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(x, x)
    # never a tuple: no equality with one, no length, no iteration
    for plain in ((1, -6, 2), (Fraction(1, 2), Fraction(-3)), x._abd):
        assert not x == plain and x != plain
    with pytest.raises(TypeError):
        len(x)
    with pytest.raises(TypeError):
        iter(x)
    for name in ("re", "im", "_abd", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.re, x.im) == (Fraction(1, 2), Fraction(-3))
    half = ComplexRational(Fraction(2, 4), 0)
    assert half == ComplexRational(Fraction(1, 2))
    assert hash(half) == hash(ComplexRational(Fraction(1, 2)))
    zeros = [CR_ZERO, ComplexRational(), ComplexRational(0, Fraction(0, 5)), CR_ONE - CR_ONE,
             CR_I * 0, _from_integers(0, 0, 12)]
    assert all(zero._abd == (0, 0, 1) for zero in zeros)
    assert repr(x) == "ComplexRational(re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert repr(CR_ZERO) == "ComplexRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied == x
    # parts are exact: a float part is refused, as ComplexRational.of converts floats
    with pytest.raises(TypeError, match="int or Fraction"):
        ComplexRational(0.5)


def test_complex_rational_defers_to_polynomial_operands():
    # an operand ComplexRational cannot coerce gets NotImplemented, so the
    # polynomial's reflected method runs, from either side
    poly = q_var(0) * p_var(1) + Fraction(1, 3)
    assert CR_I * poly == poly * CR_I == poly.scale(CR_I)
    assert CR_I + poly == poly + CR_I
    assert CR_I - poly == -(poly - CR_I)
    assert poly - CR_I == poly + (-CR_I)
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(CR_I, method)(poly) is NotImplemented
        assert getattr(CR_I, method)("i") is NotImplemented
    # with no reflected method on the other side, Python raises TypeError
    for apply in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="unsupported operand"):
            apply(CR_I, None)
        with pytest.raises(TypeError, match="unsupported operand"):
            apply(None, CR_I)
    # the numbers of() converts still combine as before
    assert CR_I - 1 == ComplexRational(-1, 1) and 1 - CR_I == ComplexRational(1, -1)
    assert CR_I * 0.5 == ComplexRational(0, Fraction(1, 2))


def test_metric_signature_validation():
    assert MOSTLY_MINUS[0] == 1 and MOSTLY_MINUS[3] == -1
    assert MOSTLY_PLUS.label() == "-+++"
    with pytest.raises(ValueError):
        MetricSignature((1, 1, -1, -1))
    with pytest.raises(ValueError):
        MetricSignature((2, -1, -1, -1))


def test_polynomial_ring_axioms_by_evaluation():
    rng = random.Random(23)
    for _ in range(50):
        f = random_poly(rng)
        g = random_poly(rng)
        h = random_poly(rng)
        qs = [rng.uniform(-2, 2) for _ in range(4)]
        ps = [rng.uniform(-2, 2) for _ in range(4)]
        at = lambda poly: eval_poly(poly, qs, ps)
        assert abs(at(f * g) - at(f) * at(g)) < 1e-6 * (1 + abs(at(f) * at(g)))
        assert abs(at((f + g) * h) - at(f * h) - at(g * h)) < 1e-6 * (
            1 + abs(at(f * h)) + abs(at(g * h))
        )
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_derivative_leibniz_rule():
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        kind = rng.choice(["q", "p"])
        idx = rng.randrange(4)
        lhs = (f * g).derivative(kind, idx)
        rhs = f.derivative(kind, idx) * g + f * g.derivative(kind, idx)
        assert lhs == rhs


def test_degree_and_conjugate():
    f = q_var(0) * p_var(1) * p_var(1) + PhasePolynomial.constant(CR_I)
    assert f.degree() == 3
    assert f.conjugate() == q_var(0) * p_var(1) * p_var(1) - PhasePolynomial.constant(CR_I)
    assert PhasePolynomial.zero().degree() == -1


def test_dims_bound_enforced():
    # zero and monomial keep a dims parameter that accepts only 4
    key = (1, 0, 0, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError, match="dims must be 4"):
        PhasePolynomial.zero(3)
    with pytest.raises(ValueError, match="dims must be 4"):
        PhasePolynomial.monomial(key, CR_I, 2)
    assert PhasePolynomial.zero(4) == PhasePolynomial.zero()
    assert PhasePolynomial.monomial(key, CR_I, 4) == (q_var(0) * p_var(1) ** 2).scale(CR_I)
    assert PhasePolynomial.__slots__ == ("terms",)


@pytest.mark.parametrize("exponent", [1.5, 1.0, "a", -1], ids=["1.5", "1.0", "str", "-1"])
def test_exponent_keys_must_be_nonnegative_integers(exponent):
    key = (exponent, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="bad exponent key"):
        PhasePolynomial.monomial(key)
    with pytest.raises(ValueError, match="bad exponent key"):
        PhasePolynomial({key: 1})


def test_numpy_integer_exponents_become_ints():
    poly = PhasePolynomial.monomial((np.int64(2), 0, 0, 0, 0, 0, 0, np.int64(1)))
    (key,) = poly.terms
    assert key == (2, 0, 0, 0, 0, 0, 0, 1)
    assert all(type(e) is int for e in key)
    assert poly == q_var(0) ** 2 * p_var(3)


def test_poisson_bracket_canonical_pairs():
    for metric in (MOSTLY_MINUS, MOSTLY_PLUS):
        for mu in range(4):
            for nu in range(4):
                pb = poisson_bracket(q_var(mu), p_var(nu), metric)
                expected = (
                    PhasePolynomial.constant(metric[mu])
                    if mu == nu
                    else PhasePolynomial.zero()
                )
                assert pb == expected
                assert poisson_bracket(q_var(mu), q_var(nu), metric).is_zero()
                assert poisson_bracket(p_var(mu), p_var(nu), metric).is_zero()


def test_poisson_bracket_antisymmetry_and_jacobi():
    rng = random.Random(77)
    for _ in range(10):
        f = random_poly(rng, max_degree=2, n_terms=3)
        g = random_poly(rng, max_degree=2, n_terms=3)
        h = random_poly(rng, max_degree=2, n_terms=3)
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert jac.is_zero()


def test_exact_layer_does_not_import_numpy():
    # the exact layer decides every identity by literal equality, with no floats
    src = Path(phaseq.__file__).parent
    for module in ("algebra", "star", "parsing", "poincare", "dirac"):
        tree = ast.parse((src / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), module


def test_package_reexports_each_module_all_once():
    assert sorted(phaseq.__all__) == PUBLIC_API
    owner = {}
    for module in LIBRARY_MODULES:
        mod = importlib.import_module(f"phaseq.{module}")
        for name in mod.__all__:
            assert name not in owner, f"{name} is in {owner.get(name)} and {module}"
            owner[name] = module
            assert getattr(phaseq, name) is getattr(mod, name)
    assert sorted([*owner, *LIBRARY_MODULES]) == PUBLIC_API
