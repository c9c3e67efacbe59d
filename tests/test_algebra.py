import ast
import random
from fractions import Fraction
from pathlib import Path

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

from oracles import eval_poly, random_poly, random_rational


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
    with pytest.raises(ValueError):
        q_var(2, dims=2)
    f = q_var(1, dims=2)
    g = q_var(1, dims=4)
    with pytest.raises(ValueError):
        f + g


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
