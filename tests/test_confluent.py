import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_laguerre, hyp1f1, hyperu

import phaseq.confluent
from phaseq import kummer_m, kummer_u, laguerre
from phaseq.confluent import SERIES_TERM_LIMIT, _laguerre, _psi, _psi_of_integers

from oracles import (
    digamma_kummer_u,
    laguerre_coefficients,
    per_row_kummer_m,
    per_row_kummer_u,
    per_row_laguerre,
    per_row_table,
)


def test_kummer_m_pinned_values():
    assert kummer_m(-2, 1, 2) == -1.0
    assert kummer_m(0, 1, 5) == 1.0
    assert abs(kummer_m(1, 1, 1) - math.e) < 1e-14
    assert abs(kummer_m(1, 2, 1) - (math.e - 1.0)) < 1e-14


def test_kummer_m_against_scipy():
    rng = random.Random(101)
    for _ in range(200):
        a = rng.uniform(-4, 4)
        b = rng.uniform(0.5, 5)
        x = rng.uniform(-20, 20)
        ref = hyp1f1(a, b, x)
        got = kummer_m(a, b, x)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_kummer_m_terminating_is_exact_polynomial():
    for n in range(8):
        for x in [0.0, 0.5, 3.0, 17.0, 50.0]:
            got = kummer_m(-n, 1, x)
            ref = eval_laguerre(n, x)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_kummer_m_negative_argument_stable():
    # the raw alternating series loses ~6 digits here; the reflection
    # to a positive argument must keep full precision
    for x in [-30.0, -45.0]:
        ref = hyp1f1(0.7, 1.3, x)
        assert abs(kummer_m(0.7, 1.3, x) - ref) < 1e-12 * abs(ref)


def test_kummer_m_domain_errors():
    with pytest.raises(ValueError):
        kummer_m(0.5, 1.0, 60.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, -2.0, 1.0)
    # terminating numerator before the denominator pole is fine
    assert kummer_m(-1, -2, 3.0) == 2.5


# M(2.08, 1.08, x) at x = -20, -19.6, ..., 20 (np.linspace(-20, 20, 101)),
# from mpmath at 40 digits, rounded to 20; below x = 0 the Kummer
# transformation leads to the terminating M(-1, 1.08, -x)
KUMMER_M_208_108 = [
    -3.6108357904201399438e-8, -5.2728495712911062278e-8, -7.6962715971530676389e-8,
    -1.1228033566083586423e-7, -1.6372148123399172024e-7, -2.386030160004978288e-7,
    -3.4753888704281569443e-7, -5.0591341239161492328e-7, -7.360062295910590782e-7,
    -1.0700535362927224748e-6, -1.5546525988993943242e-6, -2.2570903458830580266e-6,
    -3.2744232571542606329e-6, -4.7464840270394230563e-6, -6.8744812209900128074e-6,
    -9.9475472692760150891e-6, -1.4380554075053750166e-5, -2.0767857883974743393e-5,
    -2.995949494840367587e-5, -4.3168911267874338663e-5, -6.2124813794763005291e-5,
    -8.9284484245671229876e-5, -1.2813228165249196915e-4, -1.8359553070054758994e-4,
    -2.6262105707252058447e-4, -3.749697902605230054e-4, -5.3430447676118068158e-4,
    -7.5966661381222079439e-4, -1.0774623516084077308e-3, -1.5241007527677511595e-3,
    -2.149445726930909026e-3, -3.021243838919243024e-3, -4.2306529141345186066e-3,
    -5.8988831904372951069e-3, -8.184708049338278737e-3, -1.1292093249257854132e-2,
    -1.5476244443058194974e-2, -2.1044671679198511763e-2, -2.8346906502180119027e-2,
    -3.7741452294617834849e-2, -4.9520060699170186702e-2, -6.3755352377016051185e-2,
    -8.0014696698274444453e-2, -9.6845655292013756926e-2, -1.1087749846483752906e-1,
    -1.1528561164600338772e-1, -9.7209434590019059799e-2, -3.3466023545800036563e-2,
    1.164926944007626888e-1, 4.2205336231873735415e-1, 1.0,
    2.0443523634343406644, 3.8740897644128180868, 7.009135725777184227,
    1.2290858238313826903e+1, 2.1072493319172594192e+1, 3.5519123893178590071e+1,
    5.9078916177645006938e+1, 9.7221508558915162205e+1, 1.5859234925593821243e+2,
    2.5681352052627103717e+2, 4.1328774100372813435e+2, 6.6155671760200153193e+2,
    1.0540645175703269399e+3, 1.6726374088950948221e+3, 2.6446998684523745452e+3,
    4.1683341511881337121e+3, 6.5509598687086080744e+3, 1.0268969193690568818e+4,
    1.6059574416207194791e+4, 2.5062128261424899228e+4, 3.9035363674254382018e+4,
    6.0691047020394030382e+4, 9.4206006225822006134e+4, 1.4600728437070880304e+5,
    2.2597522315412815233e+5, 3.4928565068760192795e+5, 5.392288125001992845e+5,
    8.3152020899476390124e+5, 1.2808889766908501458e+6, 1.9711413627412695886e+6,
    3.0305238924790704988e+6, 4.6551650005593919602e+6, 7.1448252813729480948e+6,
    1.0957393392537216321e+7, 1.6791919078893363612e+7, 2.5715071740689033249e+7,
    3.9353655070743560237e+7, 6.0187564515957789107e+7, 9.1995420425851422837e+7,
    1.4053219230580968082e+8, 2.1455921719935445504e+8, 3.2740933290179795852e+8,
    4.993643386598375577e+8, 7.6126523632472325979e+8, 1.1599927880928389581e+9,
    1.7667848398461579757e+9, 2.6898550923446271556e+9, 4.0935325467540749861e+9,
    6.2272833079653402818e+9, 9.4697058511466466863e+9,
]


def test_kummer_m_terminating_with_noninteger_b():
    # the terminating series divides by (b + k), not by int(b) + k
    assert kummer_m(-1, 2.5, 1) == 0.6
    assert kummer_m(-2, 0.5, 1) == -5 / 3
    assert abs(kummer_m(7.5, 3.5, -7.5) - -2.2101273532380962362e-6) <= 1e-15 * 2.3e-6
    for x, want in zip(np.linspace(-20, 20, 101), KUMMER_M_208_108):
        assert abs(kummer_m(2.08, 1.08, x) - want) <= 1e-14 * abs(want)


def test_kummer_m_overflow_raises():
    # the series terms of M(1e6, 1, x) pass the float range long before
    # they start to shrink; the sum must not come back as inf
    with pytest.raises(OverflowError):
        kummer_m(1e6, 1.0, 5.0)


def test_kummer_m_long_terminating_series_raises():
    # the Kummer transformation turns M(1e6, 1, -5) into the terminating
    # M(1 - 1e6, 1, 5); both it and M(-1e9, 1, x) are refused before summing
    with pytest.raises(ValueError, match="terms"):
        kummer_m(1e6, 1.0, -5.0)
    with pytest.raises(ValueError, match="terms"):
        kummer_m(-1e9, 1.0, 0.5)
    # the longest series within the limit is still summed
    assert kummer_m(-(SERIES_TERM_LIMIT - 1), 1.0, 0.0) == 1.0


def test_laguerre_routes_refuse_long_polynomials():
    # L_n has n + 1 terms; every route refuses more than the limit before
    # any work, and kummer_u(-n, 1, x) does so before building n!
    for n in (SERIES_TERM_LIMIT, 10**9):
        with pytest.raises(ValueError, match="terms"):
            laguerre(n, 0.5)
        with pytest.raises(ValueError, match="terms"):
            kummer_u(-n, 1.0, 0.5)
    # the longest polynomial within the limit is still evaluated
    assert laguerre(SERIES_TERM_LIMIT - 1, 0.0) == 1.0


def test_kummer_u_polynomial_branch():
    for n in range(6):
        for x in [0.3, 1.0, 4.0, 9.0]:
            got = kummer_u(-n, 1, x)
            ref = ((-1) ** n) * math.factorial(n) * eval_laguerre(n, x)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_kummer_u_log_series_against_scipy():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.uniform(0.1, 3.0)
        x = rng.uniform(0.05, 5.0)
        ref = hyperu(a, 1.0, x)
        got = kummer_u(a, 1.0, x)
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))


# psi(a) and psi(n) from mpmath at 40 digits, rounded to 20
PSI_PINS = [
    (0.3, -3.5025242222001331249),
    (1.4616321449683623, -9.2412655217294275168e-17),
    (2.5, 0.70315664064524318723),
    (10.5, 2.3030010342976863753),
    (-0.7, -2.0739527936287037831),
    (-15.746, -0.27560716295255445705),
    (30.0, 3.3844381326855248766),
]
PSI_INTEGER_PINS = [
    (1, -0.57721566490153286061),
    (2, 0.42278433509846713939),
    (10, 2.2517525890667211076),
    (200, 5.2958152832199116155),
]


def test_psi_pinned_values():
    for a, want in PSI_PINS:
        assert abs(_psi(a) - want) <= 2e-15 * max(1.0, abs(want)), a
    table = _psi_of_integers()
    assert len(table) == SERIES_TERM_LIMIT
    for n, want in PSI_INTEGER_PINS:
        assert abs(table[n - 1] - want) <= 2e-15 * max(1.0, abs(want)), n
        assert _psi(float(n)) == pytest.approx(want, rel=2e-15, abs=2e-15)


def test_kummer_u_pinned_values():
    # U(a, 1, x) from mpmath at 40 digits, rounded to 20, at points where
    # the scipy-digamma route was within 1e-13 too
    for a, x, want in [
        (0.5, 0.1, 1.8471026598870040344),
        (0.3, 1.0, 0.94308485976386767961),
        (2.3, 0.5, 0.27035266572882022941),
        (-0.7, 3.0, 1.8098133522008265049),
        (7.5, 0.25, 6.3107285951335184927e-5),
        (-10.5, 0.4, -1308793.9574137364563),
    ]:
        assert abs(kummer_u(a, 1.0, x) - want) <= 1e-13 * abs(want), (a, x)


def test_kummer_u_contiguous_relation():
    # U(a - 1) + (1 - 2a - x) U(a) + a^2 U(a + 1) = 0 (DLMF 13.3, b = 1);
    # a = 0.75 keeps a - 1 and a + 1 exact in binary
    a, xs = 0.75, np.linspace(0.1, 3.0, 30)
    terms = np.array([
        kummer_u(a - 1.0, 1.0, xs),
        (1.0 - 2.0 * a - xs) * kummer_u(a, 1.0, xs),
        a * a * kummer_u(a + 1.0, 1.0, xs),
    ])
    assert np.all(np.abs(terms.sum(axis=0)) <= 1e-13 * np.abs(terms).max(axis=0))


def test_kummer_u_matches_scipy_digamma_route_on_grid_ops_draws():
    # the route with scipy's digamma for both psi values, on every U table
    # the benchmark draws: neither route refuses a row, and values agree
    # within 5e-10
    drawn = [(dict(params), at) for name, params, at in grid_ops_tables() if name == "kummer-u"]
    assert drawn
    for params, at in drawn:
        lo, hi, count = at.split(":")
        xs = np.linspace(float(lo), float(hi), int(count))
        a, b = params["a"], params.get("b", 1)
        want, error = per_row_table(lambda x: digamma_kummer_u(a, b, x), xs)
        assert error is None, params
        got = kummer_u(a, b, xs)
        assert np.all(np.abs(got - want) <= 5e-10 * np.abs(want)), params


def test_kummer_u_guards():
    with pytest.raises(ValueError):
        kummer_u(0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        kummer_u(0.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        kummer_u(0.5, 1.0, 60.0)
    # deep in the cancellation regime the series must refuse, not lie
    with pytest.raises(ValueError):
        kummer_u(0.3, 1.0, 45.0)


def test_laguerre_against_scipy():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(0, 15)
        x = rng.uniform(0, 50)
        ref = eval_laguerre(n, x)
        assert abs(laguerre(n, x) - ref) < 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_generalized_laguerre_recurrence_against_scipy(alpha):
    # the one recurrence serves floats and numpy arrays alike
    rng = random.Random(89 + alpha)
    for _ in range(100):
        n = rng.randrange(0, 41)
        x = rng.uniform(0, 60)
        ref = eval_genlaguerre(n, alpha, x)
        assert abs(_laguerre(n, alpha, x) - ref) < 1e-10 * max(1.0, abs(ref))
    xs = np.linspace(0.0, 60.0, 241)
    for n in (0, 1, 2, 7, 40):
        ref = eval_genlaguerre(n, alpha, xs)
        got = _laguerre(n, alpha, xs)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_laguerre_coefficients_exact():
    assert laguerre_coefficients(0) == [Fraction(1)]
    assert laguerre_coefficients(1) == [Fraction(1), Fraction(-1)]
    assert laguerre_coefficients(2) == [
        Fraction(1),
        Fraction(-2),
        Fraction(1, 2),
    ]
    for n in range(10):
        coeffs = laguerre_coefficients(n)
        for x in [0.0, 1.5, 7.0]:
            horner = 0.0
            for c in reversed(coeffs):
                horner = horner * x + float(c)
            assert abs(horner - laguerre(n, x)) < 1e-11 * max(
                1.0, abs(laguerre(n, x))
            )


def test_laguerre_validation():
    with pytest.raises(ValueError):
        laguerre(-1, 1.0)


def test_confluent_ode_residuals():
    # x y'' + (b - x) y' - a y = 0 for M; same ODE for U with b = 1
    h = 1e-3

    def residual(fn, a, b, x):
        y0 = fn(x)
        d1 = (fn(x + h) - fn(x - h)) / (2 * h)
        d2 = (fn(x + h) - 2 * y0 + fn(x - h)) / (h * h)
        return x * d2 + (b - x) * d1 - a * y0

    cases_m = [(0.5, 1.5, 2.0), (-3, 2.0, 5.0), (1.2, 0.8, 10.0)]
    for a, b, x in cases_m:
        r = residual(lambda t: kummer_m(a, b, t), a, b, x)
        assert abs(r) < 1e-6 * max(1.0, abs(kummer_m(a, b, x)))
    cases_u = [(0.5, 1.0, 2.0), (1.3, 1.0, 4.0)]
    for a, b, x in cases_u:
        r = residual(lambda t: kummer_u(a, b, t), a, b, x)
        assert abs(r) < 1e-6 * max(1.0, abs(kummer_u(a, b, x)))


def routes(function, params):
    """The one-pass function and its per-row route, each a function of x."""
    if function == "kummer-m":
        return (lambda x: kummer_m(params["a"], params["b"], x),
                lambda x: per_row_kummer_m(params["a"], params["b"], x))
    if function == "kummer-u":
        return (lambda x: kummer_u(params["a"], params.get("b", 1), x),
                lambda x: per_row_kummer_u(params["a"], params.get("b", 1), x))
    return lambda x: laguerre(params["n"], x), lambda x: per_row_laguerre(params["n"], x)


def assert_same_table(function, params, xs):
    """Bit-identical values, or the same error type and text."""
    table, row = routes(function, params)
    want, want_error = per_row_table(row, xs)
    try:
        got, got_error = table(np.asarray(xs, float)), None
    except (ValueError, OverflowError, RuntimeError) as exc:
        got, got_error = None, exc
    assert (type(got_error), str(got_error)) == (type(want_error), str(want_error)), params
    if want is not None:
        assert got.dtype == np.float64 and got.shape == (len(want),)
        assert got.tobytes() == np.array(want).tobytes(), (function, params)
    return got


@lru_cache(maxsize=1)
def grid_ops_tables():
    """The distinct specfun-eval tables the grid-ops benchmark draws at
    seeds 0-39, rounds 0-15, as (function, params, min:max:count)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    tables = set()
    for seed in range(40):
        for index in range(16):
            for op in workloads.grid_ops_round(seed, index, False):
                if isinstance(op, workloads.SpecFun):
                    x = op.argv[op.argv.index("--function") + 2].split("=", 1)[1]
                    tables.add((op.function, tuple(sorted(op.params.items())), x))
    return sorted(tables)


@pytest.mark.parametrize(
    "function, x, least",
    [
        ("kummer-m", "0:20:101", 16),
        ("kummer-m", "-20:20:101", 4000),
        ("kummer-u", "0.1:5:101", 200),
        ("laguerre", "0:30:101", 11),
    ],
)
def test_tables_match_per_row_route_on_grid_ops_draws(function, x, least):
    # every distinct table of the draws, bit for bit
    lo, hi, count = x.split(":")
    xs = np.linspace(float(lo), float(hi), int(count))
    drawn = [dict(params) for name, params, at in grid_ops_tables() if (name, at) == (function, x)]
    assert len(drawn) >= least
    for params in drawn:
        assert_same_table(function, params, xs)


NAN = math.nan
EDGE_TABLES = [
    # a nonpositive integer a with a non-integer b, and a terminating
    # series before its denominator pole
    ("kummer-m", {"a": -3, "b": 2.5}, np.linspace(-10, 10, 21)),
    ("kummer-m", {"a": -2, "b": 0.5}, np.linspace(-50, 50, 11)),
    ("kummer-m", {"a": -5, "b": -7.5}, np.linspace(0, 9, 10)),
    ("kummer-m", {"a": -1, "b": -2}, np.linspace(0, 3, 7)),
    ("kummer-m", {"a": 0, "b": 1}, np.linspace(-5, 5, 6)),
    # a = b + 1: x < 0 reaches the terminating M(-1, b, -x)
    ("kummer-m", {"a": 2.08, "b": 1.08}, np.linspace(-20, 20, 101)),
    ("kummer-m", {"a": 7.5, "b": 6.5}, np.linspace(-10, 0, 11)),
    ("kummer-m", {"a": 7.5, "b": 3.5}, [-7.5]),
    ("kummer-m", {"a": 0.7, "b": 1.3}, np.linspace(-45, 45, 91)),
    # U on its polynomial branch
    ("kummer-u", {"a": 0}, np.linspace(0, 10, 21)),
    ("kummer-u", {"a": -3}, np.linspace(0, 10, 21)),
    ("kummer-u", {"a": -3}, [0, 1e300]),
    ("laguerre", {"n": 0}, np.linspace(0, 1, 5)),
    ("laguerre", {"n": 999}, np.linspace(0, 2, 11)),
    # the first failing row decides, whatever its kind: domain, overflow,
    # the transformed series' length and cancellation on the first, a
    # middle and the last row
    ("kummer-m", {"a": 0.5, "b": 1.5}, [60, 1, 2]),
    ("kummer-m", {"a": 0.5, "b": 1.5}, [1, -60, 2]),
    ("kummer-m", {"a": 0.5, "b": 1.5}, [1, 2, 60]),
    ("kummer-m", {"a": 1e6, "b": 1}, [5, 0, -5]),
    ("kummer-m", {"a": 1e6, "b": 1}, [0, -5, 5]),
    ("kummer-m", {"a": 1e6, "b": 1}, [0, 60, -5]),
    ("kummer-m", {"a": 1e6, "b": 1}, [0, 0, 5]),
    ("kummer-m", {"a": -8, "b": 1e-300}, [0, 0, 50]),
    ("kummer-m", {"a": -8, "b": 1e-300}, [0, 50, 0]),
    ("kummer-m", {"a": -2, "b": 1}, [0, 1e300, 1e-300]),
    ("kummer-m", {"a": 0.5, "b": 1.5}, [1, NAN]),
    ("kummer-m", {"a": -2, "b": 1}, [1, NAN, math.inf]),
    ("kummer-u", {"a": 0.3}, [45, 0, 60]),
    ("kummer-u", {"a": 0.3}, [1, 45, 0]),
    ("kummer-u", {"a": 0.3}, [1, 2, 45]),
    ("kummer-u", {"a": 0.3}, [1, 60, 45]),
    ("kummer-u", {"a": 0.3}, [0, 1, 2]),
    ("kummer-u", {"a": 0.3}, [1, 2, -1]),
    ("kummer-u", {"a": 0.3}, [1, NAN, 45]),
    ("kummer-u", {"a": 1.43, "b": 2}, [1, 2]),
    ("kummer-u", {"a": -1e4}, [1, 2]),
    ("kummer-m", {"a": -1e9, "b": 1}, [0, 1]),
    ("kummer-m", {"a": 0.5, "b": 0}, [0, 1]),
    # single-row tables
    ("kummer-m", {"a": -6, "b": 2}, [7.3]),
    ("kummer-m", {"a": 1.37, "b": 2.11}, [-13.2]),
    ("kummer-m", {"a": 1.37, "b": 2.11}, [13.2]),
    ("kummer-u", {"a": 1.43}, [2.9]),
    ("kummer-u", {"a": 2.3}, [8.97948717948718]),
    ("laguerre", {"n": 7}, [11.5]),
]


@pytest.mark.parametrize("function, params, xs", EDGE_TABLES)
def test_edge_tables_match_per_row_route(function, params, xs):
    values = assert_same_table(function, params, xs)
    if values is not None:
        # a float x gives a float, the table's value at that row
        table, _ = routes(function, params)
        for x, want in zip(xs, values):
            got = table(x)
            assert type(got) is float and got == want


@pytest.mark.parametrize("a", [-1e6 - 0.5, -200.5, -178.5, -177.5, -171.5, 171.7, 172.0, 1e6, NAN])
def test_kummer_u_refuses_a_without_finite_reciprocal_gamma(a):
    # Gamma(a) underflows to -0.0 below -178.5, is subnormal (1/Gamma(a)
    # overflows) from about -177.5 to -171.5, and overflows above 171.6
    with pytest.raises(ValueError, match=f"which a = {a} does not give"):
        kummer_u(a, 1.0, np.array([1.0, 2.0]))
    # a row's own x check still comes first
    with pytest.raises(ValueError, match="requires x > 0"):
        kummer_u(a, 1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="which a"):
        kummer_u(a, 1.0, np.array([1.0, 0.0]))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("function", [kummer_m, kummer_u], ids=["kummer_m", "kummer_u"])
def test_non_finite_parameters_are_refused_first(monkeypatch, function, which, value):
    # one ValueError before any work: kummer_u(inf, 1, x) was nan on every
    # row, kummer_m(1, inf, x) rows of 1, and -inf an OverflowError
    params = {"a": 1.0, "b": 1.0, which: value}
    xs = np.array([0.5, 1.0])
    if function is kummer_u and which == "a" and math.isnan(value):
        # a NaN a keeps its 1/Gamma(a) refusal, which follows each row's x check
        with pytest.raises(ValueError, match="which a = nan does not give"):
            kummer_u(math.nan, 1.0, xs)
        return

    def unreachable(x):
        raise AssertionError("the table was read")

    monkeypatch.setattr(phaseq.confluent, "_column", unreachable)
    with pytest.raises(ValueError, match="^a and b must be finite, got "):
        function(params["a"], params["b"], xs)
