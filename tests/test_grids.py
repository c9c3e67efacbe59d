import numpy as np
import pytest

from phaseq import (
    Axis,
    Field,
    GridSpec,
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

from phaseq.landau import LandauParams, landau_amplitude, landau_grid

from oracles import (
    gaussian_qp_star,
    mode_shift_star,
    quadrature_star,
    row_by_row_field_csv,
    spinor_wigner_sum,
    three_pass_grid_star,
)


def qp_spec(n=64, half=8.0):
    return GridSpec([Axis("q", n, -half, half), Axis("p", n, -half, half)])


def test_axis_and_spec_validation():
    with pytest.raises(ValueError):
        Axis("q", 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        Axis("q", 8, 1.0, 1.0)
    for lo, hi in ((-1e307, 1e307), (-1e200, 0.0), (0.0, 1.5e154)):
        with pytest.raises(ValueError, match="finite squares"):
            Axis("q", 8, lo, hi)
    Axis("q", 8, -1e154, 1e154)
    with pytest.raises(ValueError):
        GridSpec([Axis("q", 8, 0.0, 1.0)])
    with pytest.raises(ValueError):
        GridSpec(
            [Axis("q", 512, -1, 1), Axis("p", 512, -1, 1), Axis("r", 512, -1, 1)]
        )


def test_field_arithmetic_and_nan_guard():
    spec = qp_spec(8)
    f = Field.from_function(spec, lambda q, p: q + p)
    g = Field.from_function(spec, lambda q, p: q * p)
    assert np.allclose((f + g).values, f.values + g.values)
    assert np.allclose((f - g).values, f.values - g.values)
    assert np.allclose((2.0 * f).values, 2.0 * f.values)
    bad = np.ones(spec.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(spec, bad)


def test_fourier_derivative_of_gaussian():
    spec = qp_spec(128, 10.0)
    f = Field.from_function(spec, lambda q, p: np.exp(-(q * q + p * p) / 2))
    d1 = fourier_derivative(f, 0)
    Q, P = spec.meshgrid()
    expected = -Q * f.values
    assert np.max(np.abs(d1.values - expected)) < 1e-12
    d2 = fourier_derivative(fourier_derivative(f, 1), 1)
    expected2 = (P * P - 1.0) * f.values
    assert np.max(np.abs(d2.values - expected2)) < 1e-11


def test_fd_derivative_matches_spectral():
    spec = qp_spec(128, 10.0)
    f = Field.from_function(spec, lambda q, p: np.exp(-(q * q + p * p) / 2))
    for axis in (0, 1):
        for order in (1, 2):
            a = fd_derivative(f, axis, order).values
            b = fourier_derivative(f, axis)
            if order == 2:
                b = fourier_derivative(b, axis)
            assert np.max(np.abs(a - b.values)) < 1e-6


def test_grid_star_against_closed_form_oracle():
    s = 4.0
    spec = qp_spec(64, 8.0)
    f = Field.from_function(spec, lambda q, p: q * np.exp(-(q * q + p * p) / s))
    g = Field.from_function(spec, lambda q, p: p * np.exp(-(q * q + p * p) / s))
    fg = grid_star(f, g)
    qs = spec.axes[0].points()
    ps = spec.axes[1].points()
    for i in (24, 32, 40):
        for j in (28, 32, 36):
            ref = gaussian_qp_star(qs[i], ps[j], s)
            assert abs(fg.values[i, j] - ref) < 1e-9


def test_grid_star_against_quadrature_oracle():
    s = 4.0
    w = lambda q, p: np.exp(-(q * q + p * p) / s)
    spec = qp_spec(64, 8.0)
    f = Field.from_function(spec, lambda q, p: (q + 0.2 * p * p) * w(q, p))
    g = Field.from_function(spec, lambda q, p: (p - 0.1 * q) * w(q, p))
    fg = grid_star(f, g)
    qs = spec.axes[0].points()
    ps = spec.axes[1].points()
    for i, j in [(32, 32), (36, 28)]:
        ref = quadrature_star(
            lambda a, b: (a + 0.2 * b * b) * w(a, b),
            lambda a, b: (b - 0.1 * a) * w(a, b),
            qs[i],
            ps[j],
        )
        assert abs(fg.values[i, j] - ref) < 1e-8


def test_grid_star_identity_element():
    spec = qp_spec(32, 6.0)
    one = Field(spec, np.ones(spec.shape))
    f = Field.from_function(spec, lambda q, p: np.exp(-(q * q + p * p)))
    left = grid_star(one, f)
    right = grid_star(f, one)
    fb = bandlimit(f)
    assert np.max(np.abs(left.values - fb.values)) < 1e-12
    assert np.max(np.abs(right.values - fb.values)) < 1e-12


def test_grid_star_unpaired_axis_is_plain_product():
    # an axis in no pair commutes, so the star acts slice by slice along it
    axes = [Axis("q", 16, -5, 5), Axis("p", 16, -5, 5), Axis("z", 4, -1, 1)]
    spec3 = GridSpec(axes, pairs=[(0, 1, 1)])
    spec2 = GridSpec(axes[:2])
    f = Field.from_function(
        spec3, lambda q, p, z: (q + 0.5j * p + z) * np.exp(-(q * q + p * p) / 2)
    )
    g = Field.from_function(
        spec3, lambda q, p, z: (p - 0.2j * z * q) * np.exp(-(q * q + p * p) / 3)
    )
    out = grid_star(f, g)
    fb, gb = bandlimit(f), bandlimit(g)
    for k in range(4):
        want = grid_star(
            Field(spec2, fb.values[:, :, k]), Field(spec2, gb.values[:, :, k])
        )
        assert np.max(np.abs(out.values[:, :, k] - want.values)) < 1e-12


GRID_STAR_CASES = [
    ([16, 16], [(0, 1, 1)]),
    ([15, 13], [(0, 1, 1)]),
    ([16, 12], [(0, 1, -1)]),
    ([12, 16], [(1, 0, 1)]),
    ([5, 12, 12], [(1, 2, 1)]),
    ([12, 11, 4], [(0, 1, -1)]),
    ([10, 9], []),
    ([8, 8, 8, 8], [(0, 2, -1), (1, 3, -1)]),
    ([8, 7, 6, 8], [(3, 0, 1), (1, 2, -1)]),
]
GRID_STAR_IDS = [
    "even", "odd", "sign-minus", "p-before-q", "unpaired-first",
    "unpaired-last", "no-pairs", "landau-4d", "crossed-4d",
]


@pytest.mark.parametrize("sizes, pairs", GRID_STAR_CASES, ids=GRID_STAR_IDS)
def test_grid_star_matches_mode_shift_oracle(sizes, pairs):
    spec = GridSpec(
        [Axis(f"a{i}", n, -2.0 - i, 3.0 + 0.5 * i) for i, n in enumerate(sizes)],
        pairs=pairs,
    )
    rng = np.random.default_rng(0)
    f, g = (
        Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        for _ in range(2)
    )
    want = mode_shift_star(f, g).values
    got = grid_star(f, g).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "sizes, pairs",
    GRID_STAR_CASES + [([128, 128], [(0, 1, 1)])],
    ids=GRID_STAR_IDS + ["random-128"],
)
def test_grid_star_matches_three_pass_oracle(sizes, pairs):
    spec = GridSpec(
        [Axis(f"a{i}", n, -2.0 - i, 3.0 + 0.5 * i) for i, n in enumerate(sizes)],
        pairs=pairs,
    )
    rng = np.random.default_rng(1)
    f, g = (
        Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        for _ in range(2)
    )
    want = three_pass_grid_star(f, g).values
    got = grid_star(f, g).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_gaussian_idempotence():
    # exp(-(q^2+p^2)) is (pi times) a pure-state Wigner function and is
    # idempotent under the star product up to the known 1/2 factor
    spec = qp_spec(64, 8.0)
    f = Field.from_function(spec, lambda q, p: np.exp(-(q * q + p * p)))
    ff = grid_star(f, f)
    assert np.max(np.abs(ff.values - 0.5 * f.values)) < 1e-12


def test_wigner_realness_scalar_and_spinor():
    spec = qp_spec(64, 8.0)
    amp = Field.from_function(spec, lambda q, p: (q + 1j * p) * np.exp(-(q * q + p * p) / 2))
    fw = wigner_from_amplitude(amp)
    assert np.max(np.abs(fw.values.imag)) < 1e-12 * fw.max_abs()
    zero = Field.zeros(spec)
    fw4 = spinor_wigner_sum([amp, zero, -1 * amp, zero])
    assert np.array_equal(fw4.values, (2 * fw).values)
    assert np.max(np.abs(fw4.values.imag)) < 1e-12 * fw4.max_abs()


def test_wigner_trace_equals_norm():
    spec = qp_spec(64, 8.0)
    amp = Field.from_function(spec, lambda q, p: np.exp(-(q * q + p * p) / 3))
    fw = wigner_from_amplitude(amp)
    ones = Field(spec, np.ones(spec.shape))
    trace = inner_product(ones, fw).real
    amp_b = bandlimit(amp)
    norm2 = inner_product(amp_b, amp_b).real
    assert abs(trace - norm2) < 1e-12 * norm2


def test_kg_two_route_convergence():
    p_values = (0.7, 0.3)
    results = {}
    for n in (64, 128):
        spec = GridSpec([Axis("q0", n, -9, 9), Axis("q1", n, -9, 9)])
        phi = Field.from_function(
            spec, lambda a, b: np.exp(-(a * a + b * b) / 4)
        )
        report = kg_two_route_check(phi, p_values, 1.0)
        results[n] = report.relative_discrepancy
    assert results[128] < 1e-8
    assert results[64] / results[128] > 10


def test_kg_input_validation():
    spec = GridSpec(
        [Axis("a", 8, -1, 1), Axis("b", 8, -1, 1), Axis("c", 8, -1, 1), Axis("d", 8, -1, 1)]
    )
    phi = Field(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        kg_two_route_check(phi, (1.0, 0.0), 1.0)
    # a Gaussian that underflows to zero everywhere would pass vacuously
    spec = GridSpec([Axis("q0", 8, 1000.0, 2000.0), Axis("q1", 8, 1000.0, 2000.0)])
    phi = Field.from_function(spec, lambda a, b: np.exp(-(a * a + b * b) / 4.0))
    with pytest.raises(ValueError, match="zero at every grid point"):
        kg_two_route_check(phi, (0.7, 0.3), 1.0)
    tiny = np.zeros(spec.shape)
    tiny[0, 0] = 1e-300
    assert kg_two_route_check(Field(spec, tiny), (0.7, 0.3), 1.0).scale > 0


def test_binary_roundtrip(tmp_path):
    spec = qp_spec(16, 2.0)
    f = Field.from_function(spec, lambda q, p: np.exp(1j * q) * np.cos(p))
    path = tmp_path / "field.bin"
    write_field_binary(f, path)
    g = read_field_binary(path)
    assert g.spec.shape == f.spec.shape
    assert [ax.name for ax in g.spec.axes] == ["axis0", "axis1"]
    assert np.max(np.abs(g.values - f.values)) == 0.0
    raw = path.read_bytes()
    assert raw[:4] == b"SDEQ"


def test_binary_roundtrip_keeps_signed_zeros(tmp_path):
    spec = qp_spec(4, 1.0)
    values = np.ones(spec.shape, dtype=complex)
    values.flat[:4] = [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0), 0j]
    f = Field(spec, values)
    path = tmp_path / "field.bin"
    write_field_binary(f, path)
    g = read_field_binary(path)
    assert g.values.tobytes() == f.values.tobytes()
    assert path.read_bytes()[-g.values.nbytes:] == f.values.astype("<c16").tobytes()


@pytest.mark.parametrize("delta", [-8, 8])
def test_binary_payload_length_checked(tmp_path, delta):
    spec = qp_spec(4, 1.0)
    path = tmp_path / "field.bin"
    write_field_binary(Field(spec, np.ones(spec.shape)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:delta] if delta < 0 else raw + b"\0" * delta)
    with pytest.raises(ValueError, match=f"payload has {256 + delta} bytes, expected 256"):
        read_field_binary(path)


def test_csv_header_and_precision(tmp_path):
    spec = qp_spec(4, 1.0)
    f = Field.from_function(spec, lambda q, p: q + 1j * p)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "q,p,re,im"
    assert len(lines) == 1 + 16
    value = float(lines[1].split(",")[2])
    assert value == f.values[0, 0].real


_SPECIAL_VALUES = np.array([-0.0, 1e-310, 1e300, -1e300, 0.1])


def _csv_fields():
    rng = np.random.default_rng(5)

    def noisy(spec):
        values = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        flat = values.ravel()
        flat[: _SPECIAL_VALUES.size] = _SPECIAL_VALUES + 1j * _SPECIAL_VALUES[::-1]
        return Field(spec, values)

    odd_three = GridSpec(
        [Axis("q", 7, -1.3, 2.9), Axis("t", 5, 0.1, 0.7), Axis("p", 6, -3.0, -0.2)],
        pairs=[(0, 2, -1)],
    )
    gaussian = Field.from_function(
        qp_spec(8, 2.5), lambda q, p: np.exp(-(q * q + p * p) + 0.3j * q)
    )
    landau_spec = landau_grid(6, 2.0)
    return {
        "paired-2d-even": noisy(qp_spec(8, 1.0)),
        "paired-2d-odd": noisy(
            GridSpec([Axis("q", 5, -0.7, 1.1), Axis("p", 9, -2.2, -0.3)])
        ),
        "one-pair-3d-odd": noisy(odd_three),
        "landau-4d": landau_amplitude(1, LandauParams(eB=1.0), landau_spec),
        "landau-4d-noise": noisy(landau_grid(5, 1.7)),
        "wigner": wigner_from_amplitude(gaussian),
    }


@pytest.mark.parametrize("name", sorted(_csv_fields()))
def test_csv_bytes_match_row_by_row_oracle(tmp_path, name):
    f = _csv_fields()[name]
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_field_csv(f, fast)
    row_by_row_field_csv(f, slow)
    assert fast.read_bytes() == slow.read_bytes()
