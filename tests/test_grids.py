import gc
import tracemalloc

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
    roll_fd_derivative,
    row_by_row_field_csv,
    spinor_wigner_sum,
    three_pass_grid_star,
    two_pass_grid_star,
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


def test_axis_refuses_a_spacing_whose_nyquist_square_overflows():
    # (pi/h)^2 is 9.9e306 at h = 1e-153 and overflows at h = 1e-155; a
    # spacing that underflows to 0 is refused the same way
    Axis("q", 8, -4e-153, 4e-153)
    for lo, hi in ((-4e-155, 4e-155), (0.0, 5e-324)):
        with pytest.raises(ValueError, match="too fine"):
            Axis("q", 8, lo, hi)


def test_inner_product_refuses_a_cell_volume_outside_the_normal_floats():
    # 8 points on [-box, box) per axis: the volume is (box/4)^4, and a
    # field that is 1 at one point has that volume as its squared norm
    def point_field(box):
        spec = landau_grid(8, box)
        values = np.zeros(spec.shape)
        values[0, 0, 0, 0] = 1.0
        return Field(spec, values)

    for box, volume in ((4e-76, 1e-304), (4e77, 1e308)):
        f = point_field(box)
        assert inner_product(f, f) == pytest.approx(volume)
    for box in (1e150, 1e-100, 4e-77):
        f = point_field(box)
        with pytest.raises(ValueError, match="cell volume"):
            inner_product(f, f)


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


def random_field(shape, seed):
    axes = [Axis(f"x{i}", n, -1.5 - i, 2.0 + 0.5 * i) for i, n in enumerate(shape)]
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(GridSpec(axes, pairs=[]), values)


@pytest.mark.parametrize("shape", [(64, 64), (9, 12), (9, 9, 9, 9), (16, 16, 16, 16)])
def test_fd_derivative_matches_roll_stencil(shape):
    # the Fourier multiplier is the circulant stencil itself, so the two
    # routes differ only by rounding, on every axis, odd n included
    f = random_field(shape, seed=sum(shape))
    for axis in range(len(shape)):
        for order in (1, 2):
            ref = roll_fd_derivative(f, axis, order).values
            got = fd_derivative(f, axis, order).values
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_derivatives_refuse_a_bad_axis_or_order():
    f = random_field((9, 12), seed=3)
    for axis in (-1, 2):
        for derivative in (fd_derivative, fourier_derivative):
            with pytest.raises(ValueError, match="axis out of range"):
                derivative(f, axis)
    for order in (0, 3):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            fd_derivative(f, 0, order)


def test_fd_derivative_is_one_fft_pair(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    f = random_field((9, 12), seed=1)
    for axis in (0, 1):
        for order in (1, 2):
            calls.clear()
            fd_derivative(f, axis, order)
            assert sorted(calls) == ["fft", "ifft"]


def test_fd_derivative_works_in_place():
    # a call holds its spectrum and little else; the roll route holds its
    # sum, a shifted copy and a scaled one, over twice the field
    f = random_field((16, 16, 16, 16), seed=2)

    def peak(derivative):
        tracemalloc.start()
        try:
            derivative(f, 2, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(fd_derivative) < 1.5 * f.values.nbytes
    assert peak(roll_fd_derivative) > 2 * f.values.nbytes


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


def refuses_unpaired(f, g):
    # an unpaired grid has no star product to take, as a reloaded dump shows,
    # so the no-pairs row checks the refusal instead of an oracle
    if f.spec.pairs:
        return False
    with pytest.raises(ValueError, match="at least one \\(q, p\\) axis pair"):
        grid_star(f, g)
    return True


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
    if refuses_unpaired(f, g):
        return
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
    if refuses_unpaired(f, g):
        return
    want = three_pass_grid_star(f, g).values
    got = grid_star(f, g).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sizes, pairs", GRID_STAR_CASES, ids=GRID_STAR_IDS)
def test_grid_star_matches_two_pass_oracle(sizes, pairs):
    # with at most one pair the arithmetic is the replaced route's; two
    # pairs transform one p axis at a time, so only the low bits may move
    spec = GridSpec(
        [Axis(f"a{i}", n, -2.0 - i, 3.0 + 0.5 * i) for i, n in enumerate(sizes)],
        pairs=pairs,
    )
    rng = np.random.default_rng(2)
    f, g = (
        Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        for _ in range(2)
    )
    if refuses_unpaired(f, g):
        return
    want = two_pass_grid_star(f, g).values
    got = grid_star(f, g).values
    if len(pairs) < 2:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("pairs", [[(0, 2, -1), (1, 3, -1)], [(0, 1, 1)]], ids=["two", "one"])
def test_grid_star_leaves_no_reference_cycle(pairs):
    # a cycle would keep the factors' transforms alive until the cyclic
    # collector runs
    spec = GridSpec([Axis(f"a{i}", 8, -3.0, 3.0) for i in range(4)], pairs=pairs)
    amp = Field.from_function(spec, lambda a, b, c, d: np.exp(-(a * a + b * b + c * c + d * d)))
    conj = amp.conjugate()
    gc.collect()
    gc.disable()
    try:
        grid_star(amp, conj)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize(
    "sizes, pairs",
    [([8, 8], [(0, 1, 1)]), ([4, 5, 6], [(1, 2, -1)]), ([4, 4, 4, 4], [(0, 2, -1), (1, 3, -1)])],
    ids=["2d", "3d", "landau-4d"],
)
def test_reloaded_dump_has_no_pairs(tmp_path, sizes, pairs):
    # a version-1 file does not record its pairs, so none are guessed on
    # reading and grid_star refuses the reloaded field
    spec = GridSpec([Axis(f"a{i}", n, -1.0, 1.0) for i, n in enumerate(sizes)], pairs=pairs)
    path = tmp_path / "field.bin"
    write_field_binary(Field(spec, np.ones(spec.shape)), path)
    back = read_field_binary(path)
    assert back.spec.pairs == ()
    assert back.spec.shape == spec.shape
    with pytest.raises(ValueError, match="at least one"):
        grid_star(back, back)


@pytest.mark.parametrize("keep", [5, 8, 27, 8 + 20 + 19])
def test_binary_header_cut_short_is_a_value_error(tmp_path, keep):
    # cut inside the version and axis count, after it, and inside each axis record
    spec = qp_spec(4, 1.0)
    path = tmp_path / "field.bin"
    write_field_binary(Field(spec, np.ones(spec.shape)), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="header cut short"):
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


def _compose(field, indices):
    """field∘T for a map T that permutes the grid points: indices(ix, iy, ipx,
    ipy) gives the index tuple of T(z) for the point z with those indices."""
    return Field(field.spec, field.values[indices(*np.indices(field.spec.shape))])


@pytest.mark.parametrize("seed", range(4))
def test_grid_star_is_covariant_under_a_symplectic_map(seed):
    # T: (x, y, px, py) -> (y, -x, py, -px) keeps dx^dpx + dy^dpy and swaps
    # the two pairs, so (f∘T) * (g∘T) = (f * g)∘T; on the periodic landau
    # grid -x is the point with index -i mod n, so T permutes the points
    spec = landau_grid(8, 3.0)
    n = spec.shape[0]
    rng = np.random.default_rng(seed)
    f, g = (
        bandlimit(Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)))
        for _ in range(2)
    )
    want = grid_star(f, g)
    scale = want.max_abs()

    def symplectic(ix, iy, ipx, ipy):
        return iy, -ix % n, ipy, -ipx % n

    def mirror(ix, iy, ipx, ipy):  # x -> -x alone reverses dx^dpx
        return -ix % n, iy, ipx, ipy

    got = grid_star(_compose(f, symplectic), _compose(g, symplectic))
    assert np.max(np.abs(got.values - _compose(want, symplectic).values)) <= 1e-13 * scale
    got = grid_star(_compose(f, mirror), _compose(g, mirror))
    assert np.max(np.abs(got.values - _compose(want, mirror).values)) > 0.1 * scale
