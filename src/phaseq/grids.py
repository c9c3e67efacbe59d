"""Sampled phase-space fields on uniform grids.

Provides Fourier and eighth-order finite-difference derivatives, each
applied along one axis as a Fourier multiplier in one FFT pair per call
(ik for the spectral one; for the finite difference, the stencil's exact
symbol, since on a periodic axis the stencil is a circulant matrix), L2
inner products, a numerical star product that is exact for band-limited
fields (the twisted convolution in the mixed q-Fourier/p representation:
per q-mode of one factor, one transform of each factor along each p axis,
with f's transform along an outer p axis shared by the inner q-modes,
summed in q-Fourier space with a q-mode shift, then one inverse q
transform, at O(N_q N log N) for N grid points and N_q modes on the q
axes), the Wigner function of a scalar amplitude (one grid star; a
spinor's is a sum of these), and a two-route grid check of the
phase-space Klein-Gordon operator.
"""

from __future__ import annotations

import csv
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Axis",
    "GridSpec",
    "Field",
    "inner_product",
    "fourier_derivative",
    "fd_derivative",
    "grid_star",
    "bandlimit",
    "wigner_from_amplitude",
    "KGReport",
    "kg_two_route_check",
    "write_field_csv",
    "write_field_binary",
    "read_field_binary",
]

MAX_TOTAL_POINTS = 2**21
_MAGIC = b"SDEQ"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Axis:
    """One uniform periodic grid axis: n points from lo, excluding hi."""

    name: str
    n: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"axis {self.name!r} needs n >= 4, got {self.n}")
        if not self.hi > self.lo:
            raise ValueError(f"axis {self.name!r} needs max > min")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"axis {self.name!r} needs a finite max - min")
        if not math.isfinite(max(self.lo * self.lo, self.hi * self.hi)):
            raise ValueError(f"axis {self.name!r} needs min and max with finite squares")
        h = self.spacing
        if not (h > 0 and math.isfinite((math.pi / h) * (math.pi / h))):
            raise ValueError(f"axis {self.name!r} is too fine: (pi/h)^2 overflows a float")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    def points(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Angular frequencies of the discrete Fourier modes on this axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)


class GridSpec:
    """A 2- to 4-axis uniform grid with optional (q, p) axis pairing.

    ``pairs`` lists (q_axis_index, p_axis_index, sign) triples used by the
    star product; sign is the metric factor g^{mumu} of that coordinate
    pair (+1 or -1). When omitted, consecutive axes are paired with sign
    +1: (0, 1), (2, 3), ...
    """

    def __init__(self, axes, pairs=None):
        self.axes = tuple(axes)
        if not 2 <= len(self.axes) <= 4:
            raise ValueError("GridSpec supports 2 to 4 axes")
        total = 1
        for ax in self.axes:
            total *= ax.n
        if total > MAX_TOTAL_POINTS:
            raise ValueError(
                f"grid has {total} points, budget is {MAX_TOTAL_POINTS}"
            )
        if pairs is None:
            if len(self.axes) % 2:
                raise ValueError("odd axis count requires explicit pairs")
            pairs = [
                (i, i + 1, 1) for i in range(0, len(self.axes), 2)
            ]
        norm_pairs = []
        seen = set()
        for qi, pi, sign in pairs:
            if sign not in (1, -1):
                raise ValueError("pair sign must be +1 or -1")
            if qi == pi or not (0 <= qi < len(self.axes)) or not (
                0 <= pi < len(self.axes)
            ):
                raise ValueError(f"bad axis pair ({qi}, {pi})")
            if qi in seen or pi in seen:
                raise ValueError("axis appears in more than one pair")
            seen.update((qi, pi))
            norm_pairs.append((qi, pi, sign))
        self.pairs = tuple(norm_pairs)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n for ax in self.axes)

    @property
    def total_points(self) -> int:
        return int(np.prod(self.shape))

    def meshgrid(self) -> list:
        return list(
            np.meshgrid(*[ax.points() for ax in self.axes], indexing="ij")
        )

    def cell_volume(self) -> float:
        v = 1.0
        for ax in self.axes:
            v *= ax.spacing
        return v

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.axes == other.axes
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.axes, self.pairs))

    def __repr__(self):
        axes = ", ".join(
            f"{ax.name}:{ax.n}:[{ax.lo},{ax.hi}]" for ax in self.axes
        )
        return f"GridSpec({axes})"


class Field:
    """Complex samples on a GridSpec, row-major in axis order."""

    def __init__(self, spec: GridSpec, values):
        self.spec = spec
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != spec.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid {spec.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite samples")
        self.values = values

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "Field":
        """Sample ``fn`` (vectorized over coordinate arrays) on the grid."""
        return cls(spec, fn(*spec.meshgrid()))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "Field":
        return cls(spec, np.zeros(spec.shape, dtype=np.complex128))

    def _check(self, other: "Field"):
        if self.spec != other.spec:
            raise ValueError("grid spec mismatch")

    def __add__(self, other):
        self._check(other)
        return Field(self.spec, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.spec, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, Field):
            self._check(other)
            return Field(self.spec, self.values * other.values)
        return Field(self.spec, self.values * other)

    __rmul__ = __mul__

    def conjugate(self) -> "Field":
        return Field(self.spec, np.conj(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def bandlimit(f: Field) -> Field:
    """Project out the Nyquist mode on every even-sized axis.

    Fractional translations of the Nyquist mode are ill-defined (its
    wavenumber sign is ambiguous), so grid_star operates on this
    projection of its inputs; apply it explicitly when an oracle needs
    the exact field the star product acts on.
    """
    spectrum = np.fft.fftn(f.values)
    for axis, ax in enumerate(f.spec.axes):
        if ax.n % 2 == 0:
            cut = [slice(None)] * spectrum.ndim
            cut[axis] = ax.n // 2
            spectrum[tuple(cut)] = 0.0
    return Field(f.spec, np.fft.ifftn(spectrum))


def inner_product(f: Field, g: Field) -> complex:
    """Quadrature of integral conj(f) * g by the rectangle rule, which is
    spectrally accurate on the periodic axes."""
    f._check(g)
    volume = f.spec.cell_volume()
    if not sys.float_info.min <= volume <= sys.float_info.max:
        raise ValueError(f"grid cell volume {volume!r} is not a normal positive float")
    return complex(np.sum(np.conj(f.values) * g.values * volume))


def _apply_multiplier(f: Field, axis: int, mult: np.ndarray) -> Field:
    """Multiply f's spectrum along one axis by ``mult`` (one value per mode).

    One forward and one inverse FFT along the axis; the multiply and the
    inverse transform work in the spectrum's own buffer, so a call holds
    about one field-sized array beyond its input.
    """
    shape = [1] * f.values.ndim
    shape[axis] = mult.size
    spectrum = np.fft.fft(f.values, axis=axis)
    spectrum *= mult.reshape(shape)
    return Field(f.spec, np.fft.ifft(spectrum, axis=axis, out=spectrum))


def _axis(f: Field, axis: int) -> Axis:
    if not 0 <= axis < len(f.spec.axes):
        raise ValueError("axis out of range")
    return f.spec.axes[axis]


def fourier_derivative(f: Field, axis: int) -> Field:
    """Spectral first derivative along one axis; exact for band-limited fields."""
    return _apply_multiplier(f, axis, 1j * _axis(f, axis).wavenumbers())


# 8th-order central difference coefficients for first and second derivatives
_FD1_W = (
    (4, -1.0 / 280), (3, 4.0 / 105), (2, -1.0 / 5), (1, 4.0 / 5),
    (-1, -4.0 / 5), (-2, 1.0 / 5), (-3, -4.0 / 105), (-4, 1.0 / 280),
)
_FD2_W = (
    (0, -205.0 / 72),
    (1, 8.0 / 5), (-1, 8.0 / 5),
    (2, -1.0 / 5), (-2, -1.0 / 5),
    (3, 8.0 / 315), (-3, 8.0 / 315),
    (4, -1.0 / 560), (-4, -1.0 / 560),
)


def fd_derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Eighth-order central finite difference with periodic wraparound.

    On a periodic axis of n points the stencil sum_j w_j f(x + j h) / h^order
    is a circulant matrix, so it is applied as its exact Fourier multiplier,
    sum_j w_j e^{i j theta} / h^order at theta = 2 pi m / n for mode m, in
    one FFT pair along the axis.
    """
    ax = _axis(f, axis)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    theta = 2.0 * np.pi * np.fft.fftfreq(ax.n)
    weights = _FD1_W if order == 1 else _FD2_W
    symbol = sum(w * np.exp(1j * offset * theta) for offset, w in weights)
    return _apply_multiplier(f, axis, symbol / ax.spacing**order)


def grid_star(f: Field, g: Field) -> Field:
    """Numerical star product in the mixed representation.

    Both factors are band-limited, then Fourier-transformed along every
    paired axis. With f_a(p) and g_c(p) the q-mode coefficients of the two
    factors, a pair (q, p, sigma) gives the twisted convolution

        h(q, p) = sum_{a,c} exp(i(a+c)(q-lo)) f_a(p + sigma c/2) g_c(p - sigma a/2),

    where both p translations are pure phases in p-Fourier space, so the
    result is exact for band-limited fields. Each translation is one phase
    factor per pair, so each p axis is transformed on its own. The pair
    with the later p axis is the inner one: for each q-mode c of g, f and
    g are transformed along its p axis (the faster stride) once each.
    With two pairs, f's transform along the outer p axis depends only on
    the outer component of c and is shared by every inner q-mode, and g's
    runs on the slice g_c times the outer twist, 1/n_q(inner) of the grid.
    The product, still indexed by the q-mode a of f, is shifted to the
    output q-mode a + c and summed, and one inverse q transform closes the
    sum. That is O(N_q N log N) in all for N grid points and N_q q-modes.
    An axis in no pair is never transformed, so the product is plain along
    it. A grid with no pair at all, as a reloaded dump has, is refused.
    """
    f._check(g)
    spec = f.spec
    if not spec.pairs:
        raise ValueError("grid_star needs a grid with at least one (q, p) axis pair")
    ndim = len(spec.axes)
    pairs = sorted(spec.pairs, key=lambda pair: pair[1])
    q_axes = tuple(qi for qi, _, _ in pairs)
    p_axes = tuple(pi for _, pi, _ in pairs)
    q_shape = tuple(spec.axes[qi].n for qi in q_axes)
    # at most one outer pair: a grid has at most 4 axes
    *outer, (qi, pi, s) = pairs

    def along(axis, values):
        shape = [1] * ndim
        shape[axis] = values.size
        return values.reshape(shape)

    # per-axis wavenumbers, broadcastable over the grid
    k = [along(axis, ax.wavenumbers()) for axis, ax in enumerate(spec.axes)]

    fhat = np.fft.fftn(bandlimit(f).values, axes=q_axes + p_axes)
    ghat = np.fft.fftn(bandlimit(g).values, axes=q_axes + p_axes)
    # one twist per pair shifts g_c by -sigma a/2 along its p axis for
    # every q-mode a of f
    outer_twists = [np.exp(-0.5j * (so * k[qo] * k[po])) for qo, po, so in outer]
    twist = np.exp(-0.5j * (s * k[qi] * k[pi]))
    acc = np.zeros(spec.shape, dtype=np.complex128)
    pick = [slice(None)] * ndim
    for c_outer in np.ndindex(*q_shape[:-1]):
        f_outer = fhat
        for (qo, po, so), co in zip(outer, c_outer):
            pick[qo] = slice(co, co + 1)
            f_outer = np.fft.ifft(
                f_outer * np.exp(0.5j * (so * k[qo].flat[co] * k[po])), axis=po
            )
        for ci in range(q_shape[-1]):
            pick[qi] = slice(ci, ci + 1)
            g_outer = ghat[tuple(pick)]
            for (qo, po, so), outer_twist in zip(outer, outer_twists):
                g_outer = np.fft.ifft(g_outer * outer_twist, axis=po)
            fs = np.fft.ifft(f_outer * np.exp(0.5j * (s * k[qi].flat[ci] * k[pi])), axis=pi)
            gs = np.fft.ifft(g_outer * twist, axis=pi)
            # exp(i kappa_c (q - lo)) moves q-mode a to a + c on the grid
            acc += np.roll(fs * gs, c_outer + (ci,), axis=q_axes)
    return Field(spec, np.fft.ifftn(acc, axes=q_axes) / np.prod(q_shape))


def wigner_from_amplitude(psi: Field) -> Field:
    """Wigner function f_W = psi (star) conj(psi) of a scalar amplitude.

    A spinor's Hermitian Wigner function is the sum of this over its
    components; wigner_landau's spinor reduces to twice one term.
    """
    return grid_star(psi, psi.conjugate())


@dataclass(frozen=True)
class KGReport:
    """Outcome of the two-route Klein-Gordon operator comparison."""

    route_discrepancy: float
    residual_max: float
    scale: float

    @property
    def relative_discrepancy(self) -> float:
        return self.route_discrepancy / self.scale if self.scale else 0.0


def kg_two_route_check(
    phi: Field, p_values, mass: float, metric_signs=(1, -1)
) -> KGReport:
    """Apply the phase-space Klein-Gordon operator two independent ways.

    ``phi`` lives on a 2D grid over (q0, q1); ``p_values`` are the two
    momentum parameters (upper components) and ``metric_signs`` the
    diagonal metric entries for those directions. Route A expands the
    operator into p.p - i p^mu d_mu - (1/4) d^2 and evaluates every
    derivative with 8th-order finite differences (the stencil applied as
    its exact Fourier multiplier, one FFT pair per call); route B iterates the
    first-order multiply-and-differentiate form with spectral
    derivatives. The two routes are algebraically identical, so their
    discrepancy measures pure discretization error. A field that is zero
    at every point is a ValueError, since both routes would give zero.
    """
    if len(phi.spec.axes) != 2:
        raise ValueError("kg_two_route_check expects a 2D field")
    if len(p_values) != 2 or len(metric_signs) != 2:
        raise ValueError("need two momentum values and two metric signs")
    if not np.any(phi.values):
        raise ValueError("phi is zero at every grid point; the two routes would agree vacuously")
    p = [float(v) for v in p_values]
    g = [int(s) for s in metric_signs]
    pp = sum(g[mu] * p[mu] * p[mu] for mu in range(2))

    # route A: expanded second-order operator, finite differences
    route_a = pp * phi.values
    for mu in range(2):
        d1 = fd_derivative(phi, mu, 1).values
        d2 = fd_derivative(phi, mu, 2).values
        route_a = route_a - 1j * p[mu] * d1 - 0.25 * g[mu] * d2

    # route B: nested first-order form, spectral derivatives
    def first_order(h: Field, mu: int) -> Field:
        # p^mu star h = p^mu h - (i/2) g^mumu dh/dq^mu
        d = fourier_derivative(h, mu)
        return Field(h.spec, p[mu] * h.values - 0.5j * g[mu] * d.values)

    route_b = np.zeros_like(phi.values)
    for mu in range(2):
        route_b = route_b + g[mu] * first_order(first_order(phi, mu), mu).values

    scale = float(np.max(np.abs(route_b)))
    discrepancy = float(np.max(np.abs(route_a - route_b)))
    residual = float(np.max(np.abs(route_a - mass * mass * phi.values)))
    return KGReport(discrepancy, residual, scale)


# ---------------------------------------------------------------------------
# serialization


def write_field_csv(f: Field, path):
    """One row per grid point: axis coordinates, then re and im.

    Each axis's coordinates are formatted once; the rows of one point of
    the first axis are written with a single ``%`` format.
    """
    labels = [["%.17g" % x for x in ax.points().tolist()] for ax in f.spec.axes]
    tails = [""]
    for axis in reversed(labels[1:]):
        tails = [x + "," + t for x in axis for t in tails]
    values = f.values.reshape(len(labels[0]), -1)
    args = [None] * (3 * len(tails))
    args[0::3] = tails
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([ax.name for ax in f.spec.axes] + ["re", "im"])
        for head, block in zip(labels[0], values):
            args[1::3] = block.real.tolist()
            args[2::3] = block.imag.tolist()
            fh.write((head + ",%s%.17g,%.17g\r\n") * len(tails) % tuple(args))


def write_field_binary(f: Field, path):
    """Binary dump: magic 'SDEQ', version and axis count as u16, per-axis
    (n: u32, min: f64, max: f64), then the samples as little-endian
    complex128 (interleaved re/im f64)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HH", _FORMAT_VERSION, len(f.spec.axes)))
        for ax in f.spec.axes:
            fh.write(struct.pack("<Idd", ax.n, ax.lo, ax.hi))
        fh.write(np.ascontiguousarray(f.values, "<c16").tobytes())


def _read_header(fh, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    chunk = fh.read(size)
    if len(chunk) != size:
        raise ValueError(f"header cut short: {len(chunk)} of {size} bytes")
    return struct.unpack(fmt, chunk)


def read_field_binary(path) -> Field:
    """Read a field written by write_field_binary, bit for bit.

    Axes are named axis0, axis1, ...; the values are a read-only view of
    the payload bytes. A version-1 file does not record its (q, p) pairs,
    so the field comes back with none, and ``grid_star`` refuses it.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, naxes = _read_header(fh, "<HH")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        axes = [Axis(f"axis{a}", *_read_header(fh, "<Idd")) for a in range(naxes)]
        spec = GridSpec(axes, pairs=[])
        expected = spec.total_points * 16
        payload = fh.read()
        if len(payload) != expected:
            raise ValueError(
                f"payload has {len(payload)} bytes, expected {expected}"
            )
        values = np.frombuffer(payload, dtype="<c16").reshape(spec.shape)
        return Field(spec, values)
