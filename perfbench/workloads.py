"""Seeded operations and independent oracles for the three workloads.

A workload builds one round of operations from ``(seed, round)``. The
shape of a round is fixed (how many operations of each kind, their sizes
and degree profiles); the seed chooses the content (coefficients,
variables, parameters) and the order. Every operation checks its own
output against an oracle that does not share the code path under test,
and returns a digest of that output for the determinism check.

Library calls resolve ``phaseq.<name>`` at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.special

import phaseq
import phaseq.cli


class OracleError(Exception):
    """An operation's output disagrees with its oracle."""


def check(condition, message):
    if not condition:
        raise OracleError(message)


class Context:
    """Per-process state shared by operations: scratch directory, fault flag."""

    def __init__(self, tmp: Path, fault: bool = False):
        self.tmp = Path(tmp)
        self.fault = fault

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    def normalize(self, text: str) -> str:
        """Drop the scratch directory from text that goes into a digest."""
        return text.replace(str(self.tmp), "<tmp>")


class Outcome:
    """What one operation reports: its timed interval (perf_counter start
    and end), work units, and output digest."""

    def __init__(self, timed, digest: str, work: float = 0.0):
        self.timed = timed
        self.digest = digest
        self.work = work


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(ctx: Context, argv):
    """Call ``phaseq.cli.main`` in-process; returns (code, stdout, stderr, timed interval, manifest)."""
    manifest = ctx.path("manifest.json")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = phaseq.cli.main(list(argv) + ["--manifest", manifest])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    timed = (start, time.perf_counter())
    doc = {}
    if Path(manifest).exists():
        doc = json.loads(Path(manifest).read_text())
        doc.pop("wall_ms", None)
        Path(manifest).unlink()
    check(code == 0, f"exit {code}: {err.getvalue().strip()[-300:]}")
    return code, out.getvalue(), err.getvalue(), timed, doc


def cli_digest(ctx, argv, stdout, manifest, *extra):
    return digest(
        ctx.normalize(" ".join(argv)),
        stdout,
        ctx.normalize(json.dumps(manifest, sort_keys=True)),
        *extra,
    )


# ---------------------------------------------------------------------------
# exact layer


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def seeded_coeff(rng: random.Random):
    while True:
        coeff = phaseq.ComplexRational(random_rational(rng), random_rational(rng))
        if not coeff.is_zero():
            return coeff


def seeded_poly(rng: random.Random, degrees):
    """Sum of len(degrees) distinct monomials with nonzero Gaussian-rational coefficients."""
    poly = phaseq.PhasePolynomial.zero(4)
    keys = set()
    for degree in degrees:
        while True:
            key = [0] * 8
            for _ in range(degree):
                key[rng.randrange(8)] += 1
            if tuple(key) not in keys:
                break
        keys.add(tuple(key))
        poly = poly + phaseq.PhasePolynomial.monomial(tuple(key), seeded_coeff(rng), 4)
    return poly


def trial_shapes(count: int, max_degree: int):
    """Fixed monomial patterns of the star trials, the same for every seed.

    Each trial is three polynomials of three distinct monomials, each of
    total degree uniform in 0..max_degree. The cost of a star product is
    set by these patterns, so fixing them keeps the latency distribution
    comparable across seeds; the seed relabels and fills them (see
    relabel).
    """
    rng = random.Random("phaseq-exact-shapes")
    shapes = []
    for _ in range(count):
        trial = []
        for _ in range(3):
            keys = set()
            while len(keys) < 3:
                key = [0] * 8
                for _ in range(rng.randint(0, max_degree)):
                    key[rng.randrange(8)] += 1
                keys.add(tuple(key))
            trial.append(sorted(keys))
        shapes.append(trial)
    return shapes


def relabel(rng: random.Random, trial):
    """Seeded copy of a trial's patterns: permute the four (q, p) pairs,
    swap q and p within some pairs, and draw new coefficients. Neither
    relabeling changes the work of a star product."""
    perm = rng.sample(range(4), 4)
    swap = [rng.random() < 0.5 for _ in range(4)]
    polys = []
    for keys in trial:
        poly = phaseq.PhasePolynomial.zero(4)
        for key in keys:
            new = [0] * 8
            for mu in range(4):
                q, p = key[mu], key[4 + mu]
                nu = perm[mu]
                new[nu], new[4 + nu] = (p, q) if swap[nu] else (q, p)
            poly = poly + phaseq.PhasePolynomial.monomial(tuple(new), seeded_coeff(rng), 4)
        polys.append(poly)
    return polys


class StarTrial:
    """Print and re-parse a triple, four star products, exact associativity."""

    kind = "trial"

    def __init__(self, polys):
        self.polys = polys
        self.label = "star-trial " + " | ".join(str(p) for p in polys)

    def run(self, ctx):
        start = time.perf_counter()
        texts = [str(p) for p in self.polys]
        f, g, h = [phaseq.parse_expression(t) for t in texts]
        star = phaseq.moyal_star
        left = star(star(f, g), h)
        right = star(f, star(g, h))
        result = str(left)
        back = phaseq.parse_expression(result)
        timed = (start, time.perf_counter())
        check((f, g, h) == tuple(self.polys), "parser round trip changed an input")
        check(left == right, "star product is not associative")
        check(back == left, "parser round trip changed the product")
        return Outcome(timed, digest(*texts, result))


def basis_size(degree: int) -> int:
    """Monomials of total degree <= degree in eight variables."""
    return math.comb(8 + degree, degree)


class Sweep:
    """An identity sweep through the CLI; its checked count must match the basis formula."""

    kind = "sweep"

    def __init__(self, argv, expected):
        self.argv = argv
        self.expected = expected
        self.label = " ".join(argv)

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        report = json.loads(out)
        expected = self.expected + (1 if ctx.fault else 0)
        check(report["checked"] == expected,
              f"checked {report['checked']}, expected {expected}")
        check(report["pass"] is True and report["violations"] == [], "sweep reported violations")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest), report["checked"])


def _gamma_constant() -> complex:
    """c with gamma0 gamma1 gamma2 gamma3 = c gamma5, from numpy Dirac matrices."""
    eye, zero = np.eye(2), np.zeros((2, 2))
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    gammas = [np.block([[eye, zero], [zero, -eye]])]
    gammas += [np.block([[zero, s], [-s, zero]]) for s in pauli]
    gamma5 = np.block([[zero, eye], [eye, zero]])
    product = gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]
    return complex(product[0, 2] / gamma5[0, 2])


class Clifford:
    """Gamma-matrix identities; the decomposition constant is checked with numpy."""

    kind = "clifford"

    def __init__(self, metric):
        self.argv = ["clifford-check", f"--metric={metric}"]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        report = json.loads(out)
        check(report["pass"] is True and report["failures"] == [], "clifford failures")
        constant = complex(report["decomposition_constant"])
        check(abs(constant - _gamma_constant()) < 1e-15, f"decomposition constant {constant}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


class Bracket:
    """Star commutator through the CLI; must equal i times the Poisson bracket."""

    kind = "bracket"

    def __init__(self, f, g):
        self.f, self.g = f, g
        self.argv = ["bracket", f"--expr1={f}", f"--expr2={g}"]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        got = phaseq.parse_expression(out.strip())
        want = phaseq.PhasePolynomial.constant(phaseq.CR_I) * phaseq.poisson_bracket(self.f, self.g)
        check(got == want, f"bracket {out.strip()} != i*{{f,g}} = {want}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


def exact_round(seed: int, index: int, tiny: bool):
    rng = random.Random(f"exact:{seed}:{index}")
    trials = 4 if tiny else 150
    max_degree = 2 if tiny else 4
    ops = [StarTrial(relabel(rng, trial)) for trial in trial_shapes(trials, max_degree)]
    for _ in range(2 if tiny else 4):
        f = seeded_poly(rng, [rng.randint(1, 2) for _ in range(3)])
        g = seeded_poly(rng, [rng.randint(1, 2) for _ in range(3)])
        ops.append(Bracket(f, g))
    sweep_degree = 1 if tiny else 2
    for metric in ("+---", "-+++"):
        ops.append(Sweep(["dirac-square", "--degree", str(sweep_degree), f"--metric={metric}"],
                         16 * basis_size(sweep_degree)))
        ops.append(Clifford(metric))
    ops.append(Sweep(["algebra-check", "--degree", str(sweep_degree)], 70 * basis_size(sweep_degree)))
    casimir = (1, 1) if tiny else (2, 1)
    ops.append(Sweep(
        ["casimir-check", "--degree-p2", str(casimir[0]), "--degree-w2", str(casimir[1])],
        10 * basis_size(casimir[0]) + 10 * basis_size(casimir[1]),
    ))
    return ops


# ---------------------------------------------------------------------------
# grid layer: Wigner functions


def read_dump(path):
    """Independent reader for the documented binary dump layout.

    Returns (axes as (n, lo, hi) tuples, complex values in axis order).
    """
    raw = Path(path).read_bytes()
    check(raw[:4] == b"SDEQ", "bad dump magic")
    version, naxes = np.frombuffer(raw, dtype="<u2", count=2, offset=4)
    check(version == 1, f"dump version {version}")
    axes, offset = [], 8
    for _ in range(int(naxes)):
        n = int(np.frombuffer(raw, dtype="<u4", count=1, offset=offset)[0])
        lo, hi = np.frombuffer(raw, dtype="<f8", count=2, offset=offset + 4)
        axes.append((n, float(lo), float(hi)))
        offset += 20
    count = int(np.prod([a[0] for a in axes]))
    check(len(raw) - offset == 16 * count, "dump length does not match its header")
    inter = np.frombuffer(raw, dtype="<f8", offset=offset)
    values = (inter[0::2] + 1j * inter[1::2]).reshape([a[0] for a in axes])
    return axes, values


def periodic_points(n, lo, hi):
    return lo + (hi - lo) / n * np.arange(n)


def cell_volume(axes):
    return float(np.prod([(hi - lo) / n for n, lo, hi in axes]))


class GaussianWigner:
    """Wigner dump of exp(-(q^2+p^2)) must equal 1/2 exp(-(q^2+p^2)) to 1e-12."""

    kind = "wigner"

    def __init__(self, n: int, half: float):
        self.n, self.half = n, half
        grid = f"q:{n}:-{half}:{half},p:{n}:-{half}:{half}"
        self.argv = ["wigner", "--grid", grid]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        out_path = ctx.path("wigner.bin")
        argv = self.argv + ["--out", out_path, "--format", "bin"]
        _, out, _, timed, manifest = run_cli(ctx, argv)
        axes, values = read_dump(out_path)
        check(axes == [(self.n, -self.half, self.half)] * 2, f"dump axes {axes}")
        q = periodic_points(self.n, -self.half, self.half)
        Q, P = np.meshgrid(q, q, indexing="ij")
        prefactor = 0.25 if ctx.fault else 0.5
        error = float(np.max(np.abs(values - prefactor * np.exp(-(Q * Q + P * P)))))
        check(error <= 1e-12, f"closed-form error {error:.2e}")
        data = Path(out_path).read_bytes()
        return Outcome(timed, cli_digest(ctx, argv, out, manifest, data), values.size)


class LandauWigner:
    """Landau Wigner dump must exit 0, stay real and keep its trace."""

    kind = "wigner"

    def __init__(self, n: int, s: int, box: float, points: int):
        self.n, self.s, self.box, self.points = n, s, box, points
        self.argv = ["wigner", "--kind", "landau", "--points", str(points),
                     "--box", str(box), "--n", str(n), f"--s={s:+d}"]
        self.label = " ".join(self.argv)

    def expected_trace(self, axes):
        """2 ||bandlimit(phi_n(z))||^2, with phi_n = e^{-z} L_n(2z) at eB = 1."""
        x, y, px, py = np.meshgrid(*[periodic_points(*a) for a in axes], indexing="ij")
        z = (px + 0.5 * y) ** 2 + (py - 0.5 * x) ** 2
        amp = np.exp(-z) * scipy.special.eval_laguerre(self.n, 2.0 * z)
        spectrum = np.fft.fftn(amp)
        for axis in range(4):
            cut = [slice(None)] * 4
            cut[axis] = self.points // 2
            spectrum[tuple(cut)] = 0.0
        amp = np.fft.ifftn(spectrum)
        return 2.0 * float(np.sum(np.abs(amp) ** 2)) * cell_volume(axes)

    def run(self, ctx):
        out_path = ctx.path("wigner.bin")
        argv = self.argv + ["--out", out_path, "--format", "bin"]
        _, out, _, timed, manifest = run_cli(ctx, argv)
        axes, values = read_dump(out_path)
        check(axes == [(self.points, -self.box, self.box)] * 4, f"dump axes {axes}")
        realness = float(np.max(np.abs(values.imag)) / np.max(np.abs(values)))
        check(realness <= 1e-6, f"realness {realness:.2e}")
        trace = float(np.sum(values.real)) * cell_volume(axes)
        want = self.expected_trace(axes)
        check(abs(trace - want) <= 1e-3 * want, f"trace {trace} vs {want}")
        data = Path(out_path).read_bytes()
        return Outcome(timed, cli_digest(ctx, argv, out, manifest, data), values.size)


def wigner_round(seed: int, index: int, tiny: bool):
    rng = random.Random(f"wigner:{seed}:{index}")
    if tiny:
        ops = [GaussianWigner(48, 6), LandauWigner(0, rng.choice((1, -1)), 3.0, 4)]
    else:
        ops = [GaussianWigner(n, half) for n in (64, 96, 128) for half in (6, 8)]
        # the box changes how many modes grid_star keeps, so it follows a
        # fixed pattern (alternating by round) and the seed picks the spin
        boxes = (2.5, 3.0)
        ops += [LandauWigner(n, rng.choice((1, -1)), boxes[(n + index) % 2], 8) for n in (0, 1, 2)]
    return ops


# ---------------------------------------------------------------------------
# grid layer: cheap CLI calls and dumps


def _csv_floats(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array(rows[1:], dtype=float)


class KGCheck:
    """Two-route wave-operator check; residual must match the closed form."""

    kind = "call"

    def __init__(self, n, p0, p1, mass):
        self.n, self.p, self.mass = n, (p0, p1), mass
        self.argv = ["kg-check", "--grid", f"q0:{n}:-9:9,q1:{n}:-9:9",
                     "--p0", str(p0), "--p1", str(p1), "--mass", str(mass), "--tol", "1e-5"]
        self.label = " ".join(self.argv)

    def closed_form_residual(self):
        # phi = exp(-(a^2+b^2)/4): p.p phi - i p^mu d_mu phi - 1/4 g_mumu d_mu^2 phi - m^2 phi
        a = periodic_points(self.n, -9.0, 9.0)
        A, B = np.meshgrid(a, a, indexing="ij")
        phi = np.exp(-(A * A + B * B) / 4.0)
        signs = (1, -1)
        out = (sum(g * p * p for g, p in zip(signs, self.p)) - self.mass**2) * phi
        for x, g, p in zip((A, B), signs, self.p):
            d1 = -x / 2.0 * phi
            d2 = (x * x / 4.0 - 0.5) * phi
            out = out - 1j * p * d1 - 0.25 * g * d2
        return float(np.max(np.abs(out)))

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        doc = json.loads(out)
        rel = float(doc["relative_discrepancy"])
        check(doc["pass"] is True and rel <= 1e-5, f"relative discrepancy {rel}")
        residual, want = float(doc["residual_max"]), self.closed_form_residual()
        check(abs(residual - want) <= 1e-4 * want, f"residual {residual} vs closed form {want}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


class LandauSpectrum:
    """Level table; kappa must equal eB(2n+1) and both lambda^2 columns their formulas."""

    kind = "call"

    def __init__(self, lo, hi, s, eB):
        self.levels, self.s, self.eB = range(lo, hi + 1), s, eB
        self.argv = ["landau-spectrum", "--n", f"{lo}..{hi}", f"--s={s:+d}", "--eB", str(eB)]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        lines = out.strip().split("\n")[1:]
        check(len(lines) == len(self.levels), "wrong row count")
        shift = self.eB if ctx.fault else 0.0
        for n, line in zip(self.levels, lines):
            cols = line.split(",")
            kappa = self.eB * (2 * n + 1) + shift
            check(int(cols[0]) == n and int(cols[3]) == 2 * n + 1, f"row {line}")
            check(float(cols[4]) == kappa, f"kappa {cols[4]} != {kappa}")
            check(float(cols[5]) == self.eB * (2 * n + 1 + self.s), f"lambda2_paper {cols[5]}")
            check(float(cols[6]) == kappa - self.s * self.eB, f"lambda2_oracle {cols[6]}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


class LandauEigen:
    """Eigenfunction table; phi must match e^{-z/eB} L_n(2z/eB) from scipy."""

    kind = "call"

    def __init__(self, n, eB, s):
        self.n, self.eB = n, eB
        self.argv = ["landau-eigen", "--n", str(n), "--eB", str(eB), f"--s={s:+d}"]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        _, out, err, timed, manifest = run_cli(ctx, self.argv)
        check("pass=true" in err, "eigenfunction check did not pass")
        _, table = _csv_floats(out)
        z, phi = table[:, 0], table[:, 1]
        want = np.exp(-z / self.eB) * scipy.special.eval_laguerre(self.n, 2.0 * z / self.eB)
        error = float(np.max(np.abs(phi - want) / np.maximum(1.0, np.abs(want))))
        check(error <= 1e-10, f"eigenfunction error {error:.2e}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest, err))


class LandauReduce:
    """Full 4D operator against the reduced route; expected value kappa - s eB."""

    kind = "call"

    def __init__(self, n, s, points):
        self.n, self.s, self.points = n, s, points
        self.argv = ["landau-reduce-check", "--n", str(n), f"--s={s:+d}", "--points", str(points)]
        self.label = " ".join(self.argv)

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        doc = json.loads(out)
        check(doc["pass"] is True, "reduction check failed")
        check(doc["grid_shape"] == [self.points] * 4, f"grid shape {doc['grid_shape']}")
        check(float(doc["expected_value"]) == 2 * self.n + 1 - self.s,
              f"expected value {doc['expected_value']}")
        check(float(doc["relative_difference"]) <= 5e-3, "relative difference")
        check(float(doc["imag_fraction"]) <= 1e-4, "imaginary fraction")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


class SpecFun:
    """Special-function table against scipy at criterion 11's tolerances."""

    kind = "call"

    def __init__(self, function, params, x):
        self.function, self.params = function, params
        self.argv = ["specfun-eval", "--function", function, f"--x={x}"]
        for key, value in params.items():
            self.argv += [f"--{key}={value}"]
        self.label = " ".join(self.argv)

    def reference(self, xs):
        p = self.params
        if self.function == "kummer-m":
            return scipy.special.hyp1f1(p["a"], p["b"], xs), 1e-12
        if self.function == "kummer-u":
            return scipy.special.hyperu(p["a"], 1.0, xs), 1e-8
        return scipy.special.eval_laguerre(p["n"], xs), 1e-12

    def run(self, ctx):
        _, out, _, timed, manifest = run_cli(ctx, self.argv)
        _, table = _csv_floats(out)
        want, tol = self.reference(table[:, 0])
        error = float(np.max(np.abs(table[:, 1] - want) / np.maximum(1.0, np.abs(want))))
        check(error <= tol, f"{self.function} error {error:.2e} > {tol}")
        return Outcome(timed, cli_digest(ctx, self.argv, out, manifest))


class DumpRoundTrip:
    """Binary dump must read back bit-identical; CSV must read back to 17 digits."""

    kind = "dump"

    def __init__(self, n, half, seed):
        self.n, self.half, self.seed = n, half, seed
        self.label = f"dump {n}^4 half={half} seed={seed}"

    def run(self, ctx):
        axes = [phaseq.Axis(name, self.n, -self.half, self.half) for name in ("x", "y", "px", "py")]
        spec = phaseq.GridSpec(axes, pairs=[(0, 2, -1), (1, 3, -1)])
        rng = np.random.default_rng(self.seed)
        field = phaseq.Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        bin_path, csv_path = ctx.path("field.bin"), ctx.path("field.csv")
        start = time.perf_counter()
        phaseq.write_field_binary(field, bin_path)
        back = phaseq.read_field_binary(bin_path)
        phaseq.write_field_csv(field, csv_path)
        text = Path(csv_path).read_text()
        header, table = _csv_floats(text)
        timed = (start, time.perf_counter())
        check(back.values.shape == field.values.shape
              and back.values.tobytes() == field.values.tobytes(), "binary dump is not bit-identical")
        check([(a.n, a.lo, a.hi) for a in back.spec.axes] == [(a.n, a.lo, a.hi) for a in axes],
              "binary header axes")
        check(header == ["x", "y", "px", "py", "re", "im"], f"csv header {header}")
        coords = np.stack([c.ravel() for c in spec.meshgrid()], axis=1)
        check(np.array_equal(table[:, :4], coords), "csv coordinates differ")
        check(np.array_equal(table[:, 4], field.values.real.ravel())
              and np.array_equal(table[:, 5], field.values.imag.ravel()), "csv values differ")
        data = Path(bin_path).read_bytes()
        moved = 2 * len(data) + 2 * len(text)
        return Outcome(timed, digest(self.label, data, text), moved)


def grid_ops_round(seed: int, index: int, tiny: bool):
    rng = random.Random(f"grid-ops:{seed}:{index}")

    def u(lo, hi, digits=3):
        return round(rng.uniform(lo, hi), digits)

    sign = lambda: rng.choice((1, -1))
    kg_sizes = (64, 128) if tiny else (64, 96, 128, 160, 192, 224, 256) * 3
    ops = [KGCheck(n, u(0, 1), u(0, 1), u(0.5, 1.5)) for n in kg_sizes]
    for _ in range(1 if tiny else 12):
        lo = rng.randint(0, 8)
        ops.append(LandauSpectrum(lo, rng.randint(lo, 8), sign(), rng.choice((0.5, 1.0, 2.0))))
    levels = (0, 8) if tiny else range(9)
    for n in levels:
        for eB in ((1.0,) if tiny else (0.5, 1.0, 2.0)):
            ops.append(LandauEigen(n, eB, sign()))
    # n = 2 only on the finer grid: at 16^4 its spurious imaginary part is
    # 3.8e-4, above the check's 1e-4 tolerance (a resolution limit). These
    # are the slowest calls; fewer than a tenth of the calls, so p90 falls
    # inside the dense landau-eigen cluster rather than in a gap
    reduce_cases = [(0, 16)] if tiny else [(0, 16), (0, 20), (1, 16), (1, 20), (2, 20)]
    for n, points in reduce_cases:
        ops.append(LandauReduce(n, sign(), points))
    per_kind = 1 if tiny else 8
    for _ in range(per_kind):
        ops.append(SpecFun("kummer-m", {"a": -rng.randint(1, 8), "b": rng.choice((1, 2))}, "0:20:101"))
        ops.append(SpecFun("kummer-m", {"a": u(0.2, 2.5, 2), "b": u(1.0, 3.0, 2)}, "-20:20:101"))
    for _ in range(per_kind - (0 if tiny else 1)):
        ops.append(SpecFun("kummer-u", {"a": u(0.3, 2.5, 2), "b": 1}, "0.1:5:101"))
        ops.append(SpecFun("laguerre", {"n": rng.randint(0, 10)}, "0:30:101"))
    for n in ((8,) if tiny else (8, 12, 16)):
        ops.append(DumpRoundTrip(n, u(2.0, 4.0, 2), rng.randrange(2**32)))
    return ops


ROUNDS = {"exact": exact_round, "wigner": wigner_round, "grid-ops": grid_ops_round}


def make_round(workload: str, seed: int, index: int, tiny: bool):
    """The round's operations in a seeded order."""
    ops = ROUNDS[workload](seed, index, tiny)
    random.Random(f"order:{workload}:{seed}:{index}").shuffle(ops)
    return ops


def warm_up(workload: str, ctx: Context):
    """One untimed call of each operation class, the first of its class in
    the unshuffled tiny round, whose round functions list it cheapest first."""
    seen = set()
    for op in ROUNDS[workload](0, 0, True):
        if type(op) not in seen:
            seen.add(type(op))
            op.run(ctx)
