"""Command-line front end.

Every verification and solver in the package is exposed as a subcommand.
Each run writes a JSON manifest recording the command, parameters,
outputs, pass/fail status and wall time. Exit codes: 0 all checks
passed, 1 a check failed its tolerance, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import MOSTLY_MINUS, MOSTLY_PLUS, ComplexRational, PhasePolynomial
from .confluent import SERIES_TERM_LIMIT, kummer_m, kummer_u, laguerre
from .dirac import GammaRep, clifford_report, dirac_square_check, standard_gamma_rep
from .grids import (
    Axis,
    Field,
    GridSpec,
    bandlimit,
    inner_product,
    kg_two_route_check,
    wigner_from_amplitude,
    write_field_binary,
    write_field_csv,
)
from .landau import (
    LandauParams,
    eigenfunction,
    landau_amplitude,
    landau_grid,
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
    wigner_landau,
)
from .parsing import parse_expression
from .poincare import check_casimirs, check_poincare_algebra
from .star import moyal_star

_METRICS = {"+---": MOSTLY_MINUS, "-+++": MOSTLY_PLUS}
# the most rows a specfun-eval or landau-eigen table may have
MAX_TABLE_ROWS = 100_000


def _fmt(x: float) -> str:
    """17 significant digits: round-trip safe for double precision."""
    return format(float(x), ".17g")


def _parse_range(text: str) -> range:
    """The levels of 'a..b' (inclusive), or of a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


def _table_points(lo: float, hi: float, count: int, option: str) -> np.ndarray:
    """count evenly spaced points on [lo, hi], refused before allocation
    when the table would have more than MAX_TABLE_ROWS rows or a span
    that is not a finite float."""
    if count > MAX_TABLE_ROWS:
        raise ValueError(f"{option} asks for {count} rows, more than {MAX_TABLE_ROWS}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{option} needs finite endpoints with a finite max - min")
    return np.linspace(lo, hi, count)


def _parse_spin(text: str) -> int:
    value = int(text)
    if value not in (1, -1):
        raise argparse.ArgumentTypeError("spin must be +1 or -1")
    return value


def _parse_grid(text: str) -> GridSpec:
    """'axis:n:min:max,axis:n:min:max,...'"""
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 4:
            raise argparse.ArgumentTypeError(
                f"bad axis spec {part!r}, want name:n:min:max"
            )
        name, n, lo, hi = bits
        axes.append(Axis(name, int(n), float(lo), float(hi)))
    return GridSpec(axes)


def _write_manifest(args, outputs, passed, wall_ms):
    """The manifest records every option the subcommand took as its params,
    apart from where the outputs go and the metric, which has its own key."""
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "handler", "out", "manifest", "metric_label")
    }
    manifest = {
        "command": args.command,
        "params": params,
        "version": __version__,
        "metric": getattr(args, "metric_label", "+---"),
        "outputs": list(outputs),
        "pass": bool(passed),
        "wall_ms": round(wall_ms, 3),
    }
    path = args.manifest
    if path is None:
        path = (args.out + ".manifest.json") if args.out else (
            args.command + "-manifest.json"
        )
    with open(path, "w") as fh:
        # a level range is written as its list of levels
        json.dump(manifest, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        return [args.out]
    sys.stdout.write(text)
    return []


def _emit_json(args, doc):
    return _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- subcommand handlers ----------------------------------------------------
# Each returns (passed, outputs); main records the parsed options.


def _cmd_star(args):
    metric = _METRICS[args.metric_label]
    f = parse_expression(args.expr1)
    g = parse_expression(args.expr2)
    result = moyal_star(f, g, metric)
    return True, _emit(args, str(result) + "\n")


def _cmd_bracket(args):
    metric = _METRICS[args.metric_label]
    f = parse_expression(args.expr1)
    g = parse_expression(args.expr2)
    result = moyal_star(f, g, metric) - moyal_star(g, f, metric)
    return True, _emit(args, str(result) + "\n")


def _cmd_algebra_check(args):
    metric = _METRICS[args.metric_label]
    report = check_poincare_algebra(args.degree, metric)
    return report.passed, _emit_json(args, report.to_dict())


def _cmd_casimir_check(args):
    metric = _METRICS[args.metric_label]
    report = check_casimirs(args.degree_p2, args.degree_w2, metric)
    return report.passed, _emit_json(args, report.to_dict())


def _load_gamma_file(path, metric) -> GammaRep:
    """Read four gamma matrices from JSON: {"gamma": [[[re, im], ...x4]x4]x4}.

    Entries are strings or numbers accepted by Fraction. Used to exercise
    clifford-check on externally supplied (possibly wrong) matrices; any
    other shape is a ValueError.
    """
    with open(path) as fh:
        data = json.load(fh)

    def shaped(value, n):
        return isinstance(value, list) and len(value) == n

    mats = data.get("gamma") if isinstance(data, dict) else None
    if not (
        shaped(mats, 4)
        and all(shaped(mat, 4) for mat in mats)
        and all(shaped(row, 4) for mat in mats for row in mat)
        and all(shaped(c, 2) for mat in mats for row in mat for c in row)
    ):
        raise ValueError(
            f"{path}: want {{\"gamma\": [...]}} with 4 matrices of 4 rows of 4 [re, im] pairs"
        )

    try:
        gammas = tuple(
            tuple(
                tuple(
                    PhasePolynomial.constant(
                        ComplexRational(Fraction(str(re)), Fraction(str(im)))
                    )
                    for re, im in row
                )
                for row in mat
            )
            for mat in mats
        )
    except ZeroDivisionError:
        raise ValueError(f"{path}: an entry has a zero denominator") from None
    reference = standard_gamma_rep(metric)
    return GammaRep(
        gammas,
        reference.gamma5,
        reference.alpha,
        reference.sigma_big,
        metric,
    )


def _cmd_clifford_check(args):
    metric = _METRICS[args.metric_label]
    if args.gamma_file:
        rep = _load_gamma_file(args.gamma_file, metric)
    else:
        rep = standard_gamma_rep(metric)
    report = clifford_report(rep)
    return report["pass"], _emit_json(args, report)


def _cmd_dirac_square(args):
    metric = _METRICS[args.metric_label]
    report = dirac_square_check(args.degree, metric)
    return report.passed, _emit_json(args, report.to_dict())


def _cmd_kg_check(args):
    spec = _parse_grid(args.grid)
    if len(spec.axes) != 2:
        raise ValueError(f"kg-check needs a 2-axis --grid, got {len(spec.axes)} axes")
    sigma2 = args.width * args.width
    if not (args.width > 0 and 0 < sigma2 < math.inf):
        raise ValueError(
            f"--width must be positive with a finite nonzero square, got {args.width}"
        )
    metric = _METRICS[args.metric_label]
    signs = (metric[0], metric[1])
    phi = Field.from_function(
        spec, lambda a, b: np.exp(-(a * a + b * b) / sigma2)
    )
    report = kg_two_route_check(phi, (args.p0, args.p1), args.mass, signs)
    passed = report.relative_discrepancy <= args.tol
    doc = {
        "route_discrepancy": _fmt(report.route_discrepancy),
        "relative_discrepancy": _fmt(report.relative_discrepancy),
        "residual_max": _fmt(report.residual_max),
        "tolerance": _fmt(args.tol),
        "pass": passed,
    }
    return passed, _emit_json(args, doc)


def _cmd_landau_spectrum(args):
    hi = args.n[-1]
    if hi + 1 > SERIES_TERM_LIMIT:
        # the level bound that landau-eigen applies through L_n
        raise ValueError(
            f"level {hi} is above {SERIES_TERM_LIMIT - 1}, the highest level landau-eigen takes"
        )
    params = LandauParams(args.eB, args.s)
    rows = ["n,s,eB,k,kappa,lambda2_paper,lambda2_oracle,s_sign_discrepant"]
    for n in args.n:
        row = spectrum(n, params)
        rows.append(
            ",".join(
                [
                    str(row.n),
                    ("+1" if row.s == 1 else "-1"),
                    _fmt(row.eB),
                    str(row.k),
                    _fmt(row.kappa),
                    _fmt(row.lambda2_paper),
                    _fmt(row.lambda2_oracle),
                    str(row.s_sign_discrepant).lower(),
                ]
            )
        )
        if row.s_sign_discrepant:
            print(
                f"note: n={row.n} s={row.s:+d}: lambda2_paper="
                f"{_fmt(row.lambda2_paper)} differs from lambda2_oracle="
                f"{_fmt(row.lambda2_oracle)} (spin-shift sign discrepancy)",
                file=sys.stderr,
            )
    return True, _emit(args, "\n".join(rows) + "\n")


def _cmd_landau_eigen(args):
    if not args.z_max > 0:
        raise ValueError(f"--z-max must be positive, got {args.z_max}")
    if not math.isfinite(args.z_max):
        raise ValueError(f"--z-max must be finite, got {args.z_max}")
    params = LandauParams(args.eB, args.s)
    phi = eigenfunction(args.n, params)
    z = _table_points(0.0, args.z_max, args.points, "--points")
    kappa = spectrum(args.n, params).kappa
    with np.errstate(all="ignore"):
        vals = phi(z)
        residual = reduced_ode_apply(phi, params, z) - kappa * vals
        rq = rayleigh_quotient(phi, params)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(residual)) and np.isfinite(rq)):
        raise ValueError(
            f"the eigenfunction table for n = {args.n} at eB = {_fmt(args.eB)} "
            "is not finite in float arithmetic; use a larger --eB"
        )
    rel_res = float(np.max(np.abs(residual))) / float(np.max(np.abs(vals)))
    passed = rel_res <= args.tol and abs(rq - kappa) <= 1e-7 * kappa
    rows = ["z,phi,ode_residual"]
    for zi, vi, ri in zip(z, vals, residual):
        rows.append(f"{_fmt(zi)},{_fmt(vi)},{_fmt(ri)}")
    outputs = _emit(args, "\n".join(rows) + "\n")
    print(
        f"n={args.n} eB={_fmt(args.eB)} kappa={_fmt(kappa)} "
        f"max_rel_residual={_fmt(rel_res)} rayleigh={_fmt(rq)} "
        f"pass={str(passed).lower()}",
        file=sys.stderr,
    )
    return passed, outputs


def _cmd_landau_reduce_check(args):
    spec = landau_grid(args.points, args.box)
    params = LandauParams(args.eB, args.s)
    report = reduction_equivalence_check(args.n, params, spec)
    passed = (
        report.relative_difference <= args.tol
        and report.imag_fraction <= args.imag_tol
    )
    doc = {
        "n": report.n,
        "s": report.s,
        "eB": _fmt(report.eB),
        "grid_shape": list(report.grid_shape),
        "interior_margin": report.interior_margin,
        "relative_difference": _fmt(report.relative_difference),
        "imag_fraction": _fmt(report.imag_fraction),
        "expected_value": _fmt(report.expected_value),
        "tolerance": _fmt(args.tol),
        "imag_tolerance": _fmt(args.imag_tol),
        "pass": passed,
    }
    return passed, _emit_json(args, doc)


def _write_field(args, field: Field):
    if not args.out:
        return []
    writer = write_field_binary if args.format == "bin" else write_field_csv
    writer(field, args.out)
    return [args.out]


def _cmd_wigner(args):
    if args.kind == "landau" and args.grid:
        raise ValueError("--kind landau takes --points and --box, not --grid")
    if args.kind == "gaussian":
        if args.grid:
            spec = _parse_grid(args.grid)
            if len(spec.axes) != 2:
                raise ValueError(
                    f"--kind gaussian needs a 2-axis --grid, got {len(spec.axes)} axes"
                )
        else:
            spec = GridSpec(
                [Axis("q", 128, -8.0, 8.0), Axis("p", 128, -8.0, 8.0)]
            )
        amp = Field.from_function(
            spec, lambda q, p: np.exp(-(q * q + p * p))
        )
        fw = wigner_from_amplitude(amp)
        reference = bandlimit(amp)
        norm2 = inner_product(reference, reference).real
        realness_tol, trace_tol = 1e-8, 1e-6
    else:
        spec = landau_grid(args.points, args.box)
        amp = landau_amplitude(args.n, LandauParams(args.eB, args.s), spec)
        fw = wigner_landau(amp)
        amp = bandlimit(amp)
        norm2 = 2.0 * inner_product(amp, amp).real
        realness_tol, trace_tol = 1e-6, 1e-3
    ones = Field(spec, np.ones(spec.shape))
    trace = inner_product(ones, fw).real
    realness = float(np.max(np.abs(fw.values.imag))) / fw.max_abs()
    trace_err = abs(trace - norm2) / norm2
    passed = realness <= realness_tol and trace_err <= trace_tol
    outputs = _write_field(args, fw)
    print(
        f"kind={args.kind} realness={_fmt(realness)} "
        f"trace_rel_err={_fmt(trace_err)} pass={str(passed).lower()}",
        file=sys.stderr,
    )
    return passed, outputs


def _cmd_specfun_eval(args):
    bits = args.x.split(":")
    if len(bits) != 3:
        raise ValueError("--x wants min:max:count")
    lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
    xs = _table_points(lo, hi, count, "--x")
    if args.function == "kummer-m":
        fn = lambda x: kummer_m(args.a, args.b, x)
    elif args.function == "kummer-u":
        fn = lambda x: kummer_u(args.a, args.b, x)
    else:
        fn = lambda x: laguerre(args.n, x)
    rows = ["x,value"]
    for x in xs:
        rows.append(f"{_fmt(x)},{_fmt(fn(float(x)))}")
    return True, _emit(args, "\n".join(rows) + "\n")


# -- parser wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseq",
        description="Phase-space quantum mechanics toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--manifest", default=None)

    def metric(p):
        p.add_argument(
            "--metric",
            dest="metric_label",
            choices=sorted(_METRICS),
            default="+---",
        )

    p = sub.add_parser("star", help="star product of two expressions")
    common(p)
    metric(p)
    p.add_argument("--expr1", required=True)
    p.add_argument("--expr2", required=True)
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("bracket", help="star commutator of two expressions")
    common(p)
    metric(p)
    p.add_argument("--expr1", required=True)
    p.add_argument("--expr2", required=True)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("algebra-check", help="verify the symmetry algebra")
    common(p)
    metric(p)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(handler=_cmd_algebra_check)

    p = sub.add_parser("casimir-check", help="verify Casimir centrality")
    common(p)
    metric(p)
    p.add_argument("--degree-p2", type=int, default=2)
    p.add_argument("--degree-w2", type=int, default=1)
    p.set_defaults(handler=_cmd_casimir_check)

    p = sub.add_parser("clifford-check", help="verify gamma-matrix identities")
    common(p)
    metric(p)
    p.add_argument("--gamma-file", default=None)
    p.set_defaults(handler=_cmd_clifford_check)

    p = sub.add_parser("dirac-square", help="verify the operator square")
    common(p)
    metric(p)
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(handler=_cmd_dirac_square)

    p = sub.add_parser("kg-check", help="two-route wave-operator comparison")
    common(p)
    metric(p)
    p.add_argument("--grid", default="q0:128:-9:9,q1:128:-9:9")
    p.add_argument("--p0", type=float, default=0.7)
    p.add_argument("--p1", type=float, default=0.3)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--width", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_kg_check)

    p = sub.add_parser("landau-spectrum", help="level table")
    common(p)
    p.add_argument("--n", type=_parse_range, default="0")
    p.add_argument("--s", type=_parse_spin, default=1)
    p.add_argument("--eB", type=float, default=1.0)
    p.set_defaults(handler=_cmd_landau_spectrum)

    p = sub.add_parser("landau-eigen", help="eigenfunction table and residual")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--s", type=_parse_spin, default=1)
    p.add_argument("--eB", type=float, default=1.0)
    p.add_argument("--z-max", type=float, default=30.0)
    p.add_argument("--points", type=int, default=301)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_landau_eigen)

    p = sub.add_parser(
        "landau-reduce-check", help="full 4D operator vs reduced route"
    )
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--s", type=_parse_spin, default=1)
    p.add_argument("--eB", type=float, default=1.0)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--box", type=float, default=1.7)
    p.add_argument("--tol", type=float, default=5e-3)
    p.add_argument("--imag-tol", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_landau_reduce_check)

    p = sub.add_parser("wigner", help="Wigner function construction and checks")
    common(p)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.add_argument("--kind", choices=["gaussian", "landau"], default="gaussian")
    p.add_argument("--grid", default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--s", type=_parse_spin, default=1)
    p.add_argument("--eB", type=float, default=1.0)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--box", type=float, default=3.0)
    p.set_defaults(handler=_cmd_wigner)

    p = sub.add_parser("specfun-eval", help="special function table")
    common(p)
    p.add_argument(
        "--function",
        choices=["kummer-m", "kummer-u", "laguerre"],
        required=True,
    )
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--x", default="0:10:101")
    p.set_defaults(handler=_cmd_specfun_eval)

    return parser


def _attach_dash_values(parser, argv):
    """Join a `-`-leading token to the value-taking option before it.

    argparse reads the `-5:-1:3` of `--x -5:-1:3` as another option; this
    passes `--x=-5:-1:3` instead. `-h`, `--help` and `--version` stay
    options.
    """
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    takes_value = set()
    joined = []
    for token in argv:
        if (
            joined
            and joined[-1] in takes_value
            and token.startswith("-")
            and token not in ("-h", "--help", "--version")
        ):
            joined[-1] += "=" + token
            continue
        if not takes_value and token in commands:
            takes_value = {
                option
                for a in commands[token]._actions
                if a.nargs != 0
                for option in a.option_strings
            }
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_dash_values(parser, argv))
    start = time.perf_counter()
    try:
        passed, outputs = args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_ms = (time.perf_counter() - start) * 1000.0
    _write_manifest(args, outputs, passed, wall_ms)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
