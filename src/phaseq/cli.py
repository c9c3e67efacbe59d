"""Command-line front end.

Every verification and solver in the package is exposed as a subcommand.
Each run writes a JSON manifest recording the command, parameters,
outputs, pass/fail status and wall time. Exit codes: 0 all checks
passed, 1 a check failed its tolerance, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import MOSTLY_MINUS, MOSTLY_PLUS, ComplexRational
from .confluent import kummer_m, kummer_u, laguerre
from .dirac import (
    GammaRep,
    anticommutator,
    dirac_square_check,
    gamma_product_decomposition,
    mat_eq,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_zero,
    sigma,
    standard_gamma_rep,
)
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
    rayleigh_quotient,
    reduced_ode_apply,
    reduction_equivalence_check,
    spectrum,
    wigner_landau,
    z_variable,
)
from .parsing import parse_expression
from .poincare import check_casimirs, check_poincare_algebra
from .star import moyal_star

_METRICS = {"+---": MOSTLY_MINUS, "-+++": MOSTLY_PLUS}


def _fmt(x: float) -> str:
    """17 significant digits: round-trip safe for double precision."""
    return format(float(x), ".17g")


def _parse_range(text: str):
    """'a..b' inclusive, or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


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


def _write_manifest(args, command: str, params: dict, outputs, passed, wall_ms):
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "metric": getattr(args, "metric_label", "+---"),
        "outputs": list(outputs),
        "pass": bool(passed),
        "wall_ms": round(wall_ms, 3),
    }
    path = getattr(args, "manifest", None)
    if path is None:
        path = (args.out + ".manifest.json") if getattr(args, "out", None) else (
            command + "-manifest.json"
        )
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        return [args.out]
    sys.stdout.write(text)
    return []


# -- subcommand handlers ----------------------------------------------------


def _cmd_star(args):
    metric = _METRICS[args.metric_label]
    f = parse_expression(args.expr1)
    g = parse_expression(args.expr2)
    result = moyal_star(f, g, metric)
    outputs = _emit(args, str(result) + "\n")
    return 0, {"expr1": args.expr1, "expr2": args.expr2}, outputs


def _cmd_bracket(args):
    metric = _METRICS[args.metric_label]
    f = parse_expression(args.expr1)
    g = parse_expression(args.expr2)
    result = moyal_star(f, g, metric) - moyal_star(g, f, metric)
    outputs = _emit(args, str(result) + "\n")
    return 0, {"expr1": args.expr1, "expr2": args.expr2}, outputs


def _cmd_algebra_check(args):
    metric = _METRICS[args.metric_label]
    report = check_poincare_algebra(args.degree, metric)
    outputs = _emit(args, report.to_json(indent=2, sort_keys=True) + "\n")
    return (0 if report.passed else 1), {"degree": args.degree}, outputs


def _cmd_casimir_check(args):
    metric = _METRICS[args.metric_label]
    report = check_casimirs(args.degree_p2, args.degree_w2, metric)
    outputs = _emit(args, report.to_json(indent=2, sort_keys=True) + "\n")
    params = {"degree_p2": args.degree_p2, "degree_w2": args.degree_w2}
    return (0 if report.passed else 1), params, outputs


def _load_gamma_file(path, metric) -> GammaRep:
    """Read four gamma matrices from JSON: {"gamma": [[[re, im], ...x4]x4]x4}.

    Entries are strings or numbers accepted by Fraction. Used to exercise
    clifford-check on externally supplied (possibly wrong) matrices.
    """
    with open(path) as fh:
        data = json.load(fh)
    mats = []
    for raw in data["gamma"]:
        rows = []
        for row in raw:
            rows.append(
                tuple(
                    ComplexRational(Fraction(str(c[0])), Fraction(str(c[1])))
                    for c in row
                )
            )
        mats.append(tuple(rows))
    reference = standard_gamma_rep(metric)
    return GammaRep(
        tuple(mats),
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
    failures = []
    for mu in range(4):
        for nu in range(4):
            want = mat_scale(
                2 * metric[mu] if mu == nu else 0, mat_identity()
            )
            if not mat_eq(anticommutator(rep.gamma[mu], rep.gamma[nu]), want):
                failures.append(f"anticommutator({mu},{nu})")
    # the mostly-plus gammas carry an extra factor of i each, so every
    # sigma block flips sign relative to the mostly-minus convention
    flip = metric[0]
    boost = mat_scale(ComplexRational(Fraction(0), Fraction(flip)), mat_identity())
    for j in range(3):
        want = mat_mul(boost, rep.alpha[j])
        if not mat_eq(sigma(0, j + 1, rep), want):
            failures.append(f"sigma(0,{j + 1}) != {flip:+d}*i*alpha^{j + 1}")
    spatial = {(1, 2): 2, (2, 3): 0, (3, 1): 1}
    for (i, j), k in spatial.items():
        if not mat_eq(sigma(i, j, rep), mat_scale(flip, rep.sigma_big[k])):
            failures.append(f"sigma({i},{j}) != {flip:+d}*Sigma^{k + 1}")
    try:
        constant = gamma_product_decomposition(rep)
        const_str = str(constant.to_complex())
    except ValueError as exc:
        failures.append(f"decomposition: {exc}")
        const_str = None
    g5 = rep.gamma5
    if not mat_eq(mat_mul(g5, g5), mat_identity()):
        failures.append("gamma5^2 != I")
    for mu in range(4):
        if not mat_eq(anticommutator(g5, rep.gamma[mu]), mat_zero()):
            failures.append(f"gamma5 anticommutator with gamma^{mu}")
    report = {
        "pass": not failures,
        "failures": failures,
        "decomposition_constant": const_str,
    }
    outputs = _emit(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    params = {"gamma_file": args.gamma_file}
    return (0 if not failures else 1), params, outputs


def _cmd_dirac_square(args):
    metric = _METRICS[args.metric_label]
    report = dirac_square_check(args.degree, metric)
    outputs = _emit(args, report.to_json(indent=2, sort_keys=True) + "\n")
    return (0 if report.passed else 1), {"degree": args.degree}, outputs


def _cmd_kg_check(args):
    spec = _parse_grid(args.grid)
    metric = _METRICS[args.metric_label]
    signs = (metric[0], metric[1])
    sigma2 = args.width * args.width
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
    outputs = _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    params = {
        "grid": args.grid,
        "p0": args.p0,
        "p1": args.p1,
        "mass": args.mass,
        "width": args.width,
        "tol": args.tol,
    }
    return (0 if passed else 1), params, outputs


def _cmd_landau_spectrum(args):
    rows = ["n,s,eB,k,kappa,lambda2_paper,lambda2_oracle,s_sign_discrepant"]
    for n in args.n:
        row = spectrum(LandauParams(e=1.0, B=args.eB, s=args.s, n=n))
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
    outputs = _emit(args, "\n".join(rows) + "\n")
    params = {"n": args.n, "s": args.s, "eB": args.eB}
    return 0, params, outputs


def _cmd_landau_eigen(args):
    if not args.z_max > 0:
        raise ValueError(f"--z-max must be positive, got {args.z_max}")
    params = LandauParams(e=1.0, B=args.eB, s=args.s, n=args.n)
    phi = eigenfunction(args.n, params)
    z = np.linspace(0.0, args.z_max, args.points)
    vals = phi(z)
    kappa = spectrum(params).kappa
    residual = reduced_ode_apply(phi, params, z) - kappa * vals
    rel_res = float(np.max(np.abs(residual))) / float(np.max(np.abs(vals)))
    rq = rayleigh_quotient(phi, params)
    passed = rel_res <= args.tol and abs(rq - kappa) <= 1e-7 * max(kappa, 1.0)
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
    params_doc = {
        "n": args.n,
        "s": args.s,
        "eB": args.eB,
        "z_max": args.z_max,
        "points": args.points,
        "tol": args.tol,
    }
    return (0 if passed else 1), params_doc, outputs


def _cmd_landau_reduce_check(args):
    half = args.box
    spec = GridSpec(
        [Axis(name, args.points, -half, half) for name in ("x", "y", "px", "py")],
        pairs=[(0, 2, -1), (1, 3, -1)],
    )
    params = LandauParams(e=1.0, B=args.eB, s=args.s, n=args.n)
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
    outputs = _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    params_doc = {
        "n": args.n,
        "s": args.s,
        "eB": args.eB,
        "points": args.points,
        "box": args.box,
        "tol": args.tol,
    }
    return (0 if passed else 1), params_doc, outputs


def _write_field(args, field: Field):
    if not args.out:
        return []
    writer = write_field_binary if args.format == "bin" else write_field_csv
    writer(field, args.out)
    return [args.out]


def _cmd_wigner(args):
    if args.out and args.format not in ("csv", "bin"):
        raise ValueError("field dumps support --format csv or bin")
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
        half = args.box
        spec = GridSpec(
            [
                Axis(name, args.points, -half, half)
                for name in ("x", "y", "px", "py")
            ],
            pairs=[(0, 2, -1), (1, 3, -1)],
        )
        params = LandauParams(e=1.0, B=args.eB, s=args.s, n=args.n)
        fw = wigner_landau(args.n, params, spec)
        X, Y, PX, PY = spec.meshgrid()
        amp = bandlimit(
            Field(spec, eigenfunction(args.n, params)(z_variable(X, Y, PX, PY, params)))
        )
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
    params_doc = {
        "kind": args.kind,
        "n": args.n,
        "s": args.s,
        "eB": args.eB,
        "points": args.points,
        "box": args.box,
        "grid": args.grid,
        "format": args.format,
    }
    return (0 if passed else 1), params_doc, outputs


def _cmd_specfun_eval(args):
    bits = args.x.split(":")
    if len(bits) != 3:
        raise ValueError("--x wants min:max:count")
    lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
    xs = np.linspace(lo, hi, count)
    if args.function == "kummer-m":
        fn = lambda x: kummer_m(args.a, args.b, x)
    elif args.function == "kummer-u":
        fn = lambda x: kummer_u(args.a, args.b, x)
    else:
        fn = lambda x: laguerre(args.n, x)
    rows = ["x,value"]
    for x in xs:
        rows.append(f"{_fmt(x)},{_fmt(fn(float(x)))}")
    outputs = _emit(args, "\n".join(rows) + "\n")
    params = {
        "function": args.function,
        "a": args.a,
        "b": args.b,
        "n": args.n,
        "x": args.x,
    }
    return 0, params, outputs


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
    p.add_argument("--n", type=_parse_range, default=[0])
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
    p.add_argument("--format", choices=["csv", "bin", "json"], default="csv")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, params, outputs = args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_ms = (time.perf_counter() - start) * 1000.0
    _write_manifest(args, args.command, params, outputs, code == 0, wall_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
