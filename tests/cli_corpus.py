"""A corpus of phaseq CLI runs, each reduced to one sha256.

Run as ``python tests/cli_corpus.py SRC``: it imports ``phaseq`` from the
directory SRC (a checkout's ``src/``), runs every invocation in ``RUNS``
in-process through ``phaseq.cli.main``, each in a fresh empty working
directory holding only the ``INPUTS`` files, and prints one line per run,
the digest and then the command line. Comparing two checkouts' output
shows every run whose bytes differ.

A digest covers the exit code (a ``SystemExit`` counts as its code),
stdout, stderr, and the name and bytes of every file the run wrote. The
one field left out is a manifest's ``wall_ms``, whose value is blanked.
``tests/test_cli_corpus.py`` pins each digest.

The runs cover every subcommand at cheap settings, both metrics, the
parser's aliases and group powers, ``--out`` and ``--manifest``, the
csv and bin formats, and the usage and domain refusals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path


def perturbed_gammas():
    """The Dirac-basis gammas under +--- with one entry of gamma^3 set to 7,
    as --gamma-file [re, im] pairs."""
    zero = [0, 0]
    one = ["1", 0]

    def diag(a, b, c, d):
        vals = [a, b, c, d]
        return [
            [vals[i] if i == j else zero for j in range(4)] for i in range(4)
        ]

    g0 = diag(one, one, ["-1", 0], ["-1", 0])
    g1 = [
        [zero, zero, zero, one],
        [zero, zero, one, zero],
        [zero, ["-1", 0], zero, zero],
        [["-1", 0], zero, zero, zero],
    ]
    g2 = [
        [zero, zero, zero, [0, "-1"]],
        [zero, zero, [0, "1"], zero],
        [zero, [0, "1"], zero, zero],
        [[0, "-1"], zero, zero, zero],
    ]
    g3 = [
        [zero, zero, one, zero],
        [zero, zero, zero, ["-1", 0]],
        [["-1", 0], zero, zero, zero],
        [zero, ["7", 0], zero, zero],  # wrong entry
    ]
    return [g0, g1, g2, g3]


def weyl_gammas(scale=1):
    """scale times the Weyl (chiral) basis, gamma^0 = sigma_1 x I and gamma^k =
    (i sigma_2) x sigma_k, as --gamma-file [re, im] string pairs."""
    pauli = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
    blocks = [(pauli[0], ((1, 0), (0, 1)))] + [(((0, 1), (-1, 0)), s) for s in pauli]

    def entry(value):
        return [str(int(value.real)), str(int(value.imag))]

    return [
        [[entry(scale * a[i // 2][j // 2] * b[i % 2][j % 2]) for j in range(4)] for i in range(4)]
        for a, b in blocks
    ]


INPUTS = {
    "weyl.json": json.dumps({"gamma": weyl_gammas()}),
    "i-weyl.json": json.dumps({"gamma": weyl_gammas(1j)}),
    "perturbed.json": json.dumps({"gamma": perturbed_gammas()}),
}

_KG = "q0:64:-9:9,q1:64:-9:9"
_GAUSS = "q:16:-5:5,p:16:-5:5"

RUNS = [
    # exact layer: star and bracket, both metrics, aliases and group powers
    ["star", "--expr1", "q0", "--expr2", "p0"],
    ["star", "--expr1", "q1", "--expr2", "p1", "--metric=-+++"],
    ["star", "--expr1", "x*px + y", "--expr2", "py^2*x - 1/3*i"],
    ["star", "--expr1", "(q0 + p0)^3", "--expr2", "(q1 - i*p1)^2*p0"],
    ["star", "--expr1", "2*(q2 + p2)*(q3 - p3)/5", "--expr2", "q2^2*p3", "--metric", "-+++"],
    ["star", "--expr1", "-(q0 - i)^0*3/4^2", "--expr2", "--q3", "--out", "star.txt"],
    ["star", "--expr1", "q0*p0", "--expr2", "p0*q0", "--manifest", "m.json"],
    ["star", "--expr1", "q0*p0*q1*p1*q2*p2*q3*p3 + 1/2", "--expr2", "(q0 + p1 + q2 + p3)^2"],
    ["bracket", "--expr1", "q0", "--expr2", "p0"],
    ["bracket", "--expr1", "q0*p1", "--expr2", "-p0", "--metric", "-+++"],
    ["bracket", "--expr1", "(x + py)^2", "--expr2", "y*px^3", "--out", "bracket.txt"],
    # exact sweeps
    ["algebra-check", "--degree", "1"],
    ["algebra-check", "--degree", "2", "--metric=-+++", "--out", "algebra.json"],
    ["casimir-check"],
    ["casimir-check", "--degree-p2", "1", "--metric=-+++"],
    ["clifford-check"],
    ["clifford-check", "--metric=-+++"],
    ["clifford-check", "--gamma-file", "weyl.json"],
    ["clifford-check", "--gamma-file", "weyl.json", "--metric=-+++"],
    ["clifford-check", "--gamma-file", "i-weyl.json", "--metric=-+++"],
    ["clifford-check", "--gamma-file", "perturbed.json"],
    ["dirac-square", "--degree", "1"],
    ["dirac-square", "--degree", "1", "--metric=-+++"],
    # grid layer
    ["kg-check", "--grid", _KG, "--tol", "1e-5"],
    ["kg-check", "--grid", _KG, "--tol", "1e-12"],
    ["kg-check", "--grid", _KG, "--metric=-+++", "--tol", "1e-5", "--out", "kg.json"],
    ["landau-spectrum"],
    ["landau-spectrum", "--n", "0..5", "--s", "-1", "--eB", "2", "--out", "levels.csv"],
    ["landau-eigen"],
    ["landau-eigen", "--n", "3", "--eB", "0.5", "--points", "41", "--out", "eigen.csv"],
    ["landau-eigen", "--n", "2", "--s", "-1", "--z-max", "12", "--points", "25"],
    ["landau-reduce-check", "--points", "12"],
    ["landau-reduce-check", "--n", "1", "--s", "-1", "--points", "12", "--out", "reduce.json"],
    ["wigner", "--grid", _GAUSS, "--out", "w.csv"],
    ["wigner", "--grid", _GAUSS, "--format", "bin", "--out", "w.bin"],
    ["wigner", "--kind", "landau", "--points", "8", "--out", "wl.csv"],
    ["wigner", "--kind", "landau", "--n", "1", "--s", "-1", "--points", "8",
     "--format", "bin", "--out", "wl.bin"],
    ["specfun-eval", "--function", "kummer-m", "--a", "0.5", "--b", "1.5", "--x", "0:5:11"],
    ["specfun-eval", "--function", "kummer-u", "--a", "1.5", "--x", "0.1:5:11"],
    ["specfun-eval", "--function", "laguerre", "--n", "3", "--x", "-5:-1:3", "--out", "lag.csv"],
    # usage refusals
    [],
    ["--version"],
    ["no-such-command"],
    ["star", "--expr1", "q0"],
    ["star", "--expr1", "-h", "--expr2", "p0"],
    ["star", "--expr1", "q0", "--expr2", "p0", "--metric", "++++"],
    ["algebra-check", "--degree", "1", "--format=csv"],
    ["landau-eigen", "--n", "x"],
    ["landau-spectrum", "--metric=+---"],
    ["wigner", "--out", "w", "--format", "json"],
    # domain refusals: the parser
    ["star", "--expr1", "q0 +", "--expr2", "p0"],
    ["star", "--expr1", "q9", "--expr2", "p0"],
    ["star", "--expr1", "foo", "--expr2", "p0"],
    ["star", "--expr1", "q0^100", "--expr2", "p0"],
    ["star", "--expr1", "q0/0", "--expr2", "p0"],
    ["star", "--expr1", "q0^²", "--expr2", "p0"],
    ["star", "--expr1", "(" * 65 + "q0" + ")" * 65, "--expr2", "p0"],
    ["star", "--expr1", "(q0 + p0 + q1 + p1)^20", "--expr2", "p0"],
    ["star", "--expr1", "(q0 + p0)^40*(q1 + p1)^40", "--expr2", "p0"],
    ["bracket", "--expr1", "q0", "--expr2", "p0 + @"],
    # domain refusals: the sweeps and gamma files
    ["algebra-check", "--degree", "0"],
    ["casimir-check", "--degree-w2", "0"],
    ["dirac-square", "--degree", "-1"],
    ["clifford-check", "--gamma-file", "missing.json"],
    # domain refusals: the grid layer
    ["kg-check", "--grid", "q0:8:-9:9,q1:8:-9:9,q2:8:-1:1,q3:8:-1:1"],
    ["kg-check", "--width", "0"],
    ["kg-check", "--tol", "-1"],
    ["kg-check", "--mass", "inf"],
    ["kg-check", "--grid", "q0:8:1000:2000,q1:8:1000:2000"],
    ["landau-spectrum", "--n", "1000"],
    ["landau-spectrum", "--eB", "nan"],
    ["landau-eigen", "--z-max", "0"],
    ["landau-eigen", "--n", "1000"],
    ["landau-eigen", "--eB", "1e-300"],
    ["landau-eigen", "--z-max", "1e4"],
    ["landau-eigen", "--tol", "nan"],
    ["landau-reduce-check", "--box", "inf"],
    ["landau-reduce-check", "--points", "8"],
    ["landau-reduce-check", "--imag-tol", "nan"],
    ["wigner", "--grid", "x:6:-3:3,y:6:-3:3,px:6:-3:3,py:6:-3:3"],
    ["wigner", "--kind", "landau", "--grid", _GAUSS],
    ["wigner", "--kind", "landau", "--box", "inf"],
    ["wigner", "--grid", "q:8:30:40,p:8:30:40"],
    ["specfun-eval", "--function", "laguerre", "--n", "1000", "--x", "0:1:2"],
    ["specfun-eval", "--function", "laguerre", "--x", "0:1:0"],
    ["specfun-eval", "--function", "laguerre", "--x", "1:2"],
    ["specfun-eval", "--function", "kummer-u", "--a", "nan", "--x", "1:2:3"],
    ["specfun-eval", "--function", "kummer-m", "--a", "1e6", "--b", "1", "--x", "0:5:3"],
]

# a manifest's wall time, whose value is blanked before hashing
_WALL_MS = re.compile(rb'"wall_ms": [^,\n}]*')


def run_digest(argv: list) -> str:
    """The sha256 of one in-process run of ``phaseq.cli.main(argv)``."""
    from phaseq.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in INPUTS.items():
            Path(work, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(here)
        parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
        for path in sorted(Path(work).iterdir()):
            if path.name in INPUTS:
                continue
            data = path.read_bytes()
            if path.name.endswith(".json"):
                data = _WALL_MS.sub(b'"wall_ms": null', data)
            parts += [path.name.encode(), data]
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d\n" % len(part))
        h.update(part)
    return h.hexdigest()


def label(argv: list) -> str:
    return shlex.join(argv)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_corpus.py SRC")
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    for argv in RUNS:
        print(run_digest(argv), label(argv))
