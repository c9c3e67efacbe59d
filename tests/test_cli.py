import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from phaseq.cli import build_parser, main

from cli_corpus import INPUTS, perturbed_gammas, weyl_gammas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_pinned_example(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "star", "--expr1", "q0", "--expr2", "p0")
    assert code == 0
    assert out.strip() == "q0*p0 + 1/2*i"
    manifest = json.loads((tmp_path / "star-manifest.json").read_text())
    assert manifest["command"] == "star"
    assert manifest["pass"] is True
    assert set(manifest) == {
        "command",
        "params",
        "version",
        "metric",
        "outputs",
        "pass",
        "wall_ms",
    }


def test_star_metric_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "star", "--expr1", "q1", "--expr2", "p1", "--metric=-+++"
    )
    assert code == 0
    assert out.strip() == "q1*p1 + 1/2*i"
    code, out, _ = run(capsys, "star", "--expr1", "q1", "--expr2", "p1")
    assert out.strip() == "q1*p1 - 1/2*i"


def test_bracket(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "bracket", "--expr1", "q0", "--expr2", "p0")
    assert code == 0
    assert out.strip() == "i"


def test_parse_error_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "star", "--expr1", "q0 +", "--expr2", "p0")
    assert code == 2
    assert "error" in err
    assert not (tmp_path / "star-manifest.json").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_algebra_check_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "algebra-check", "--degree", "1", "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    # manifest file sits alongside the output
    manifest = json.loads(
        (tmp_path / "report.json.manifest.json").read_text()
    )
    assert manifest["outputs"] == [str(out_path)]


def test_clifford_check_and_perturbed_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "clifford-check")
    assert code == 0
    assert json.loads(out)["pass"] is True

    # perturb one entry of gamma^3 and expect a reported failure
    bad = tmp_path / "gamma.json"
    bad.write_text(json.dumps({"gamma": perturbed_gammas()}))
    code, out, _ = run(capsys, "clifford-check", "--gamma-file", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["failures"]


@pytest.mark.parametrize("metric", ["+---", "-+++"])
def test_clifford_check_stdout_pinned(tmp_path, capsys, monkeypatch, metric):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "clifford-check", f"--metric={metric}")
    assert code == 0
    assert err == ""
    assert out == (
        "{\n"
        '  "decomposition_constant": "-1j",\n'
        '  "failures": [],\n'
        '  "pass": true\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "metric, scale", [("+---", 1), ("-+++", 1j)], ids=["weyl +---", "i*weyl -+++"]
)
def test_clifford_check_passes_weyl_basis(tmp_path, capsys, monkeypatch, metric, scale):
    # a representation in another basis passes: alpha, Sigma and gamma5 are
    # derived from the supplied gammas, not borrowed from the Dirac basis
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps({"gamma": weyl_gammas(scale)}))
    code, out, err = run(
        capsys, "clifford-check", "--gamma-file", "weyl.json", f"--metric={metric}"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"decomposition_constant": "-1j", "failures": [], "pass": True}


_GAMMA_ROWS = [[["1", 0] if i == j else [0, 0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "doc",
    [
        {"gam": []},
        {"gamma": [_GAMMA_ROWS] * 3},
        {"gamma": [_GAMMA_ROWS] * 3 + [_GAMMA_ROWS[:3]]},
        {"gamma": [_GAMMA_ROWS] * 3 + [[[1] * 4] * 4]},
        {"gamma": [_GAMMA_ROWS] * 3 + [[[["1/0", 0]] * 4] * 4]},
        # Fraction would build 10**1000000 from these 9 characters
        {"gamma": [_GAMMA_ROWS] * 3 + [[[["1e1000000", 0]] * 4] * 4]},
    ],
    ids=[
        "missing key",
        "3 matrices",
        "3x4 matrix",
        "bare-number entry",
        "zero denominator",
        "huge exponent",
    ],
)
def test_malformed_gamma_file_exits_2(tmp_path, capsys, monkeypatch, doc):
    gamma_file = tmp_path / "gamma.json"
    gamma_file.write_text(json.dumps(doc))
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, err = run(capsys, "clifford-check", "--gamma-file", str(gamma_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(workdir.iterdir()) == []


def test_landau_spectrum_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "landau-spectrum", "--n", "0..5", "--s", "+1", "--eB", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == [
        "n",
        "s",
        "eB",
        "k",
        "kappa",
        "lambda2_paper",
        "lambda2_oracle",
    ]
    ks = [int(line.split(",")[3]) for line in lines[1:]]
    assert ks == [1, 3, 5, 7, 9, 11]
    assert "discrepancy" in err


def test_landau_eigen(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "eig.csv"
    code, _, err = run(
        capsys, "landau-eigen", "--n", "1", "--eB", "2", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "z,phi,ode_residual"
    assert "pass=true" in err


def test_landau_eigen_small_span_with_distinct_phi_passes(tmp_path, capsys, monkeypatch):
    # at --z-max 1e-12 the 301 rows still take 301 distinct values of phi,
    # so the table is not refused as below the resolution of phi
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "eig.csv"
    code, _, err = run(capsys, "landau-eigen", "--z-max", "1e-12", "--out", str(out_path))
    assert code == 0
    assert "pass=true" in err
    phi = [line.split(",")[1] for line in out_path.read_text().splitlines()[1:]]
    assert len(set(phi)) == 301


@pytest.mark.parametrize("eB", ["0.5", "1", "2"])
@pytest.mark.parametrize("n", ["16", "40", "999"])
def test_landau_eigen_high_levels_pass(tmp_path, capsys, monkeypatch, n, eB):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "landau-eigen", "--n", n, "--eB", eB)
    assert code == 0
    assert "pass=true" in err


def test_specfun_eval(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "specfun-eval",
        "--function",
        "laguerre",
        "--n",
        "2",
        "--x",
        "0:2:3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "-0.5", "-1"]


def test_specfun_eval_terminating_kummer_m_with_noninteger_b(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for a, b, x, value in (("-1", "2.5", "1:1:1", 0.6), ("-2", "0.5", "1:1:1", -5 / 3)):
        code, out, _ = run(
            capsys, "specfun-eval", "--function", "kummer-m", "--a", a, "--b", b, "--x", x
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == value


def test_specfun_eval_out_of_domain(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys,
        "specfun-eval",
        "--function",
        "kummer-u",
        "--a",
        "0.5",
        "--b",
        "2",
        "--x",
        "1:2:2",
    )
    assert code == 2
    assert "error" in err


def test_deterministic_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "wigner",
            "--kind",
            "gaussian",
            "--grid",
            "q:16:-5:5,p:16:-5:5",
            "--out",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_kg_check_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = "q0:64:-9:9,q1:64:-9:9"
    code, out, _ = run(capsys, "kg-check", "--grid", grid, "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "kg-check", "--grid", grid, "--tol", "1e-12")
    assert code == 1
    assert json.loads(out)["pass"] is False
    manifest = json.loads((tmp_path / "kg-check-manifest.json").read_text())
    assert manifest["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["landau-eigen", "--n", "1", "--eB", "1e-320"],
        ["wigner", "--grid", "x:6:-3:3,y:6:-3:3,px:6:-3:3,py:6:-3:3"],
        ["landau-eigen", "--z-max", "0"],
        ["landau-eigen", "--z-max", "-1"],
        ["specfun-eval", "--function", "kummer-m", "--a", "1e6", "--b", "1", "--x", "0:5:3"],
        ["specfun-eval", "--function", "kummer-m", "--a", "1e6", "--b", "1", "--x=-5:-1:3"],
        ["specfun-eval", "--function", "kummer-m", "--a=-1e9", "--b", "1", "--x", "0:1:2"],
        ["specfun-eval", "--function", "laguerre", "--n", "1000", "--x", "0:1:2"],
        ["landau-eigen", "--n", "1000"],
        ["wigner", "--kind", "landau", "--grid", "q:8:-3:3,p:8:-3:3"],
        ["landau-spectrum", "--n", "0..1000000000"],
        ["landau-spectrum", "--n", "1000"],
        ["landau-eigen", "--eB", "1e-300"],
        ["landau-eigen", "--eB", "1e-200"],
        ["landau-eigen", "--eB", "1e-160"],
        ["landau-spectrum", "--eB", "nan"],
        ["landau-spectrum", "--eB", "inf"],
        ["wigner", "--kind", "landau", "--eB", "nan"],
        ["landau-eigen", "--eB", "1e-154", "--n", "5"],
        ["landau-eigen", "--eB", "1e-110", "--n", "1"],
        ["landau-eigen", "--eB", "1.5e-154", "--n", "5"],
        ["landau-eigen", "--eB", "1e-140", "--n", "999"],
        ["kg-check", "--grid", "q0:8:-9:9,q1:8:-9:9,q2:8:-1:1,q3:8:-1:1"],
        ["kg-check", "--width", "0"],
        ["kg-check", "--width", "1e-170"],
        ["specfun-eval", "--function", "laguerre", "--x", "0:1:10000000000000"],
        ["landau-eigen", "--points", "10000000000000"],
        ["landau-reduce-check", "--box", "inf"],
        ["landau-reduce-check", "--box", "1e308"],
        ["wigner", "--kind", "landau", "--box", "inf"],
        ["kg-check", "--grid", "q0:8:-inf:9,q1:8:-9:9"],
        ["landau-eigen", "--z-max", "inf"],
        ["landau-reduce-check", "--box", "1e307"],
        ["kg-check", "--grid", "q0:8:-1e307:1e307,q1:8:-9:9"],
        ["wigner", "--kind", "landau", "--box", "1e200", "--points", "8"],
        ["wigner", "--kind", "landau", "--eB", "1e200", "--points", "8"],
        ["landau-reduce-check", "--eB", "1e200"],
        ["specfun-eval", "--function", "laguerre", "--x", "0:inf:3"],
        ["specfun-eval", "--function", "laguerre", "--x=-1e308:1e308:3"],
        ["kg-check", "--grid", "q0:8:1000:2000,q1:8:1000:2000"],
        ["wigner", "--kind", "landau", "--box", "1e150", "--points", "8"],
        ["wigner", "--kind", "landau", "--box", "1e-100", "--points", "8"],
        ["wigner", "--grid", "q:8:-1e-200:1e-200,p:8:-1e-200:1e-200"],
        ["kg-check", "--grid", "q0:8:-1e-200:1e-200,q1:8:-1e-200:1e-200"],
        ["wigner", "--kind", "landau", "--n", "8", "--box", "1e40", "--points", "8"],
        ["wigner", "--kind", "landau", "--n", "3", "--box", "1e60", "--points", "8"],
        ["landau-reduce-check", "--n", "8", "--box", "1e40", "--points", "9"],
        ["dirac-square", "--degree", "-1"],
        ["algebra-check", "--degree", "0"],
        ["casimir-check", "--degree-w2", "0"],
        ["wigner", "--grid", "q:8:30:40,p:8:30:40"],
        ["specfun-eval", "--function", "kummer-u", "--a", "nan", "--x", "1:2:3"],
        ["specfun-eval", "--function", "kummer-u", "--a", "inf", "--x", "1:2:3"],
        ["specfun-eval", "--function", "kummer-m", "--b", "nan", "--x", "0:1:2"],
        ["specfun-eval", "--function", "laguerre", "--n", "3", "--x", "0:1e300:3"],
        ["specfun-eval", "--function", "kummer-u", "--a", "-3", "--x", "0:1e300:3"],
        ["kg-check", "--mass", "inf"],
        ["kg-check", "--p1", "1e200"],
        ["kg-check", "--p0", "nan"],
        ["kg-check", "--tol", "nan"],
        ["kg-check", "--tol", "-1"],
        ["landau-eigen", "--tol", "nan"],
        ["landau-reduce-check", "--tol", "nan"],
        ["landau-reduce-check", "--imag-tol", "nan"],
        ["landau-eigen", "--z-max", "1e-300"],
        ["landau-eigen", "--z-max", "1e-20", "--n", "2"],
        ["star", "--expr1", "(" * 400 + "q0" + ")" * 400, "--expr2", "p0"],
        ["landau-eigen", "--z-max", "1e308"],
        ["landau-eigen", "--eB", "1e-110"],
        ["specfun-eval", "--function", "kummer-u", "--a=-200.5", "--b", "1", "--x", "1:2:3"],
        ["specfun-eval", "--function", "kummer-u", "--a=-175.5", "--x", "1:2:3"],
        ["specfun-eval", "--function", "kummer-u", "--a", "172", "--x", "1:2:3"],
        ["specfun-eval", "--function", "laguerre", "--x", "0:1:0"],
        ["specfun-eval", "--function", "laguerre", "--x", "0:1:-1"],
        # phi holds 23 and 3 distinct nonzero values on the 301 rows
        ["landau-eigen", "--z-max", "1e4"],
        ["landau-eigen", "--z-max", "1e5"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_domain_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv):
    # a numpy warning before the refusal fails the row
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


_CLIFFORD_PASS = "f2f6cefe3fd40b934fe8668d2027d7e19b42566981f9aae613ca7cbdd6e7f5c2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["algebra-check"], "6743cf0ef905a376d2588e65bd203dfa273d7a384a9506b1c4985a288b78b93e"),
        (["algebra-check", "--degree", "2", "--metric=-+++"],
         "7935f57ccfacbfc916852af33f837322bedffdf43c67fc82ee5f6f988d987c79"),
        (["casimir-check"], "98f273b0e58a673188eef5725192dab0c852eab4aecfc08d9d64e54d915270a1"),
        (["casimir-check", "--degree-p2", "3", "--degree-w2", "2"],
         "169e011fcea8a6fdb586415dcd2993290a0ab5afcb36e4489d784e92045af6dc"),
        (["dirac-square"], "fb3ee9c874f0b9aaea33f1178c16a723d2e8d4cb8b55a3d4eaf9878a8f6b7cc4"),
        (["dirac-square", "--metric=-+++"],
         "fb3ee9c874f0b9aaea33f1178c16a723d2e8d4cb8b55a3d4eaf9878a8f6b7cc4"),
        (["clifford-check"], _CLIFFORD_PASS),
        (["clifford-check", "--metric=-+++"], _CLIFFORD_PASS),
        (["clifford-check", "--gamma-file", "weyl.json"], _CLIFFORD_PASS),
        (["clifford-check", "--gamma-file", "i-weyl.json", "--metric=-+++"], _CLIFFORD_PASS),
        (["clifford-check", "--gamma-file", "weyl.json", "--metric=-+++"],
         "70d8105f7ffe3550f3fdb1a28026c8debe0ef69fa08a10ab06de7ff1ac8067a4"),
        (["clifford-check", "--gamma-file", "perturbed.json"],
         "d03981a631651d8d847d1a84c74d184967e1be688206508fccaae6cc6a766307"),
        (["clifford-check", "--gamma-file", "perturbed.json", "--metric=-+++"],
         "3c9b64f3a144dd828add6a5f32fbf834fd61dfe0f1f2bd7f5308477943d8085a"),
    ],
)
def test_sweep_outputs_pinned(tmp_path, capsys, monkeypatch, argv, digest):
    # the sha256 of each sweep's stdout, as printed by the multiply-everything
    # sweep and, for clifford-check, by the matrix product that star-multiplied
    # all 64 entry pairs
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, *argv)
    # exit 1 exactly when the pinned report fails (the perturbed file, and
    # the Weyl gammas under the metric they do not represent)
    assert code == (0 if json.loads(out)["pass"] else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--function", "kummer-u", "--a=-200.5", "--x", "1:2:3"],
         "U(a, 1, x) needs 1/Gamma(a) as a finite float, which a = -200.5 does not give"),
        (["--function", "kummer-u", "--a=-175.5", "--x", "1:2:3"],
         "U(a, 1, x) needs 1/Gamma(a) as a finite float, which a = -175.5 does not give"),
        (["--function", "kummer-u", "--a", "172", "--x", "1:2:3"],
         "U(a, 1, x) needs 1/Gamma(a) as a finite float, which a = 172.0 does not give"),
        (["--function", "kummer-u", "--a", "172", "--x", "0:2:3"], "U(a, 1, x) requires x > 0"),
        (["--function", "laguerre", "--x", "0:1:0"], "--x asks for 0 rows; a table needs at least 1"),
        (["--function", "laguerre", "--x", "0:1:-1"], "--x asks for -1 rows; a table needs at least 1"),
    ],
)
def test_specfun_eval_refusal_messages(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "specfun-eval", *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["specfun-eval", "--function", "kummer-m", "--a", "-3", "--b", "1", "--x", "0:20:101"],
         "1e68f5eaf9f5ceeb24fe9d39bd14125462e7ba456357aa2cd90216f0a8d7f3cf"),
        (["specfun-eval", "--function", "kummer-m", "--a", "-6", "--b", "2", "--x", "0:20:101"],
         "bd95a2ba187bdf29500054cca93350aa261333d720c01c03eb5fe07365f7ca1a"),
        (["specfun-eval", "--function", "kummer-m", "--a", "1.37", "--b", "2.11", "--x=-20:20:101"],
         "4c46db50b802864d76072d0bfb0c3d99d3beb190cfb2947d72d648dedac67ee6"),
        (["specfun-eval", "--function", "kummer-m", "--a", "2.08", "--b", "1.08", "--x=-20:20:101"],
         "8a9488a9ebc93333b319f553128769111caa15dfe4b752b51eb89461d92b236b"),
        (["specfun-eval", "--function", "kummer-m", "--a=-2", "--b", "0.5", "--x=-5:5:11"],
         "185ac64461b498f4760bd8ebfc269923afac8ef277a61b8d701252109b24ccb5"),
        (["specfun-eval", "--function", "kummer-m", "--a", "0.7", "--b", "1.3", "--x=-45:45:91"],
         "3e9f445c1f6ec074cbbeaf4b03cc63306c766c865d2081c0f0c720787c7d2580"),
        (["specfun-eval", "--function", "kummer-m", "--a=-1", "--b=-2", "--x", "0:3:7"],
         "4216eb56328d64372d6be3a70c493f41e012eb78f61d01bcaf0d0072d08750f3"),
        (["specfun-eval", "--function", "kummer-m", "--a", "7.5", "--b", "3.5", "--x=-7.5:-7.5:1"],
         "3315e8ecdeab0d90bbcf63f7b7cc454333c7161f27d2eae6c507307217f43a45"),
        (["specfun-eval", "--function", "kummer-m", "--a", "0", "--b", "1", "--x", "0:5:6"],
         "765fa17cb7095171d898b794d6df308cddffac1d63fe27cb40646ad9a82a49d4"),
        (["specfun-eval", "--function", "kummer-u", "--a", "1.43", "--x", "0.1:5:101"],
         "df33ea2b5d12c6893b27343ab7e345af1731ee64c908253e708b0b49b157de17"),
        (["specfun-eval", "--function", "kummer-u", "--a", "0.3", "--x", "0.05:10:40"],
         "f14d60dfd187fdccb7ef2f8b8b6aba33e4da9769ba4080649af6bcdecb11b376"),
        (["specfun-eval", "--function", "kummer-u", "--a=-3", "--x", "0:10:21"],
         "a83d36db8e9e4dddceca17481c6079353980d484546086b3282a91158cd00f19"),
        (["specfun-eval", "--function", "kummer-u", "--a", "0", "--x", "0:10:21"],
         "20cc6433c4fa3014e173782d740bd66daf3d648e9bc50281d154d3f4a3e5f4ca"),
        (["specfun-eval", "--function", "kummer-u", "--a", "2.3", "--x", "8.97948717948718:8.97948717948718:1"],
         "c5990f515df37efa626ca8d3ee83616a9f540a4dec094d356ffbc28ace72e778"),
        (["specfun-eval", "--function", "laguerre", "--n", "7", "--x", "0:30:101"],
         "87f50455f67573f29b6d920dfefe20984e889114c0b3a7e1976743d5d2eb174c"),
        (["specfun-eval", "--function", "laguerre", "--n", "0", "--x", "0:1:5"],
         "c7852c2ac39b4a68a126953c525583773871c274a64d6106f118c0e2b5436dc3"),
        (["specfun-eval", "--function", "laguerre", "--n", "999", "--x", "0:2:11"],
         "e5d1bdb1717d9f787c10d0447e1b4128a5ea99e68afe3dc694aaae9558347cd5"),
        (["landau-eigen"],
         "313d96da20658466a3b35e8068e831edd8f38670505328d3ed1784eac545fe17"),
        (["landau-eigen", "--n", "5", "--eB", "0.5", "--s=-1"],
         "eede3e9e9513d0f85eb59e52f17793131ae032c023b67acee625d0af8d5aeea1"),
        (["landau-eigen", "--n", "40", "--eB", "2"],
         "cd42806d54a6f4ff2dc14caafc90a5988a49765e3cf937460ca19a408fb8d2a1"),
        (["landau-eigen", "--n", "8", "--points", "11"],
         "86f0d3401fc24d59b07a53ed837b718bfc10e35d0ebac243ced7f54c80f2e0db"),
    ],
)
def test_table_outputs_pinned(tmp_path, capsys, monkeypatch, argv, digest):
    # the sha256 of each table's stdout, as the per-row route printed it
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, points, s, digest",
    [
        (0, 16, "1", "a3c6006fee74185d4a3a18aa56e4c0ac3b5af2f405e7b15cf0252ee5f4368c83"),
        (0, 16, "-1", "cfb81720fbedf540bb261b0372454ac9719f98069373f3142681018f1d57867f"),
        (0, 20, "1", "0a755a758630034e0ed5a1084d76f0952bf1187b1214e76b23ec86f689f95415"),
        (0, 20, "-1", "bac248325b27d8b17ac3d253fc0aca04bfc63a1b6d2fa421bf39fec29e843a35"),
        (1, 16, "1", "8fba4d2bb77df530ca754e1cdc85e0ac816b78daa18b7071333f0139f8d33197"),
        (1, 16, "-1", "6e601b2461fbc9b9b6745d6c4f98a42836be9b3b18a8b14b93f910c0dc7b075b"),
        (1, 20, "1", "957da6aaddd05ec951a1aefaef259a35a759728bd6443acc5ee9ac77fab35587"),
        (1, 20, "-1", "3a025a6a94568889553dcc73fdec208dfc93a600598d87d1f55f4e139f7b244c"),
        (2, 20, "1", "9fc1e3107274d1fdd24c0325c79d45b654f5906a50de791b0f03fca79033c467"),
        (2, 20, "-1", "01003323e699abe664f0170699ed8dd32c060b561da5fb07c17eeb5f08946162"),
    ],
)
def test_landau_reduce_check_outputs_pinned(tmp_path, capsys, monkeypatch, n, points, s, digest):
    # the sha256 of the report for the (n, points) cases the benchmark draws,
    # as printed since fd_derivative applies its stencil as a Fourier multiplier
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "landau-reduce-check", "--n", str(n), "--points", str(points), f"--s={s}"
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, line",
    [
        ([], "n=0 eB=1 kappa=1 max_rel_residual=1.1102230246251565e-16 rayleigh=1"),
        (["--n", "5", "--eB", "0.5", "--s=-1"],
         "n=5 eB=0.5 kappa=5.5 max_rel_residual=1.3322676295501878e-15 rayleigh=5.5"),
        (["--n", "40", "--eB", "2"],
         "n=40 eB=2 kappa=162 max_rel_residual=6.1106675275368616e-13 rayleigh=161.99999999999997"),
        (["--n", "8", "--points", "11"],
         "n=8 eB=1 kappa=17 max_rel_residual=8.8817841970012523e-16 rayleigh=16.999999999999996"),
    ],
)
def test_landau_eigen_summary_lines_pinned(tmp_path, capsys, monkeypatch, argv, line):
    # the residual and Rayleigh quotient that the analytic derivatives give,
    # for the tables test_table_outputs_pinned pins
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "landau-eigen", *argv)
    assert (code, err) == (0, f"{line} pass=true\n")


def run_or_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "head, option, value",
    [
        (["specfun-eval", "--function", "kummer-m", "--a", "1e6", "--b", "1"], "--x", "-5:-1:3"),
        (["specfun-eval", "--function", "kummer-m", "--b", "1", "--x", "0:1:2"], "--a", "-1e9"),
        (["specfun-eval", "--function", "laguerre", "--n", "2"], "--x", "-2:0:3"),
        (["star", "--expr1", "q1", "--expr2", "p1"], "--metric", "-+++"),
        (["star", "--expr1", "q1"], "--expr2", "-p1"),
    ],
)
def test_dash_value_space_form_matches_equals_form(tmp_path, capsys, monkeypatch, head, option, value):
    monkeypatch.chdir(tmp_path)
    spaced = run_or_exit(capsys, [*head, option, value])
    joined = run_or_exit(capsys, [*head, f"{option}={value}"])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("flag", ["-h", "--help", "--version"])
def test_help_and_version_are_never_option_values(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_or_exit(capsys, ["star", "--expr1", flag, "--expr2", "p0"])
    assert code == 2
    assert out == ""
    assert "argument --expr1: expected one argument" in err


def test_wigner_format_json_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--out", "w", "--format", "json"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_landau_eigen_rayleigh_check_is_relative(tmp_path, capsys, monkeypatch):
    # at eB = 1e-110 the Rayleigh quotient is off by half of kappa = 1e-110,
    # which an absolute floor of 1e-7 would let pass; --z-max 1e-108 keeps phi
    # nonzero on every row (up to the default 30 it is nonzero on row 0 alone)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "landau-eigen", "--eB", "1e-110", "--z-max", "1e-108")
    assert code == 1
    assert "pass=false" in err
    code, _, err = run(capsys, "landau-eigen", "--n", "0", "--eB", "0.5")
    assert code == 0
    assert "pass=true" in err


_MINIMAL_ARGS = {
    "star": ["--expr1", "q0", "--expr2", "p0"],
    "bracket": ["--expr1", "q0", "--expr2", "p0"],
    "algebra-check": ["--degree", "0"],
    "casimir-check": [],
    "clifford-check": [],
    "dirac-square": ["--degree", "0"],
    "kg-check": ["--grid", "q0:16:-9:9,q1:16:-9:9"],
    "landau-spectrum": [],
    "landau-eigen": [],
    "landau-reduce-check": [],
    "wigner": ["--grid", "q:16:-5:5,p:16:-5:5"],
    "specfun-eval": ["--function", "laguerre"],
}
_NO_METRIC = ["landau-spectrum", "landau-eigen", "landau-reduce-check", "wigner", "specfun-eval"]


@pytest.mark.parametrize(
    "command, option",
    [(c, "--format") for c in _MINIMAL_ARGS if c != "wigner"]
    + [(c, "--metric") for c in _NO_METRIC],
)
def test_options_are_taken_only_where_read(tmp_path, capsys, monkeypatch, command, option):
    # --format is read by wigner alone, --metric by the exact checks and kg-check
    monkeypatch.chdir(tmp_path)
    value = "csv" if option == "--format" else "+---"
    with pytest.raises(SystemExit) as exc:
        main([command, *_MINIMAL_ARGS[command], f"{option}={value}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    if option == "--metric":
        # a subcommand without --metric still records the default signature
        main([command, *_MINIMAL_ARGS[command]])
        manifest = json.loads((tmp_path / f"{command}-manifest.json").read_text())
        assert manifest["metric"] == "+---"


# one row per subcommand, keyed by its name, plus two more level ranges
_PARAMS_ROWS = {
    "star": (["star", "--expr1", "q0", "--expr2", "p0"], {"expr1": "q0", "expr2": "p0"}),
    "bracket": (
        ["bracket", "--expr1", "q0*p1", "--expr2", "-p0", "--metric", "-+++"],
        {"expr1": "q0*p1", "expr2": "-p0"},
    ),
    "algebra-check": (["algebra-check", "--degree", "1"], {"degree": 1}),
    "casimir-check": (["casimir-check"], {"degree_p2": 2, "degree_w2": 1}),
    "clifford-check": (["clifford-check"], {"gamma_file": None}),
    "dirac-square": (["dirac-square", "--degree", "1"], {"degree": 1}),
    "kg-check": (
        ["kg-check", "--grid", "q0:64:-9:9,q1:64:-9:9", "--width", "2.5", "--tol", "1e-5"],
        {"grid": "q0:64:-9:9,q1:64:-9:9", "p0": 0.7, "p1": 0.3, "mass": 1.0, "width": 2.5, "tol": 1e-05},
    ),
    "landau-spectrum": (["landau-spectrum"], {"n": [0], "s": 1, "eB": 1.0}),
    "landau-spectrum-range": (
        ["landau-spectrum", "--n", "0..3", "--s", "-1", "--eB", "2"],
        {"n": [0, 1, 2, 3], "s": -1, "eB": 2.0},
    ),
    "landau-spectrum-single": (["landau-spectrum", "--n", "2"], {"n": [2], "s": 1, "eB": 1.0}),
    "landau-eigen": (
        ["landau-eigen", "--n", "1", "--points", "11"],
        {"n": 1, "s": 1, "eB": 1.0, "z_max": 30.0, "points": 11, "tol": 1e-09},
    ),
    "landau-reduce-check": (
        ["landau-reduce-check", "--points", "12", "--imag-tol", "0.001"],
        {"n": 0, "s": 1, "eB": 1.0, "points": 12, "box": 1.7, "tol": 0.005, "imag_tol": 0.001},
    ),
    "wigner": (
        ["wigner", "--grid", "q:16:-5:5,p:16:-5:5"],
        {
            "kind": "gaussian",
            "n": 0,
            "s": 1,
            "eB": 1.0,
            "points": 12,
            "box": 3.0,
            "grid": "q:16:-5:5,p:16:-5:5",
            "format": "csv",
        },
    ),
    "specfun-eval": (
        ["specfun-eval", "--function", "laguerre", "--n", "2", "--x", "0:2:3"],
        {"function": "laguerre", "a": 0.0, "b": 1.0, "n": 2, "x": "0:2:3"},
    ),
}


def _manifest_params(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return json.loads((tmp_path / f"{argv[0]}-manifest.json").read_text())["params"]


@pytest.mark.parametrize("row", list(_PARAMS_ROWS))
def test_manifest_params_pinned(tmp_path, capsys, monkeypatch, row):
    argv, params = _PARAMS_ROWS[row]
    assert _manifest_params(tmp_path, capsys, monkeypatch, argv) == params


def _subcommands():
    parser = build_parser()
    return next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )


@pytest.mark.parametrize("command", list(_subcommands()))
def test_manifest_params_are_the_option_dests(tmp_path, capsys, monkeypatch, command):
    # every option a subcommand takes is recorded, apart from where the
    # outputs go and the metric, which the manifest holds under "metric"
    dests = {
        a.dest for a in _subcommands()[command]._actions if a.option_strings
    } - {"help", "out", "manifest", "metric_label"}
    argv, _ = _PARAMS_ROWS[command]
    assert set(_manifest_params(tmp_path, capsys, monkeypatch, argv)) == dests


def _readme_command_lines():
    """The `phaseq ...` lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("phaseq ")]


@pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_examples_run(tmp_path, capsys, monkeypatch, line):
    # optional [...] groups are dropped; a trailing "# result" is the expected stdout
    monkeypatch.chdir(tmp_path)
    command, _, result = line.partition("#")
    argv = shlex.split(re.sub(r"\[[^\]]*\]", "", command))[1:]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if result:
        assert out == result.strip() + "\n"


def _run_in_process(tmp_path, capsys, argv):
    """Exit code, stdout, stderr and manifest params of one main call,
    a SystemExit counted as its exit code."""
    code, out, err = run_or_exit(capsys, argv)
    manifest = tmp_path / f"{argv[0]}-manifest.json"
    params = json.loads(manifest.read_text())["params"] if manifest.exists() else None
    if manifest.exists():
        manifest.unlink()
    return code, out, err, params


def test_shared_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # every _PARAMS_ROWS command twice in one process, with a usage error and
    # --version in between; the second pass must repeat the first
    monkeypatch.chdir(tmp_path)
    first = [_run_in_process(tmp_path, capsys, argv) for argv, _ in _PARAMS_ROWS.values()]
    code, _, err, _ = _run_in_process(tmp_path, capsys, ["landau-eigen", "--n", "x"])
    assert code == 2 and "invalid int value" in err
    code, out, _, _ = _run_in_process(tmp_path, capsys, ["--version"])
    assert code == 0 and out.strip()
    second = [_run_in_process(tmp_path, capsys, argv) for argv, _ in _PARAMS_ROWS.values()]
    assert second == first
    assert [row[3] for row in first] == [params for _, params in _PARAMS_ROWS.values()]


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert run(capsys, "landau-spectrum")[0] == 0
    assert run(capsys, "landau-spectrum", "--n", "2")[0] == 0
    assert len(seen) == 2 and seen[0] is seen[1]


def test_import_builds_neither_the_parser_nor_the_quadrature_rule():
    # both are built on first use, so importing the CLI computes nothing
    code = (
        "import phaseq.cli, phaseq.landau; "
        "print(phaseq.cli._shared_parser.cache_info().currsize, "
        "phaseq.landau._gauss_legendre_400.cache_info().currsize)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert proc.stdout.split() == ["0", "0"]
