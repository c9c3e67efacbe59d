import argparse
import json

import pytest

from phaseq.cli import build_parser, main


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
    bad = tmp_path / "gamma.json"
    bad.write_text(json.dumps({"gamma": [g0, g1, g2, g3]}))
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


_GAMMA_ROWS = [[["1", 0] if i == j else [0, 0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "doc",
    [
        {"gam": []},
        {"gamma": [_GAMMA_ROWS] * 3},
        {"gamma": [_GAMMA_ROWS] * 3 + [_GAMMA_ROWS[:3]]},
        {"gamma": [_GAMMA_ROWS] * 3 + [[[1] * 4] * 4]},
        {"gamma": [_GAMMA_ROWS] * 3 + [[[["1/0", 0]] * 4] * 4]},
    ],
    ids=["missing key", "3 matrices", "3x4 matrix", "bare-number entry", "zero denominator"],
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
    # which an absolute floor of 1e-7 would let pass
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "landau-eigen", "--eB", "1e-110")
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
