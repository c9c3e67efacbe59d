import json

import pytest

from phaseq.cli import main


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
        ["wigner", "--out", "w", "--format", "json"],
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
    ],
)
def test_domain_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
