"""The benchmark's tracer can still wrap, and then restore, the library.

``perfbench/tracer.py`` resolves its traced functions and methods by name
when it installs, so renaming a traced function or moving a traced method
out of its class breaks tracing. This test catches that in the ordinary
suite rather than only in a traced benchmark run. The tracer counts the
grid layer's transforms only where they go through ``numpy.fft``, so a
second test pins the transforms one grid star makes.
"""

from pathlib import Path

import phaseq
import phaseq.cli  # noqa: F401  (the tracer wraps cli.main)
from phaseq import LandauParams, landau_amplitude, landau_grid
from phaseq.algebra import CR_I, CR_ZERO, ComplexRational, PhasePolynomial


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    return tracer


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer = load_tracer(monkeypatch)
    original_star = phaseq.moyal_star
    original_mul = PhasePolynomial.__dict__["__mul__"]
    coeff_ops = ("__add__", "__radd__", "__mul__", "__rmul__")
    original_coeff_ops = [ComplexRational.__dict__[name] for name in coeff_ops]
    t = tracer.Tracer()
    try:
        t.install()
        assert phaseq.moyal_star is not original_star
        assert phaseq.star.moyal_star is phaseq.moyal_star
        # one call of each wrapped method
        assert 1 + (2 * CR_I) * CR_I + 1 == CR_ZERO
        assert t.counts["algebra.coeff_ops"] == 4
    finally:
        t.uninstall()
    assert phaseq.moyal_star is original_star
    assert phaseq.star.moyal_star is original_star
    assert PhasePolynomial.__dict__["__mul__"] is original_mul
    assert [ComplexRational.__dict__[name] for name in coeff_ops] == original_coeff_ops


def test_grid_star_transforms_go_through_numpy_fft(monkeypatch):
    tracer = load_tracer(monkeypatch)
    spec = landau_grid(8, 3.0)
    amp = landau_amplitude(1, LandauParams(), spec)
    t = tracer.Tracer()
    try:
        t.install()
        phaseq.grid_star(amp, amp.conjugate())
    finally:
        t.uninstall()
    (qo, _, _), (qi, _, _) = spec.pairs
    n_outer, n_inner = spec.axes[qo].n, spec.axes[qi].n
    n_q = n_outer * n_inner
    n = spec.total_points
    # one line transform per p axis: per outer q-mode, f along the outer p
    # axis; per q-mode, f and g along the inner p axis and g along the
    # outer one on its 1/n_inner slice; then one inverse q transform, plus
    # fftn and ifftn in each bandlimit and the two forward transforms
    calls = n_outer + 3 * n_q + 1 + 2 * 2 + 2
    points = (n_outer + 2 * n_q + 1 + 2 * 2 + 2) * n + n_q * n // n_inner
    assert (calls, points) == (207, 618_496)
    assert t.calls["grids.grid_star"] == 1
    assert t.calls["grids.bandlimit"] == 2
    assert t.calls["fft"] == calls
    assert t.counts["fft.points"] == points


def test_one_confluent_call_per_table(monkeypatch, tmp_path, capsys):
    # EXPECTED_CALLS["grid-ops"] needs a confluent span for each function:
    # specfun-eval reaches each by its public name, once per table
    tracer = load_tracer(monkeypatch)
    monkeypatch.chdir(tmp_path)
    tables = [
        (["--function", "kummer-m", "--a", "-6", "--b", "2", "--x", "0:20:101"], "kummer_m"),
        (["--function", "kummer-m", "--a", "1.37", "--b", "2.11", "--x=-20:20:101"], "kummer_m"),
        (["--function", "kummer-m", "--a", "2.08", "--b", "1.08", "--x=-20:20:101"], "kummer_m"),
        (["--function", "kummer-u", "--a", "1.43", "--x", "0.1:5:101"], "kummer_u"),
        (["--function", "kummer-u", "--a=-3", "--x", "0.1:5:101"], "kummer_u"),
        (["--function", "laguerre", "--n", "7", "--x", "0:30:101"], "laguerre"),
    ]
    for argv, name in tables:
        t = tracer.Tracer()
        try:
            t.install()
            assert phaseq.cli.main(["specfun-eval", *argv]) == 0
        finally:
            t.uninstall()
        traced = {k: v for k, v in t.calls.items() if k.startswith("confluent.")}
        # U(-n, 1, x) = (-1)^n n! L_n(x) evaluates its table with laguerre
        also = {"confluent.laguerre": 1} if "--a=-3" in argv else {}
        assert traced == {f"confluent.{name}": 1, **also}, argv
        assert t.calls["cli.main"] == 1
    capsys.readouterr()
