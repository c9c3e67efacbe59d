"""The benchmark's tracer can still wrap, and then restore, the library.

``perfbench/tracer.py`` resolves its traced functions and methods by name
when it installs, so renaming a traced function or moving a traced method
out of its class breaks tracing. This test catches that in the ordinary
suite rather than only in a traced benchmark run.
"""

from pathlib import Path

import phaseq
import phaseq.cli  # noqa: F401  (the tracer wraps cli.main)
from phaseq.algebra import PhasePolynomial


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    original_star = phaseq.moyal_star
    original_mul = PhasePolynomial.__dict__["__mul__"]
    t = tracer.Tracer()
    try:
        t.install()
        assert phaseq.moyal_star is not original_star
        assert phaseq.star.moyal_star is phaseq.moyal_star
    finally:
        t.uninstall()
    assert phaseq.moyal_star is original_star
    assert phaseq.star.moyal_star is original_star
    assert PhasePolynomial.__dict__["__mul__"] is original_mul
