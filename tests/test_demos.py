import runpy
from pathlib import Path

import numpy as np
import pytest

from phaseq import Field, inner_product

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_library_blocks():
    """The Python blocks of README's "Library quick start" section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, capsys, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_examples_run(capsys):
    # the star-product block prints its commented result; the Wigner block's
    # fw is real to rounding with trace ||amp||^2, to the wigner CLI's tolerances
    star_block, wigner_block = _readme_library_blocks()
    exec(star_block, {})
    assert capsys.readouterr().out == "q0*p0 + 1/2*i\n"
    scope = {}
    exec(wigner_block, scope)
    fw, amp = scope["fw"], scope["amp"]
    peak = np.max(np.abs(fw.values))
    assert np.max(np.abs(fw.values.imag)) <= 1e-8 * peak
    trace = inner_product(Field(fw.spec, np.ones(fw.spec.shape)), fw).real
    norm = inner_product(amp, amp).real
    assert abs(trace - norm) <= 1e-6 * norm
