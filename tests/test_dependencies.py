"""The package's runtime needs numpy alone; scipy serves only the tests."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A fresh interpreter in which importing scipy fails, as in an environment
# that installed only the runtime dependencies.
_WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, RefuseScipy())
import phaseq
import phaseq.cli
from phaseq.confluent import _psi_of_integers
built = _psi_of_integers.cache_info().currsize
codes = [
    phaseq.cli.main(["specfun-eval", "--function", "kummer-u", "--a", "1.5", "--x", "0.1:5:101"]),
    phaseq.cli.main(["landau-eigen"]),
]
print(json.dumps({"codes": codes, "built_at_import": built, "scipy": "scipy" in sys.modules}))
"""


def test_package_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True, text=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "built_at_import": 0, "scipy": False}


def _third_party_imports(path):
    """The top-level names of the modules a source file imports, less the
    standard library and the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "phaseq"}


def test_runtime_dependencies_are_the_imports_of_src():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]]
    imported = set()
    for path in sorted((ROOT / "src" / "phaseq").glob("*.py")):
        imported |= _third_party_imports(path)
    assert declared == ["numpy"]
    assert imported == set(declared)
