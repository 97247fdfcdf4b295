"""The product runs without mpmath: only the tests and perfbench/ need it."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cpvquad

PACKAGE = Path(cpvquad.__file__).resolve().parent

# mpmath set to None in sys.modules makes every `import mpmath` raise
# ImportError, as on an install without it
WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
sys.path.insert(0, sys.argv[1])
import json
import math
from cpvquad import CpvProblem, cpv_standard, cli

result = cpv_standard(CpvProblem(f=math.exp, tau=0.5))
integrate = cli.main(["integrate", "--f", "exp(x)", "--tau", "0.5"])
bench = cli.main(["bench"])
print(json.dumps([result.converged, integrate, bench]))
"""


def test_library_integrate_and_bench_run_without_mpmath():
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_MPMATH, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [True, 0, 0]


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_package_module_imports_mpmath(path):
    top_level = {name.split(".")[0] for name in _imported_modules(path)}
    assert "mpmath" not in top_level
