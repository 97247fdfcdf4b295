"""The product runs without mpmath: only the tests and perfbench/ need it.

Static checks of the package source sit here too: no module imports
mpmath, and no function takes a parameter it never reads.
"""

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


def _unread_parameters(path: Path) -> list[str]:
    """``function:parameter`` for each parameter, other than self and cls,
    that its function's body never names; a name used only in a nested
    function counts as read."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        unread.extend(f"{name}:{p.arg}" for p in params
                      if p.arg not in ("self", "cls") and p.arg not in named)
    return unread


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []
