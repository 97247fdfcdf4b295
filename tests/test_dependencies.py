"""The product runs without mpmath: only the tests and perfbench/ need it.

Static checks of the package source sit here too: no module imports
mpmath, no module imports a name it never uses, no function takes a
parameter it never reads, every name the package root exports and every
function `cpvquad.error_model` exports (but the paper's bounds) has a
caller outside the tests, every private module-level function is named
in the package outside its own def, no node or weight of the quadrature
rules is transcribed twice, and no module but `cpvquad.error_model` names
a term of the budget's roundoff floor.
"""

import ast
import inspect
import io
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cpvquad
from cpvquad import error_model

PACKAGE = Path(cpvquad.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

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


def _module_imports(tree: ast.Module) -> list[ast.stmt]:
    """The import statements of a module body, those under ``if
    TYPE_CHECKING:`` included."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            body.extend(node.body)
    return [node for node in body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"]


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list[str]:
    """``line:name`` for each name a module-level import binds that the
    module at `path` never reads and its ``__all__`` does not list, unless
    the import's line carries ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = read | _exported(tree)
    unused = []
    for node in _module_imports(tree):
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[
                    alias.lineno - 1]:
                unused.append(f"{alias.lineno}:{name}")
    return unused


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    # no linter runs on the package, so this stands in for pyflakes' F401
    assert _unused_imports(path) == []


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


def _root_exports() -> dict[str, str]:
    """Each name the package root imports, with the module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _caller_texts(module: str) -> dict[str, str]:
    """The texts that may call a name defined in `module`, by file: the other
    package modules, the benchmark's modules and the README's library
    example."""
    paths = [p for p in PACKAGE.glob("*.py")
             if p.stem not in ("__init__", module)]
    paths += sorted((REPO / "perfbench").glob("*.py"))
    texts = {str(p): p.read_text(encoding="utf-8") for p in paths}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    texts["README.md"] = "".join(
        re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S))
    return texts


def _callers(name: str, module: str) -> list[str]:
    """The caller texts of `module`'s `name` that name it."""
    # a word-boundary search: perfbench/run.py names one inside a string
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return [path for path, text in _caller_texts(module).items()
            if pattern.search(text)]


@pytest.mark.parametrize("name", sorted(cpvquad.__all__))
def test_every_root_name_has_a_caller_outside_the_tests(name):
    module = _root_exports()[name]
    assert _callers(name, module), (
        f"{name} is named only by {module}.py and the tests")


#: Each package module's syntax tree, by file name.
PACKAGE_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}

#: ``(module file name, def)`` for each module-level function of the
#: package whose name starts with one underscore.
PRIVATE_FUNCTIONS = [
    (module, node) for module, tree in PACKAGE_TREES.items()
    for node in tree.body
    if isinstance(node, ast.FunctionDef)
    and node.name.startswith("_") and not node.name.startswith("__")
]


def _package_readers(own: ast.FunctionDef) -> int:
    """How many name nodes of the package name the function `own` defines,
    outside its own def."""
    inside = {id(node) for node in ast.walk(own)}
    return sum(1 for tree in PACKAGE_TREES.values()
               for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == own.name
               and id(node) not in inside)


@pytest.mark.parametrize(
    "own", [own for _, own in PRIVATE_FUNCTIONS],
    ids=[f"{module}:{own.name}" for module, own in PRIVATE_FUNCTIONS],
)
def test_every_private_function_is_read_in_the_package(own):
    # a private helper that only the tests call is dead code: the tests
    # compute what they need themselves
    assert _package_readers(own) > 0, (
        f"{own.name} is named only inside its own def, or by the tests")


# the paper's bounds, which README names as usable on their own
PAPER_BOUNDS = {"symmetric_quotient_roundoff", "difference_quotient_roundoff",
                "log_term_sensitivity", "cutoff_budget"}


@pytest.mark.parametrize("name", sorted(
    name for name in error_model.__all__
    if inspect.isfunction(getattr(error_model, name))
    and name not in PAPER_BOUNDS
))
def test_every_error_model_function_has_a_caller_outside_the_tests(name):
    assert _callers(name, "error_model"), (
        f"{name} is named only by error_model.py and the tests")


def _repeated_long_floats(path: Path, length: int = 30) -> list[str]:
    """The float literals of at least `length` characters that appear more
    than once in the source at `path`."""
    text = path.read_text(encoding="utf-8")
    literals = [tok.string
                for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.NUMBER and len(tok.string) >= length]
    return sorted({x for x in literals if literals.count(x) > 1})


def test_no_rule_literal_is_transcribed_twice():
    # a node shared by nested rules is one row of one table
    assert _repeated_long_floats(PACKAGE / "quadrature.py") == []


def _floor_terms_named(path: Path) -> list[str]:
    """``line:term`` for each use, in the source at `path`, of a term of the
    budget's roundoff floor (the fields of ErrorBudget after the three
    quadrature estimates) as a name, an attribute or a keyword.  A string
    does not count: "cutoff" is also the name of a method."""
    floor_terms = set(error_model.ErrorBudget._fields[3:])
    named = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        else:
            continue
        if name in floor_terms:
            named.append(f"{node.lineno}:{name}")
    return named


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "error_model.py"),
    ids=lambda p: p.name,
)
def test_only_error_model_names_a_floor_term(path):
    # a new term of the budget is then an edit to error_model.py alone
    assert _floor_terms_named(path) == []
