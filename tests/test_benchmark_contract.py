"""The names the benchmark in perfbench/ calls and patches stay in place.

`perfbench/calls.py` reaches the program only through module attributes
looked up at call time, and `perfbench/spans.py` replaces a fixed list of
them with traced wrappers.  Tier-1 does not run the traced benchmark, so
these tests import both files by path, untouched, and run one operation of
each kind with the tracer installed and without it.
"""

import importlib
import importlib.util
import math
import pkgutil
from pathlib import Path

import pytest

import cpvquad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calls = _load("calls")
spans = _load("spans")


def _sine(x: float) -> float:
    return math.sin(3.0 * x)


def _operations():
    """One library call on the reference interval, one on another interval,
    one command-line call and one sweep cell."""
    return [
        calls.solve(math.exp, 0.5, -1.0, 1.0, 1e-12),
        calls.solve(_sine, 1.3, 1.0, 2.0, 1e-12),
        calls.solve_cli("exp(x)", 0.5, -1.0, 1.0, 1e-12),
        calls.sweep_cell(3, 2, 4, 0),
    ]


class TestTracedBenchmark:
    def test_traced_calls_return_what_untraced_calls_return(self):
        untraced = _operations()
        with spans.installed(spans.Tracer()) as tracer:
            traced = _operations()
        assert traced == untraced
        assert all(answer.converged for answer in untraced[:3])
        names = {span.name for span in tracer.spans}
        assert {"cli.main", "expressions.compile_expression",
                "cpv.cpv_standard", "cpv.cpv_general",
                "logbound.sweep"} <= names
        metrics = spans.layer_metrics(tracer, 4, 0.0, [])
        assert set(metrics) == set(spans.LAYER_METRICS)


@pytest.mark.parametrize(
    "name",
    ["cpvquad"] + [f"cpvquad.{info.name}"
                   for info in pkgutil.iter_modules(cpvquad.__path__)],
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
