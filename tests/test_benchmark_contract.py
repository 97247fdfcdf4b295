"""The names the benchmark in perfbench/ calls and patches stay in place.

`perfbench/calls.py` reaches the program only through module attributes
looked up at call time, and `perfbench/spans.py` replaces a fixed list of
them with traced wrappers.  Tier-1 does not run the traced benchmark, so
these tests import both files by path, untouched, and run one operation of
each kind with the tracer installed and without it.  They also load
`perfbench/run.py` by path and run its set-up code, as a benchmark run
does before its rounds.
"""

import importlib
import importlib.util
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import cpvquad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py's dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


calls = _load("calls")
spans = _load("spans")
run = _load("run")


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


class _NamingTracer(spans.Tracer):
    """A tracer that keeps the name of every span and leaf it sets up."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def span(self, name, fn, **kwargs):
        self.names.add(name)
        return super().span(name, fn, **kwargs)

    def leaf(self, name, fn):
        self.names.add(name)
        return super().leaf(name, fn)


#: Names set up by the tracer that no operation reaches, with the reason.
#: The sweep draws its partitions through `logbound._cell_partitions`, not
#: through the public `random_partition` that the leaf wraps.
UNREACHED = {"logbound.random_partition"}


class TestTracedBenchmark:
    def test_traced_calls_return_what_untraced_calls_return(self):
        untraced = _operations()
        with spans.installed(_NamingTracer()) as tracer:
            traced = _operations()
        assert traced == untraced
        assert all(answer.converged for answer in untraced[:3])
        # every span patches a name that the program looks up when it
        # runs: a call routed around one leaves its layer's metrics at 0
        fired = {span.name for span in tracer.spans}
        fired |= {span.leaf_name for span in tracer.spans if span.leaf_calls}
        assert tracer.names - fired <= UNREACHED
        assert "quadrature.adaptive_integrate" in fired
        metrics = spans.layer_metrics(tracer, 4, 0.0, [])
        assert set(metrics) == set(spans.LAYER_METRICS)
        # the three principal values run the engine once each, the sweep
        # cell not at all
        assert metrics["quadrature.calls_per_op"] == 0.75
        assert metrics["quadrature.self_us_per_eval"] > 0.0


class TestBenchmarkSetUp:
    """What `perfbench/run.py` runs before its timed rounds.  A break there
    would fail every benchmark run while the rest of tier-1 passes."""

    def test_setup_code_runs_in_a_fresh_interpreter(self):
        # run.py's own helper, against the src of this checkout; it raises
        # if the child exits with an error
        assert run.SRC == PERFBENCH.parent / "src"
        assert run._child_seconds(run.SETUP_CODE) > 0.0

    def test_rule_build_is_timed(self):
        assert spans.rule_build_ms(1) > 0.0


@pytest.mark.parametrize(
    "name",
    ["cpvquad"] + [f"cpvquad.{info.name}"
                   for info in pkgutil.iter_modules(cpvquad.__path__)],
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
