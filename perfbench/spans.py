"""Spans around the calls into each layer of cpvquad, and the per-layer
metrics computed from them.

The program is not changed: `installed` replaces the entry points of each
module with wrappers for the length of a traced run and puts the originals
back afterwards.  A span records its name, start, end and parent.  Spans of
the integrand and of random partitions are far too many to keep one by
one (up to 10^5 per operation), so they are folded into their parent span
as a call count and a total time.  A span's self time is its duration
less the time covered by its child spans and folded calls.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Callable, Optional

from cpvquad import cli, cpv, logbound, quadrature


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time",
                 "leaf_name", "leaf_calls", "leaf_time", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.leaf_name = ""
        self.leaf_calls = 0
        self.leaf_time = 0.0
        self.attrs: Optional[dict] = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time - self.leaf_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, Span]] = []

    def span(self, name: str, fn: Callable,
             post: Optional[Callable] = None,
             attrs: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; `post` maps its result, `attrs` records on it."""
        stack = self._stack
        spans = self.spans
        perf_counter = time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(spans)
            s = Span(name, stack[-1][0] if stack else -1)
            spans.append(s)
            stack.append((index, s))
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1].child_time += s.end - s.start
            if attrs is not None:
                s.attrs = attrs(result)
            return post(result) if post is not None else result
        return wrapped

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a function called many times per operation; its calls fold
        into the open span as a count and a total time."""
        stack = self._stack
        perf_counter = time.perf_counter

        def wrapped(*args):
            t0 = perf_counter()
            v = fn(*args)
            dt = perf_counter() - t0
            s = stack[-1][1]
            s.leaf_name = name
            s.leaf_calls += 1
            s.leaf_time += dt
            return v
        return wrapped

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, folded calls."""
        with open(path, "w", encoding="utf-8") as fp:
            for i, s in enumerate(self.spans):
                fp.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "leaf": s.leaf_name, "leaf_calls": s.leaf_calls,
                    "leaf_time": s.leaf_time, "attrs": s.attrs,
                }) + "\n")


def _adaptive_attrs(result) -> dict:
    return {"evaluations": result.evaluations, "converged": result.converged}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap each layer's entry points in spans for the life of the block."""
    compile_span = tracer.span(
        "expressions.compile_expression", cli.compile_expression,
        post=lambda f: tracer.leaf("expressions.eval", f))
    patches = [
        (cli, "main", tracer.span("cli.main", cli.main)),
        (cli, "compile_expression", compile_span),
        (cli, "cpv_standard", tracer.span("cpv.cpv_standard", cli.cpv_standard)),
        (cli, "cpv_general", tracer.span("cpv.cpv_general", cli.cpv_general)),
        (cpv, "cpv_standard", tracer.span("cpv.cpv_standard", cpv.cpv_standard)),
        (cpv, "cpv_general", tracer.span("cpv.cpv_general", cpv.cpv_general)),
        (cpv, "adaptive_integrate",
         tracer.span("quadrature.adaptive_integrate", cpv.adaptive_integrate,
                     attrs=_adaptive_attrs)),
        (cpv, "derivative_estimates",
         tracer.span("error_model.derivative_estimates",
                     cpv.derivative_estimates)),
        (cpv, "total_error_estimate",
         tracer.span("error_model.total_error_estimate",
                     cpv.total_error_estimate)),
        (logbound, "sweep", tracer.span("logbound.sweep", logbound.sweep)),
        (logbound, "random_partition",
         tracer.leaf("logbound.random_partition", logbound.random_partition)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def rule_build_ms(reps: int = 5) -> float:
    """Median cold build of the G7/K15 pair with its exactness checks."""
    times = []
    for _ in range(reps):
        quadrature.kronrod_pair_g7k15.cache_clear()
        quadrature.gauss_legendre_rule.cache_clear()
        t0 = time.perf_counter()
        quadrature.kronrod_pair_g7k15()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _per(total: float, count: float) -> float:
    """total / count, and 0 where the layer did no work."""
    return total / count if count else 0.0


#: name -> unit, in the order of the output.
LAYER_METRICS = {
    "quadrature.self_us_per_eval": "us",
    "quadrature.calls_per_op": "count",
    "quadrature.unconverged_calls_per_op": "count",
    "quadrature.converged_eval_frac": "fraction",
    "quadrature.rule_build_ms": "ms",
    "integrand.us_per_eval": "us",
    "expressions.compile_us_per_op": "us",
    "expressions.us_per_eval": "us",
    "cpv.self_us_per_op": "us",
    "error_model.us_per_op": "us",
    "error_model.estimate_over_error": "ratio",
    "cli.self_ms_per_op": "ms",
    "logbound.partition_ms_per_cell": "ms",
    "logbound.rest_ms_per_cell": "ms",
    "logbound.partitions_per_cell": "count",
}


def layer_metrics(tracer: Tracer, ops: int, build_ms: float,
                  estimate_over_error: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run of `ops` operations."""
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    leaf_calls: dict[str, int] = {}
    leaf_time: dict[str, float] = {}
    evals = converged_evals = unconverged = 0
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
        if s.leaf_calls:
            leaf_calls[s.leaf_name] = leaf_calls.get(s.leaf_name, 0) + s.leaf_calls
            leaf_time[s.leaf_name] = leaf_time.get(s.leaf_name, 0.0) + s.leaf_time
        if s.name == "quadrature.adaptive_integrate":
            evals += s.attrs["evaluations"]
            if s.attrs["converged"]:
                converged_evals += s.attrs["evaluations"]
            else:
                unconverged += 1

    def total(prefix: str) -> float:
        return sum(t for name, t in self_time.items() if name.startswith(prefix))

    cells = calls.get("logbound.sweep", 0)
    return {
        "quadrature.self_us_per_eval":
            _per(self_time.get("quadrature.adaptive_integrate", 0.0), evals) * 1e6,
        "quadrature.calls_per_op":
            _per(calls.get("quadrature.adaptive_integrate", 0), ops),
        "quadrature.unconverged_calls_per_op": _per(unconverged, ops),
        "quadrature.converged_eval_frac": _per(converged_evals, evals),
        "quadrature.rule_build_ms": build_ms,
        "integrand.us_per_eval":
            _per(leaf_time.get("integrand", 0.0), leaf_calls.get("integrand", 0)) * 1e6,
        "expressions.compile_us_per_op":
            _per(self_time.get("expressions.compile_expression", 0.0), ops) * 1e6,
        "expressions.us_per_eval":
            _per(leaf_time.get("expressions.eval", 0.0),
                 leaf_calls.get("expressions.eval", 0)) * 1e6,
        "cpv.self_us_per_op": _per(total("cpv."), ops) * 1e6,
        "error_model.us_per_op": _per(total("error_model."), ops) * 1e6,
        "error_model.estimate_over_error":
            statistics.median(estimate_over_error) if estimate_over_error else 0.0,
        "cli.self_ms_per_op": _per(self_time.get("cli.main", 0.0), ops) * 1e3,
        "logbound.partition_ms_per_cell":
            _per(leaf_time.get("logbound.random_partition", 0.0), cells) * 1e3,
        "logbound.rest_ms_per_cell":
            _per(self_time.get("logbound.sweep", 0.0), cells) * 1e3,
        "logbound.partitions_per_cell":
            _per(leaf_calls.get("logbound.random_partition", 0), cells),
    }
