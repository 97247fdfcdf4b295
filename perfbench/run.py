"""Benchmark of cpvquad: one closed-loop caller, four workloads.

    python3 perfbench/run.py --workload library --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cpvquad is imported from its
`src` directory and from nowhere else.  The run repeats whole rounds of the
workload's operations for at least `--seconds` seconds, checks every output
against references computed apart from the program, and prints as its last
line one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, with operation times
corrected for machine drift (see drift.py); with `--trace 1` they are the
per-layer ones, from spans around each layer (see spans.py), and the spans
are written to `perfbench/out/`.  The exit status is 1 when a check fails.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up interpreters started before and again after the timed rounds, so
#: the reported median spans two moments of the machine's speed.
SETUP_REPS = 4

#: Fixed work in a fresh interpreter that is none of the program's:
#: start-up and the numpy import.  Started just before each set-up
#: interpreter, it gives the machine's speed for process start and imports
#: at that moment (see time_setup).
REFERENCE_CODE = "import numpy"

#: Duration of the REFERENCE_CODE interpreter on the machine the bounds were
#: set on (2 cores, Python 3.11).  Only its constancy matters: it sets the
#: unit of `setup_s`.
NOMINAL_REFERENCE_S = 0.22

#: What a command-line user pays on every call: import, rules, references.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import cpvquad, cpvquad.cli, cpvquad.benchmarks; "
    "cpvquad.kronrod_pair_g7k15(); cpvquad.benchmarks.reference_values()"
)

#: name -> unit, in the order of the output; BENCHMARK.json adds the
#: direction and the bound of each.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "evals_per_op": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Attempts:
    """Every attempt of a run, in fixed-width arrays.

    One double and one unsigned int per attempt, and a running sum of the
    evaluations, so the harness's own memory hardly grows with the number
    of operations a run completes and `peak_rss_mb` stays the program's.
    """

    elapsed: array = field(default_factory=lambda: array("d"))   # raw s
    segments: array = field(default_factory=lambda: array("I"))  # drift
    evaluations: int = 0


def _import_program() -> None:
    """Import cpvquad from this checkout's src, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import cpvquad
    except ImportError as exc:
        sys.exit(f"error: cannot import cpvquad from {SRC}: {exc}")
    if Path(cpvquad.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: cpvquad was imported from {cpvquad.__file__}, "
                 f"not from {SRC}")


def _child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running `code`.

    No timeout: with one, subprocess polls the child every 50 ms, and the
    time comes out rounded to that step (set-up times fell on 0.22, 0.27
    and 0.32 s); without, it blocks in waitpid and returns as the child
    ends.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)],
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def time_setup(reps: int) -> list[tuple[float, float]]:
    """(set-up, reference) wall times of `reps` pairs of fresh interpreters.

    Process start and imports do not follow drift.py's loop: scaling by it
    did not steady the median.  A reference interpreter started just before
    each set-up interpreter does.  Over ten `stress` runs of 4 + 4 pairs,
    the median of set-up over reference spread 3.3 % where the raw median
    spread 16 %.
    """
    pairs = []
    for _ in range(reps):
        reference = _child_seconds(REFERENCE_CODE)
        pairs.append((_child_seconds(SETUP_CODE), reference))
    return pairs


def run_rounds(workloads, ops, seconds: float, clock):
    """Repeat whole rounds of `ops` for at least `seconds`.

    Returns the attempts, the number of rounds, the first round's verdicts,
    and the labels of unexpected failures.  An operation's output is checked
    in the first round; later rounds must reproduce it exactly.
    """
    attempts = Attempts()
    first = [None] * len(ops)
    verdicts = [None] * len(ops)
    unexpected = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            clock.maybe_sample()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, not a failed run
                out = exc
            elapsed = time.perf_counter() - t0
            if rounds == 0:
                first[i] = out
                verdicts[i] = workloads.judge(op, out)
                if verdicts[i].message is not None and not op.fault:
                    unexpected.append(f"{op.label}: {verdicts[i].message}")
            elif repr(out) != repr(first[i]):
                unexpected.append(f"{op.label}: output changed between rounds")
            attempts.elapsed.append(elapsed)
            attempts.segments.append(clock.segment)
            if not isinstance(out, Exception):
                attempts.evaluations += op.evaluations(out)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    clock.sample()
    return attempts, rounds, verdicts, unexpected


def end_to_end(attempts: Attempts, round_size: int, factors,
               setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, corrected for drift, and the raw figures.

    The percentiles are taken over the round's operations, each timed by its
    median over the rounds.  Pooled over all attempts, the median of the
    stress round fell at the edge of a group of equal-cost operations and
    spread 15 % from seed to seed; over per-operation medians it is steady.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = attempts.elapsed
    corrected = array("d", (t * factors[seg]
                            for t, seg in zip(raw, attempts.segments)))
    n = len(raw)

    def figures(times):
        per_op = [statistics.median(times[i::round_size])
                  for i in range(round_size)]
        return {
            "ops_per_s": n / sum(times),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1e3,
        }
    metrics = {"setup_s": setup_s, **figures(corrected),
               "evals_per_op": attempts.evaluations / n,
               "peak_rss_mb": peak_rss_mb}
    return metrics, figures(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("library", "cli", "stress", "observation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_program()
    import drift
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    wrap = (lambda f: tracer.leaf("integrand", f)) if tracer else (lambda f: f)
    ops = workloads.build(args.workload, args.seed, wrap)

    if tracer is None:
        setup = time_setup(SETUP_REPS)
        clock = drift.DriftClock()
        attempts, rounds, verdicts, unexpected = run_rounds(
            workloads, ops, args.seconds, clock)
        setup += time_setup(SETUP_REPS)
        setup_s = statistics.median(t * NOMINAL_REFERENCE_S / ref
                                    for t, ref in setup)
        metrics, raw = end_to_end(attempts, len(ops), clock.factors(),
                                  setup_s)
        raw["setup_s"] = statistics.median(t for t, _ in setup)
        info = {f"raw {name}": value for name, value in raw.items()}
        units = END_TO_END
    else:
        build_ms = spans.rule_build_ms()
        with spans.installed(tracer):
            clock = drift.DriftClock()
            attempts, rounds, verdicts, unexpected = run_rounds(
                workloads, ops, args.seconds, clock)
        ratios = [v.estimate_over_error for v in verdicts
                  if v.estimate_over_error is not None]
        metrics = spans.layer_metrics(tracer, len(attempts.elapsed), build_ms,
                                      ratios)
        # traced speed, for the tracing overhead; never an end-to-end figure
        traced, _ = end_to_end(attempts, len(ops), clock.factors(),
                               float("nan"))
        info = {"traced ops_per_s": traced["ops_per_s"]}
        units = spans.LAYER_METRICS
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")

    failed_per_round = sum(v.message is not None for v in verdicts)
    for op, v in zip(ops, verdicts):
        if v.message is not None:
            tag = op.fault or "UNEXPECTED"
            print(f"failed [{tag}] {op.label}: {v.message}")
    for line in dict.fromkeys(unexpected):
        print(f"unexpected: {line}", file=sys.stderr)
    print(f"rounds {rounds} of {len(ops)} ops; drift factor median "
          f"{statistics.median(clock.factors()):.4f}")
    for name, value in info.items():
        print(f"{name} {value!r}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(attempts.elapsed),
        "failed": failed_per_round * rounds,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
