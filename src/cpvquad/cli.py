"""Command line front end: one-off integrals, the battery, the sweep.

Exit codes follow the usual convention: 0 for success, 1 when a result was
computed but failed its quality gate (requested tolerance not met, battery
bound violated, sweep ratio out of range) or could not be computed because
the integrand or a quotient of it turned non-finite, 2 for unusable flags,
among them an --f expression that does not parse or is nested too deeply
and an output path that cannot be written.  A result that fails its gate
is still printed; a near-endpoint singularity, for example, carries an
honest error floor far above any requested tolerance, and the caller
decides what to do with it.  A jump of f at tau prints a NaN value with an
infinite estimate (null in --json) and exits 1.

A well-formed ``integrate`` call, each flag by its full name as
``--name=value``, ``--name value`` or a bare ``--json``, is read by
:func:`_read_integrate` without argparse.  Every other call, among them
help, ``--version``, an abbreviated or unknown flag, a missing or bad
value, ``--``, ``bench`` and ``observation``, goes to argparse, which
reads or refuses it as it always has; argparse is imported only then.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .cpv import CpvProblem, CpvResult, cpv_standard
# unused here, but perfbench/spans.py patches cli.cpv_general by name
from .cpv import cpv_general  # noqa: F401
from .expressions import _NUMBER, ParseError, compile_expression
from .quadrature import NonfiniteIntegrandError

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

#: One encoder for every printed result, where ``json.dumps(...,
#: allow_nan=False)`` would build one per call; a result's JSON form holds
#: no NaN or infinity.
_JSON = json.JSONEncoder(allow_nan=False)

#: ``integrate``'s flags by name, as the keywords of argparse's
#: ``add_argument``; its parser and :func:`_read_integrate` both read them.
_INTEGRATE_FLAGS = {
    "f": dict(required=True, metavar="EXPR",
              help="integrand, e.g. 'exp(-x^2)*sin(10*x)'"),
    "tau": dict(required=True, type=float,
                help="singularity location, strictly inside (a, b)"),
    "a": dict(type=float, default=-1.0, help="lower endpoint (default -1)"),
    "b": dict(type=float, default=1.0, help="upper endpoint (default 1)"),
    "tol": dict(type=float, default=1e-12,
                help="requested tolerance (default 1e-12)"),
    "mu": dict(type=float, default=0.0,
               help="cutoff radius of the symmetric quotient near 0, in the "
                    "units of x (default 0, the open method)"),
    "json": dict(action="store_true", default=False,
                 help="print a JSON object instead of plain lines"),
}

#: argparse takes only -\d+ and -\d*\.\d+ for a negative number, and any
#: other word that begins with "-", such as -1e-3, for a flag; every parser
#: and :func:`_read_integrate` take the expression language's numbers.
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}$")


@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built on
    first use and shared by later calls.

    Parsing leaves no state in them: each call returns a fresh namespace,
    whose `run` is the command's function.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="cpvquad",
        description="Cauchy principal value integrals of f(x)/(x - tau).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser(
        "integrate",
        help="compute one principal value integral",
        description=(
            "Compute the principal value of f(x)/(x - tau) over [a, b]. "
            "Exit status 1 means the printed error estimate exceeds the "
            "requested tolerance, because the roundoff floor lies above it "
            "(stop reason 'floor') or a piece stopped at the interval cap or "
            "the width floor, or that f jumps at tau (stop reason "
            "'discontinuous_at_tau'); the result is still printed."
        ),
    )
    for name, spec in _INTEGRATE_FLAGS.items():
        p_int.add_argument(f"--{name}", **spec)
    p_int.set_defaults(run=_cmd_integrate)

    p_bench = sub.add_parser(
        "bench",
        help="run the built-in benchmark battery",
        description=(
            "Run the built-in battery against its frozen references. "
            "Exit status 1 when any absolute-error bound is violated or an "
            "error estimate fails to cover the actual error."
        ),
    )
    p_bench.add_argument("--tol", type=float, default=1e-12,
                         help="tolerance for every case (default 1e-12)")
    target = p_bench.add_mutually_exclusive_group()
    target.add_argument("--csv", metavar="PATH", help="write rows as CSV")
    target.add_argument("--json", metavar="PATH", help="write rows as JSON")
    p_bench.set_defaults(run=_cmd_bench)

    p_obs = sub.add_parser(
        "observation",
        help="sweep composite Gauss rules applied to 1/x",
        description=(
            "Empirical sweep of composite Gauss values of 1/x on [0, 1] "
            "against log(1/x00) over random partitions.  Exit status 1 when "
            "any cell with at least 2 points reaches ratio 2."
        ),
    )
    p_obs.add_argument("--m-min", type=int, default=2, help="smallest rule size")
    p_obs.add_argument("--m-max", type=int, default=30, help="largest rule size")
    p_obs.add_argument("--n-max", type=int, default=50,
                       help="largest subinterval count")
    p_obs.add_argument("--trials", type=int, default=200,
                       help="random partitions per cell")
    p_obs.add_argument("--seed", type=int, default=0, help="sweep seed")
    p_obs.add_argument("--csv", metavar="PATH", help="write all cells as CSV")
    p_obs.set_defaults(run=_cmd_observation)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, sub.choices


def _read_integrate(argv: list[str]) -> Optional[SimpleNamespace]:
    """``integrate``'s flags read without argparse, to the namespace that
    argparse would make of them, or None to leave `argv` to argparse.

    Read are the flags of `_INTEGRATE_FLAGS` by their full names: a valued
    one as ``--name=value`` or ``--name value``, where a value that begins
    with "-" must be a negative number, and ``--json`` bare; a repeated
    flag's last value wins, and each value must convert.  Anything else
    returns None: help, an abbreviation, an unknown flag or a word that is
    none, ``--`` as a word or as a value, a missing or unusable value, a
    missing required flag.
    """
    args = {}
    words = iter(argv)
    for word in words:
        flag, eq, value = word.partition("=")
        name = flag[2:]
        spec = _INTEGRATE_FLAGS.get(name) if flag[:2] == "--" else None
        if spec is None:
            return None
        if "action" in spec:  # --json
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(words, None)
                if value is None or (value[:1] == "-"
                                     and not _NEGATIVE_NUMBER.match(value)):
                    return None
            elif value == "--":  # argparse refuses it
                return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
        args[name] = value
    for name, spec in _INTEGRATE_FLAGS.items():
        if name not in args:
            if "default" not in spec:  # required
                return None
            args[name] = spec["default"]
    return SimpleNamespace(run=_cmd_integrate, **args)


def _print_result(result: CpvResult, as_json: bool) -> None:
    if as_json:
        print(_JSON.encode(result.as_json_dict()))
    else:
        print(f"value = {result.value!r}")
        print(f"estimate = {result.error_estimate!r}")
        print(f"evaluations = {result.evaluations}")
        print(f"converged = {'true' if result.converged else 'false'}")
        print("stop_reasons = " + " ".join(
            f"{k}:{v}" for k, v in result.stop_reasons._asdict().items()))


@contextlib.contextmanager
def _opened(path: Optional[str]):
    """`path` opened for writing but not truncated, or None for no path.

    The commands open their output before they run, so an unusable path
    fails at once instead of after the whole run.  They empty it with
    :func:`_emptied` only once they have something to write, so a run that
    stops on a usage error leaves an existing file as it was, and removes a
    file that it created itself.
    """
    if path is None:
        yield None
        return
    try:
        fp = open(path, "x", encoding="utf-8", newline="")
        created = True
    except FileExistsError:
        fp = open(path, "a", encoding="utf-8", newline="")
        created = False
    try:
        with fp:
            yield fp
    except BaseException:
        if created:
            os.remove(path)
        raise


def _emptied(fp):
    """`fp` from :func:`_opened`, cut to length 0 if it can seek.

    A stream that cannot seek, a pipe or a terminal, holds nothing to cut.
    """
    if fp.seekable():
        fp.seek(0)
        fp.truncate()
    return fp


def _cmd_integrate(args: argparse.Namespace) -> int:
    try:
        f = compile_expression(args.f)
    except ParseError as exc:
        print(f"error: invalid --f expression: {exc}", file=sys.stderr)
        return 2
    try:
        result = cpv_standard(CpvProblem(
            f=f, tau=args.tau, a=args.a, b=args.b, tol=args.tol, mu=args.mu,
        ))
    except ValueError as exc:
        # a non-finite integrand or quotient exits with 1, an invalid
        # problem setup (tau at an endpoint, bad mu, ...) with 2
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NonfiniteIntegrandError) else 2
    _print_result(result, args.json)
    if not result.converged or result.error_estimate > args.tol:
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .benchmarks import run_benchmark, write_csv, write_json

    path = args.csv or args.json
    try:
        with _opened(path) as fp:
            rows = run_benchmark(tol=args.tol)
            if path:
                (write_csv if args.csv else write_json)(rows, _emptied(fp))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if path:
        print(f"wrote {len(rows)} rows to {path}")
    else:
        header = (f"{'name':7s} {'tau':>10s} {'value':>24s} {'abs_error':>12s} "
                  f"{'estimate':>12s} {'evals':>7s} {'converged':>9s} "
                  f"{'seconds':>9s}")
        print(header)
        for row in rows:
            result = row.result
            converged = "true" if result.converged else "false"
            print(f"{row.name:7s} {row.tau!r:>10s} {result.value!r:>24s} "
                  f"{row.abs_error:>12.3e} {result.error_estimate:>12.3e} "
                  f"{result.evaluations:>7d} {converged:>9s} "
                  f"{row.elapsed_seconds:>9.4f}")
    failed = [row.name for row in rows if not row.passed]
    if failed:
        print(f"bounds violated: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_observation(args: argparse.Namespace) -> int:
    # numpy is loaded only here: no other subcommand needs it
    from .logbound import sweep, write_sweep_csv

    try:
        with _opened(args.csv) as fp:
            report = sweep(
                range(args.m_min, args.m_max + 1),
                range(1, args.n_max + 1),
                args.trials,
                args.seed,
            )
            if args.csv:
                write_sweep_csv(report, _emptied(fp))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        print(f"wrote {len(report.cells)} cells to {args.csv}")
    print(f"cells: {len(report.cells)}  trials per cell: {report.trials_per_cell}")
    if args.m_min <= 1:
        # the sweep starts at m = 1 and n = 1, so its first cell is (1, 1)
        print(f"1-point boundary case reported, not checked: "
              f"ratio {report.cells[0].max_ratio!r}")
    worst = report.worst(2)
    if worst is None:
        print("no cells with at least 2 points; nothing to check")
        return 0
    print(f"max ratio: {worst.max_ratio!r} "
          f"(m={worst.m}, n={worst.n}, scheme={worst.witness_scheme}, "
          f"seed={worst.witness_seed})")
    large = report.worst(15)
    if large is not None:
        print(f"max ratio for rules with >= 15 points: {large.max_ratio!r}")
    if worst.max_ratio >= 2.0:
        print("ratio bound 2 violated", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = (_read_integrate(argv[1:]) if argv[:1] == ["integrate"]
            else None)
    if args is None:
        parser, commands = _build_parser()
        # A named command goes straight to its own parser, which reads the
        # same flags the top-level parser would hand it at twice the cost.
        # --version, -h and a missing or unknown command stay with the
        # top-level parser.
        command = commands.get(argv[0]) if argv else None
        try:
            args = (parser.parse_args(argv) if command is None
                    else command.parse_args(argv[1:]))
            # argparse drops "--" given as --name=-- and stores [] for it
            for name, value in vars(args).items():
                if value == []:
                    flag = name.replace("_", "-")
                    (command or parser).error(
                        f"argument --{flag}: expected one argument")
        except SystemExit as exc:
            return int(exc.code or 0)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
