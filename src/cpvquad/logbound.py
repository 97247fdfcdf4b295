"""Empirical bound checks for composite Gauss quadrature of 1/x on [0, 1].

The integral of 1/x over [0, 1] diverges, yet any open quadrature rule
returns a finite value because its smallest node x00 stays positive.  The
claim exercised here is that the composite m-point Gauss value stays below
a modest multiple of log(1/x00) no matter how the partition of [0, 1] is
chosen, with the multiple dropping below 1.3 once m >= 14.  The sweep
samples many random partitions per (rule size, subinterval count) cell and
records the worst ratio together with the seed that produced it, so any
reported worst case can be reconstructed exactly.

The 1-point rule on the trivial partition is the known boundary case: its
value 2 against log(1/0.5) gives ratio 2/log 2 > 2.  It is reported by
:func:`boundary_case` and excluded from pass/fail sweeps, which start at
m = 2.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .quadrature import gauss_legendre_rule

__all__ = [
    "Partition",
    "ObservationSample",
    "SweepCell",
    "SweepReport",
    "boundary_case",
    "composite_value",
    "make_sample",
    "random_partition",
    "sweep",
    "write_sweep_csv",
]

_SCHEMES = ("uniform", "geometric", "mixed")

#: Desk-scale caps keeping a full sweep well under a minute.
MAX_SUBINTERVALS = 200
MAX_TRIALS_PER_CELL = 1000


@dataclass(frozen=True)
class Partition:
    """Breakpoints 0 = s0 < s1 < ... < sn = 1 of the unit interval."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        s = self.breakpoints
        if len(s) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if s[0] != 0.0 or s[-1] != 1.0:
            raise ValueError(
                f"partition must span exactly [0, 1], got [{s[0]!r}, {s[-1]!r}]"
            )
        for lo, hi in zip(s, s[1:]):
            if not hi > lo:
                raise ValueError(
                    f"breakpoints must increase strictly, got {lo!r} before {hi!r}"
                )

    @property
    def n(self) -> int:
        return len(self.breakpoints) - 1


@dataclass(frozen=True)
class ObservationSample:
    """One composite evaluation of 1/x with its bounding ratio.

    ``a_value`` is the composite Gauss value, ``x00`` the smallest mapped
    node inside the first subinterval and ``ratio`` their quotient
    a_value / log(1/x00).
    """

    m: int
    n: int
    a_value: float
    x00: float
    ratio: float

    def __post_init__(self):
        if not self.x00 > 0.0:
            raise ValueError(f"x00 must be positive, got {self.x00!r}")
        if not math.isfinite(self.ratio):
            raise ValueError(f"ratio must be finite, got {self.ratio!r}")


def _composite_values(
    stack: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite m-point Gauss values of 1/x for a stack of partitions.

    ``stack`` holds one row of breakpoints per partition.  Returns the
    arrays (a_value, x00), one entry per row; each row is reduced on its
    own, so a row's values do not depend on the rest of the stack.  On a
    subinterval with midpoint c and half-width h the rule gives
    sum_j h w_j / (c + h t_j) = sum_j w_j / (c/h + t_j), so the half-width
    cancels before any node is mapped.
    """
    rule = gauss_legendre_rule(m)
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    lo, hi = stack[:, :-1], stack[:, 1:]
    terms = ((hi + lo) / (hi - lo))[:, :, None] + nodes
    np.divide(weights, terms, out=terms)
    a_values = terms.reshape(len(stack), -1).sum(axis=1)
    x00 = stack[:, 1] * 0.5 * (nodes[0] + 1.0)
    return a_values, x00


def composite_value(partition: Partition, m: int) -> tuple[float, float]:
    """Composite m-point Gauss value of 1/x over the partition, with x00.

    The rule is open, so no node ever touches the breakpoints; in
    particular 1/x is never evaluated at 0.  Returns (a_value, x00).
    """
    a_values, x00 = _composite_values(np.asarray([partition.breakpoints]), m)
    return float(a_values[0]), float(x00[0])


def _ratio(a_value: float, x00: float) -> float:
    return a_value / math.log(1.0 / x00)


def make_sample(partition: Partition, m: int) -> ObservationSample:
    a_value, x00 = composite_value(partition, m)
    return ObservationSample(
        m=m,
        n=partition.n,
        a_value=a_value,
        x00=x00,
        ratio=_ratio(a_value, x00),
    )


def boundary_case() -> ObservationSample:
    """The excluded m=1, n=1 midpoint case with ratio 2/log 2 > 2."""
    return make_sample(Partition((0.0, 1.0)), 1)


# Counter-based stream (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC'11): every uniform is a hash of (key, attempt, draw index), so
# a whole cell of partitions is drawn in one pass of array arithmetic and any
# single partition can be redrawn on its own.  The hash absorbs one 64-bit
# word at a time with the SplitMix64 finalizer.  All mixing runs on uint64
# arrays, which wrap silently; numpy scalars would warn on overflow.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = (1 << 64) - 1
_MAX_ATTEMPTS = 64


def _absorb(state: np.ndarray, word) -> np.ndarray:
    """SplitMix64 step folding `word` into the uint64 array `state`."""
    z = (state ^ word) + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_state(seed: int) -> np.ndarray:
    """A non-negative integer seed folded, 64 bits at a time, into one word."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    state = np.zeros(1, dtype=np.uint64)
    while True:
        state = _absorb(state, np.uint64(seed & _MASK64))
        seed >>= 64
        if not seed:
            return state


def _draw(keys: np.ndarray, attempt: int, n: int, schemes: np.ndarray) -> np.ndarray:
    """Attempt `attempt` at one partition per key, as rows of breakpoints.

    Counter 0 of a row gives the geometric ratio r, counters 1..n-1 the
    uniform draws.  "uniform" rows sort the draws, "geometric" rows take the
    ladder r^-(n-1), ..., r^-1, "mixed" rows put ladder points in the even
    places and draws in the odd ones, then sort.  The rows are not checked.
    """
    count = len(keys)
    state = _absorb(keys, np.uint64(attempt))
    bits = _absorb(state[:, None], np.arange(n, dtype=np.uint64)[None, :])
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = 1.1 + (10.0 - 1.1) * u[:, 0]
    draws = u[:, 1:]
    # both operands full and contiguous, so every element takes the same
    # power kernel whatever the number of rows
    exponents = -np.arange(n - 1, 0, -1, dtype=float)
    ladder = np.power(
        np.repeat(r, n - 1).reshape(count, n - 1),
        np.tile(exponents, count).reshape(count, n - 1),
    )
    mixed = np.where(np.arange(n - 1) % 2 == 0, ladder, draws)
    scheme = schemes[:, None]
    picks = np.where(scheme == 0, draws, np.where(scheme == 1, ladder, mixed))
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    out[:, 1:n] = np.sort(picks, axis=1)
    out[:, n] = 1.0
    return out


def _partitions(n: int, keys: np.ndarray, schemes: np.ndarray) -> np.ndarray:
    """Strictly increasing partitions of [0, 1], one row per key.

    ``schemes`` holds indices into the scheme names.  A row that is not
    strictly increasing is redrawn with the next attempt; the other rows
    keep theirs.
    """
    out = np.empty((len(keys), n + 1))
    pending = np.arange(len(keys))
    for attempt in range(_MAX_ATTEMPTS):
        rows = _draw(keys[pending], attempt, n, schemes[pending])
        ok = np.all(np.diff(rows, axis=1) > 0.0, axis=1)
        out[pending[ok]] = rows[ok]
        pending = pending[~ok]
        if not pending.size:
            return out
    raise RuntimeError(
        f"could not draw a strictly increasing partition for n={n} "
        f"in {_MAX_ATTEMPTS} attempts"
    )


def random_partition(n: int, seed: int, scheme: str) -> Partition:
    """Deterministic random partition of [0, 1] into n subintervals.

    "uniform" sorts uniform draws; "geometric" builds the ladder r^-(n-1),
    ..., r^-1 with a random ratio r in [1.1, 10], stressing tiny first
    subintervals; "mixed" interleaves points of both kinds.  The same
    (n, seed, scheme) always yields the same partition.  The seed is any
    non-negative integer; the sweep's witness seeds are accepted as they
    are reported.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 subintervals, got {n!r}")
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    row = _partitions(n, _seed_state(seed), np.array([_SCHEMES.index(scheme)]))[0]
    return Partition(tuple(map(float, row)))


@dataclass(frozen=True)
class SweepCell:
    """Worst observed ratio for one (rule size, subinterval count) cell.

    ``witness_seed`` and ``witness_scheme`` reconstruct the worst partition
    through :func:`random_partition`.
    """

    m: int
    n: int
    trials: int
    max_ratio: float
    witness_seed: int
    witness_scheme: str


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    seed: int
    trials_per_cell: int

    def max_ratio(self, m_min: Optional[int] = None) -> float:
        ratios = [
            cell.max_ratio
            for cell in self.cells
            if m_min is None or cell.m >= m_min
        ]
        if not ratios:
            raise ValueError("no cells in the requested range")
        return max(ratios)


def _cell_partitions(
    seed: int, m: int, n: int, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trial seeds, scheme indices and partitions of one sweep cell.

    Trial t gets the seed hash(seed, m, n, t) and scheme t mod 3; row t of
    the partitions is what :func:`random_partition` draws for that pair.
    """
    cell_state = _absorb(_absorb(_seed_state(seed), np.uint64(m)), np.uint64(n))
    trial_seeds = _absorb(cell_state, np.arange(trials, dtype=np.uint64))
    schemes = np.arange(trials) % len(_SCHEMES)
    # a trial seed is below 2^64, so folding it is a single step
    keys = _absorb(np.zeros_like(trial_seeds), trial_seeds)
    return trial_seeds, schemes, _partitions(n, keys, schemes)


def sweep(
    m_range: Iterable[int],
    n_range: Iterable[int],
    trials_per_cell: int,
    seed: int,
) -> SweepReport:
    """Worst-ratio sweep over rule sizes and partition sizes.

    Each cell runs `trials_per_cell` partitions cycling through the three
    schemes, with a per-trial seed derived from (seed, m, n, trial), so the
    report is deterministic and every witness is reproducible in isolation.
    """
    ms = sorted(set(int(m) for m in m_range))
    ns = sorted(set(int(n) for n in n_range))
    if not ms or not ns:
        raise ValueError("empty sweep range")
    if ms[0] < 1 or ms[-1] > 100:
        raise ValueError(f"rule sizes must lie in 1..100, got {ms[0]}..{ms[-1]}")
    if ns[0] < 1 or ns[-1] > MAX_SUBINTERVALS:
        raise ValueError(
            f"subinterval counts must lie in 1..{MAX_SUBINTERVALS}, "
            f"got {ns[0]}..{ns[-1]}"
        )
    if not 1 <= trials_per_cell <= MAX_TRIALS_PER_CELL:
        raise ValueError(
            f"trials per cell must lie in 1..{MAX_TRIALS_PER_CELL}, "
            f"got {trials_per_cell!r}"
        )
    cells = []
    for m in ms:
        for n in ns:
            trial_seeds, schemes, stack = _cell_partitions(
                seed, m, n, trials_per_cell
            )
            a_values, x00 = _composite_values(stack, m)
            worst = int(np.argmax(a_values / np.log(1.0 / x00)))
            cells.append(
                SweepCell(
                    m=m,
                    n=n,
                    trials=trials_per_cell,
                    max_ratio=_ratio(float(a_values[worst]), float(x00[worst])),
                    witness_seed=int(trial_seeds[worst]),
                    witness_scheme=_SCHEMES[schemes[worst]],
                )
            )
    return SweepReport(
        cells=tuple(cells), seed=seed, trials_per_cell=trials_per_cell
    )


def write_sweep_csv(report: SweepReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("m", "n", "trials", "max_ratio", "witness_seed"))
    for cell in report.cells:
        writer.writerow(
            [
                str(cell.m),
                str(cell.n),
                str(cell.trials),
                repr(cell.max_ratio),
                str(cell.witness_seed),
            ]
        )
