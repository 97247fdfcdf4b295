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
value 2 against log(1/0.5) gives ratio 2/log 2 > 2.  A sweep that includes
m = 1 reports it as its (1, 1) cell; pass/fail checks start at m = 2.
:func:`composite_ratio` replays any one partition, a sweep's witness among
them, bit for bit.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .quadrature import MAX_GAUSS_POINTS, gauss_legendre_rule

__all__ = [
    "Partition",
    "SweepCell",
    "SweepReport",
    "composite_ratio",
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


def _composite_sums(
    stack: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite m-point Gauss values of 1/x for a stack of partitions.

    ``stack`` holds one row of breakpoints per partition.  Returns the
    arrays (a_value, x00), one entry per row; each row is reduced on its
    own, so a row's values do not depend on the rest of the stack.  On a
    subinterval with midpoint c and half-width h the rule gives
    sum_j h w_j / (c + h t_j) = sum_j w_j / (c/h + t_j), so the half-width
    cancels before any node is mapped.

    The terms of a partition lie in one contiguous row of n*m entries,
    subinterval by subinterval with the node index fastest, and the row is
    summed in that order.  Each ratio c/h is repeated m times and the nodes
    and weights are tiled n times, so every elementwise pass runs over whole
    rows; broadcasting the m nodes against a (trials, n, 1) array would run
    numpy's inner loop over only m entries, once per subinterval.
    """
    rule = gauss_legendre_rule(m)
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    n = stack.shape[1] - 1
    lo, hi = stack[:, :-1], stack[:, 1:]
    ratios = (hi + lo) / (hi - lo)
    terms = np.repeat(ratios.ravel(), m).reshape(len(stack), n * m)
    terms += np.tile(nodes, n)
    np.divide(np.tile(weights, n), terms, out=terms)
    a_values = terms.sum(axis=1)
    x00 = stack[:, 1] * 0.5 * (nodes[0] + 1.0)
    return a_values, x00


def _ratio(a_value: float, x00: float) -> float:
    """a_value / log(1/x00), through -log(x00) where 1/x00 overflows."""
    inverse = 1.0 / x00
    return a_value / (math.log(inverse) if inverse < math.inf else -math.log(x00))


def composite_ratio(partition: Partition, m: int) -> float:
    """The ratio a_value / log(1/x00) of m-point Gauss on the partition.

    a_value is the composite Gauss value of 1/x and x00 the smallest mapped
    node, inside the first subinterval.  The rule is open, so 1/x is never
    evaluated at 0.  A sweep cell's ``max_ratio`` is this ratio of its
    witness partition, bit for bit.
    """
    a_values, x00 = _composite_sums(np.asarray([partition.breakpoints]), m)
    if not x00[0] > 0.0:
        raise ValueError(
            f"x00 underflows to 0 on a first subinterval of width "
            f"{partition.breakpoints[1]!r}"
        )
    return _ratio(float(a_values[0]), float(x00[0]))


# Counter-based stream (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC'11): every uniform is a hash of (key, attempt, draw index), so
# a whole cell of partitions is drawn in one pass of array arithmetic and any
# single partition can be redrawn on its own.  The hash absorbs one 64-bit
# word at a time with the SplitMix64 finalizer.  Every operand is a uint64,
# so no step is promoted to float64.  The per-cell seed folds run on numpy
# scalars inside np.errstate(over="ignore"), since scalar arithmetic warns
# when it wraps; the per-row mixing runs on uint64 arrays, which wrap
# silently.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MASK64 = (1 << 64) - 1
_MAX_ATTEMPTS = 64


def _absorb(state, word):
    """SplitMix64 step folding `word` into `state`, uint64 arrays or scalars.

    The steps run in place on the result of the first XOR, so neither
    argument is changed.
    """
    z = state ^ word
    z += _GAMMA
    z ^= z >> _SHIFT1
    z *= _MIX1
    z ^= z >> _SHIFT2
    z *= _MIX2
    z ^= z >> _SHIFT3
    return z


def _seed_state(seed: int) -> np.uint64:
    """A non-negative integer seed folded, 64 bits at a time, into one word.

    The fold runs on np.uint64 scalars, so the caller holds
    np.errstate(over="ignore") around it.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    state = np.uint64(0)
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
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    r = 1.1 + (10.0 - 1.1) * u[:, 0]
    draws = u[:, 1:]
    # both operands full and contiguous, so every element takes the same
    # power kernel whatever the number of rows
    exponents = -np.arange(n - 1, 0, -1, dtype=float)
    ladder = np.power(
        np.repeat(r, n - 1).reshape(count, n - 1),
        np.tile(exponents, count).reshape(count, n - 1),
    )
    picks = np.where(schemes[:, None] == 1, ladder, draws)
    mixed = schemes == 2
    picks[mixed, ::2] = ladder[mixed, ::2]
    picks.sort(axis=1)
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    out[:, 1:n] = picks
    out[:, n] = 1.0
    return out


def _increasing(rows: np.ndarray) -> np.ndarray:
    """Whether each row of breakpoints increases strictly."""
    return (rows[:, 1:] > rows[:, :-1]).all(axis=1)


def _partitions(n: int, keys: np.ndarray, schemes: np.ndarray) -> np.ndarray:
    """Strictly increasing partitions of [0, 1], one row per key.

    ``schemes`` holds indices into the scheme names.  A row that is not
    strictly increasing is redrawn with the next attempt; the other rows
    keep theirs.
    """
    out = _draw(keys, 0, n, schemes)
    pending = np.flatnonzero(~_increasing(out))
    for attempt in range(1, _MAX_ATTEMPTS):
        if not pending.size:
            break
        rows = _draw(keys[pending], attempt, n, schemes[pending])
        ok = _increasing(rows)
        out[pending[ok]] = rows[ok]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError(
            f"could not draw a strictly increasing partition for n={n} "
            f"in {_MAX_ATTEMPTS} attempts"
        )
    return out


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
    with np.errstate(over="ignore"):
        key = _seed_state(seed)
    keys = np.array([key], dtype=np.uint64)
    row = _partitions(n, keys, np.array([_SCHEMES.index(scheme)]))[0]
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

    @property
    def trials_per_cell(self) -> int:
        """Trials each cell ran; every cell of one sweep runs as many."""
        return self.cells[0].trials

    def worst(self, m_min: int) -> Optional[SweepCell]:
        """The first cell of largest ``max_ratio`` with m >= m_min, or None."""
        return max(
            (cell for cell in self.cells if cell.m >= m_min),
            key=lambda cell: cell.max_ratio,
            default=None,
        )


def _cell_partitions(
    seed: int, m: int, n: int, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trial seeds, scheme indices and partitions of one sweep cell.

    Trial t gets the seed hash(seed, m, n, t) and scheme t mod 3; row t of
    the partitions is what :func:`random_partition` draws for that pair.
    """
    with np.errstate(over="ignore"):
        cell_state = _absorb(
            _absorb(_seed_state(seed), np.uint64(m)), np.uint64(n)
        )
    trial_seeds = _absorb(cell_state, np.arange(trials, dtype=np.uint64))
    schemes = np.arange(trials) % len(_SCHEMES)
    # a trial seed is below 2^64, so folding it is a single step
    keys = _absorb(np.zeros_like(trial_seeds), trial_seeds)
    return trial_seeds, schemes, _partitions(n, keys, schemes)


def _count(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
    ms = sorted(set(_count(m, "rule size") for m in m_range))
    ns = sorted(set(_count(n, "subinterval count") for n in n_range))
    trials_per_cell = _count(trials_per_cell, "trials_per_cell")
    if not ms or not ns:
        raise ValueError("empty sweep range")
    if ms[0] < 1 or ms[-1] > MAX_GAUSS_POINTS:
        raise ValueError(
            f"rule sizes must lie in 1..{MAX_GAUSS_POINTS}, "
            f"got {ms[0]}..{ms[-1]}"
        )
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
            a_values, x00 = _composite_sums(stack, m)
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
    return SweepReport(cells=tuple(cells))


def write_sweep_csv(report: SweepReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ("m", "n", "trials", "max_ratio", "witness_seed", "witness_scheme")
    )
    for cell in report.cells:
        writer.writerow(
            [
                str(cell.m),
                str(cell.n),
                str(cell.trials),
                repr(cell.max_ratio),
                str(cell.witness_seed),
                cell.witness_scheme,
            ]
        )
