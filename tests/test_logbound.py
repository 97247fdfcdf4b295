"""Tests for the composite-Gauss bound observation machinery."""

import hashlib
import io
import math
import warnings

import numpy as np
import pytest

from cpvquad import logbound
from cpvquad.cli import main
from cpvquad.logbound import (
    MAX_SUBINTERVALS,
    MAX_TRIALS_PER_CELL,
    Partition,
    composite_ratio,
    random_partition,
    sweep,
    write_sweep_csv,
)
from cpvquad.quadrature import gauss_legendre_rule

from helpers import composite_sums_reference


def a_value_and_x00(partition, m):
    """(a_value, x00) of one partition, as the sweep computes them."""
    a_values, x00 = logbound._composite_sums(
        np.asarray([partition.breakpoints]), m
    )
    return float(a_values[0]), float(x00[0])


class TestPartition:
    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            Partition((0.0,))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            Partition((0.1, 1.0))
        with pytest.raises(ValueError):
            Partition((0.0, 0.9))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            Partition((0.0, 0.7, 0.3, 1.0))


class TestCompositeValue:
    def test_two_point_rule_hand_value(self):
        # 2-point Gauss of 1/x on [0,1]: 1/(1-1/sqrt 3) + 1/(1+1/sqrt 3) = 3
        a_value, x00 = a_value_and_x00(Partition((0.0, 1.0)), 2)
        assert a_value == pytest.approx(3.0, rel=1e-15)
        assert x00 == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(3.0)), rel=1e-15)

    def test_smallest_node_lies_inside_first_subinterval(self):
        p = Partition((0.0, 0.01, 0.3, 1.0))
        _, x00 = a_value_and_x00(p, 5)
        assert 0.0 < x00 < 0.01

    def test_matches_scalar_summation(self):
        p = Partition((0.0, 0.1, 0.23, 0.55, 0.8, 1.0))
        rule = gauss_legendre_rule(9)
        total = 0.0
        for lo, hi in zip(p.breakpoints, p.breakpoints[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            for node, weight in zip(rule.nodes, rule.weights):
                total += half * weight / (mid + half * node)
        a_value, _ = a_value_and_x00(p, 9)
        assert a_value == pytest.approx(total, rel=1e-13)

    def test_value_is_finite_despite_divergent_integrand(self):
        p = Partition((0.0, 1e-12, 1.0))
        a_value, x00 = a_value_and_x00(p, 30)
        assert math.isfinite(a_value)
        assert x00 > 0.0


class TestFlatLayout:
    # the flat (trials, n*m) layout adds, divides and sums every term in
    # the order of the 3-D broadcast it replaced, so no bit moves
    @staticmethod
    def assert_same_bits(seed, m, n, trials):
        _, _, stack = logbound._cell_partitions(seed, m, n, trials)
        a_values, x00 = logbound._composite_sums(stack, m)
        ref_a, ref_x00 = composite_sums_reference(stack, m)
        assert a_values.tobytes() == ref_a.tobytes()
        assert x00.tobytes() == ref_x00.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 15, 100])
    @pytest.mark.parametrize("n", [1, 2, 50, MAX_SUBINTERVALS])
    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_broadcast_reference(self, m, n, trials, seed):
        self.assert_same_bits(seed, m, n, trials)

    def test_matches_broadcast_reference_on_a_full_cell(self):
        self.assert_same_bits(4, 30, 50, 200)


class TestBoundaryCase:
    def test_ratio_is_two_over_log_two(self):
        ratio = composite_ratio(Partition((0.0, 1.0)), 1)
        assert ratio == pytest.approx(2.0 / math.log(2.0), rel=1e-15)
        # a sweep that includes m = 1 reports the same bits in its (1, 1) cell
        for seed in (0, 3):
            assert sweep([1], [1], 4, seed).cells[0].max_ratio == ratio

    def test_exceeds_the_sweep_threshold(self):
        # the known outlier that motivates starting pass/fail sweeps at m=2
        assert composite_ratio(Partition((0.0, 1.0)), 1) > 2.0


class TestCompositeRatio:
    def test_ratio_consistency(self):
        p = Partition((0.0, 0.3, 1.0))
        a_value, x00 = a_value_and_x00(p, 4)
        assert composite_ratio(p, 4) == a_value / math.log(1.0 / x00)

    def test_two_point_single_interval(self):
        ratio = composite_ratio(Partition((0.0, 1.0)), 2)
        assert ratio == pytest.approx(1.9300564487871652, rel=1e-13)
        assert ratio < 2.0

    def test_overflowing_inverse_of_x00_takes_minus_log(self):
        # 1/x00 overflows for x00 = 1.126e-321, but -log(x00) does not
        p = Partition((0.0, 1e-320, 1.0))
        a_value, x00 = a_value_and_x00(p, 3)
        assert 1.0 / x00 == math.inf
        ratio = composite_ratio(p, 3)
        assert ratio == a_value / -math.log(x00) == 0.009923175770565918

    def test_rejects_nonpositive_x00(self):
        with pytest.raises(ValueError, match="x00"):
            composite_ratio(Partition((0.0, 5e-324, 1.0)), 3)


class TestSingleIntervalRatios:
    # worst single-interval ratios by rule size, frozen as regression pins
    EXPECTED = {
        12: 1.3243431998535002,
        13: 1.3141535658766916,
        14: 1.3052388251978555,
        15: 1.297355760307008,
        16: 1.2903209235672304,
        17: 1.2839931188218099,
    }

    @pytest.mark.parametrize("m", sorted(EXPECTED))
    def test_frozen_values(self, m):
        ratio = composite_ratio(Partition((0.0, 1.0)), m)
        assert ratio == pytest.approx(self.EXPECTED[m], rel=1e-12)

    def test_threshold_crossing_between_14_and_15_points(self):
        # the 1.3 threshold is crossed going from 14 to 15 nodes; rule sizes
        # here count nodes, so a bound quoted for "m >= 14" in the
        # sum-from-zero-to-m indexing convention means 15 nodes and up
        assert composite_ratio(Partition((0.0, 1.0)), 14) > 1.3
        assert composite_ratio(Partition((0.0, 1.0)), 15) < 1.3

    def test_decreasing_in_rule_size(self):
        ratios = [
            composite_ratio(Partition((0.0, 1.0)), m) for m in range(2, 40)
        ]
        for earlier, later in zip(ratios, ratios[1:]):
            assert later < earlier


class TestStructuredPartitions:
    def test_dyadic_ladder(self):
        points = (0.0, *[2.0**-k for k in range(19, 0, -1)], 1.0)
        assert len(points) == 21
        ratio = composite_ratio(Partition(points), 7)
        assert ratio == pytest.approx(1.089930530219119, rel=1e-12)
        assert ratio < 2.0

    @pytest.mark.parametrize("r", [2.0, 5.0])
    def test_geometric_refinement_weakly_decreases_ratio(self, r):
        ratios = []
        for n in range(1, 13):
            points = (0.0, *[r**-k for k in range(n - 1, 0, -1)], 1.0)
            ratios.append(composite_ratio(Partition(points), 6))
        for earlier, later in zip(ratios, ratios[1:]):
            assert later <= earlier + 1e-12


class TestRandomPartition:
    def test_deterministic(self):
        a = random_partition(7, 42, "uniform")
        b = random_partition(7, 42, "uniform")
        assert a.breakpoints == b.breakpoints

    def test_schemes_differ(self):
        u = random_partition(7, 42, "uniform")
        g = random_partition(7, 42, "geometric")
        m = random_partition(7, 42, "mixed")
        assert u.breakpoints != g.breakpoints
        assert g.breakpoints != m.breakpoints

    def test_single_subinterval_is_trivial(self):
        for scheme in ("uniform", "geometric", "mixed"):
            assert random_partition(1, 0, scheme).breakpoints == (0.0, 1.0)

    def test_geometric_first_breakpoint_is_tiny(self):
        p = random_partition(50, 123, "geometric")
        assert p.breakpoints[1] < 1e-2

    def test_counts(self):
        for scheme in ("uniform", "geometric", "mixed"):
            assert len(random_partition(13, 5, scheme).breakpoints) == 14

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_partition(0, 1, "uniform")
        with pytest.raises(ValueError):
            random_partition(5, 1, "dyadic")


class TestBatchDraw:
    @pytest.mark.parametrize(
        "m, n", [(2, 1), (3, 2), (7, 13), (30, 50), (2, MAX_SUBINTERVALS)]
    )
    @pytest.mark.parametrize("seed", [0, 801])
    def test_rows_match_random_partition(self, m, n, seed):
        trial_seeds, schemes, stack = logbound._cell_partitions(seed, m, n, 60)
        assert set(schemes) == {0, 1, 2}
        a_values, x00 = logbound._composite_sums(stack, m)
        for t, (ts, scheme, row) in enumerate(zip(trial_seeds, schemes, stack)):
            p = random_partition(n, int(ts), logbound._SCHEMES[scheme])
            assert p.breakpoints == tuple(row)
            assert a_value_and_x00(p, m) == (a_values[t], x00[t])

    def test_forced_redraw_touches_only_the_failing_row(self, monkeypatch):
        n, bad = 9, 4
        draw = logbound._draw

        def repeat_a_breakpoint(keys, attempt, n, schemes):
            rows = draw(keys, attempt, n, schemes)
            if attempt == 0:
                rows[bad, 3] = rows[bad, 2]
            return rows

        trial_seeds, schemes, clean = logbound._cell_partitions(5, 3, n, 12)
        monkeypatch.setattr(logbound, "_draw", repeat_a_breakpoint)
        _, _, patched = logbound._cell_partitions(5, 3, n, 12)
        keys = logbound._absorb(np.zeros_like(trial_seeds), trial_seeds)
        redrawn = draw(keys[bad : bad + 1], 1, n, schemes[bad : bad + 1])[0]
        assert np.all(np.diff(redrawn) > 0.0)
        assert np.array_equal(patched[bad], redrawn)
        assert not np.array_equal(patched[bad], clean[bad])
        others = np.arange(12) != bad
        assert np.array_equal(patched[others], clean[others])

    def test_redraw_over_more_than_one_attempt(self, monkeypatch):
        # row a fails only at attempt 0; row b fails at attempts 0 and 1
        n, trials, a, b = 9, 12, 2, 7
        draw = logbound._draw
        trial_seeds, schemes, clean = logbound._cell_partitions(5, 3, n, trials)
        keys = logbound._absorb(np.zeros_like(trial_seeds), trial_seeds)
        failing = {(keys[a], 0), (keys[b], 0), (keys[b], 1)}

        def repeat_a_breakpoint(keys, attempt, n, schemes):
            rows = draw(keys, attempt, n, schemes)
            for row, key in zip(rows, keys):
                if (key, attempt) in failing:
                    row[3] = row[2]
            return rows

        monkeypatch.setattr(logbound, "_draw", repeat_a_breakpoint)
        _, _, patched = logbound._cell_partitions(5, 3, n, trials)
        for row, attempt in ((a, 1), (b, 2)):
            redrawn = draw(keys[row : row + 1], attempt, n, schemes[row : row + 1])
            assert np.all(np.diff(redrawn[0]) > 0.0)
            assert np.array_equal(patched[row], redrawn[0])
            assert not np.array_equal(patched[row], clean[row])
        others = ~np.isin(np.arange(trials), (a, b))
        assert np.array_equal(patched[others], clean[others])

    def test_gives_up_after_the_attempt_cap(self, monkeypatch):
        def always_repeat(keys, attempt, n, schemes):
            return np.tile([0.0, 0.5, 0.5, 1.0], (len(keys), 1))

        monkeypatch.setattr(logbound, "_draw", always_repeat)
        with pytest.raises(RuntimeError, match="64 attempts"):
            random_partition(3, 1, "uniform")

    def test_negative_seeds_are_rejected(self, capsys):
        with pytest.raises(ValueError):
            random_partition(3, -1, "uniform")
        with pytest.raises(ValueError):
            sweep(range(2, 3), range(1, 3), 3, seed=-1)
        assert main(["observation", "--seed", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 3, 2**200 + 7])
    def test_large_seeds_fold_64_bits_at_a_time(self, seed):
        low = seed & (2**64 - 1)
        a = random_partition(6, seed, "mixed")
        assert a == random_partition(6, seed, "mixed")
        assert a != random_partition(6, low, "mixed")
        report = sweep(range(2, 4), range(1, 4), 6, seed=seed)
        assert report == sweep(range(2, 4), range(1, 4), 6, seed=seed)
        assert report.cells != sweep(range(2, 4), range(1, 4), 6, seed=low).cells
        for cell in report.cells:
            p = random_partition(cell.n, cell.witness_seed, cell.witness_scheme)
            assert composite_ratio(p, cell.m) == cell.max_ratio

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 2**200 + 7]
    )
    def test_seed_fold_at_the_64_bit_edges(self, monkeypatch, seed):
        def array_fold(seed):
            state = np.zeros(1, dtype=np.uint64)
            while True:
                word = np.uint64(seed & (2**64 - 1))
                before = state.copy()
                folded = logbound._absorb(state, word)
                assert np.array_equal(state, before)
                state = folded
                seed >>= 64
                if not seed:
                    return state

        draw = logbound._draw
        seen = []

        def record_keys(keys, attempt, n, schemes):
            seen.append(keys.copy())
            return draw(keys, attempt, n, schemes)

        monkeypatch.setattr(logbound, "_draw", record_keys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            random_partition(4, seed, "mixed")
            trial_seeds, _, _ = logbound._cell_partitions(seed, 3, 4, 5)
        assert seen[0].dtype == np.uint64
        assert np.array_equal(seen[0], array_fold(seed))
        cell_state = logbound._absorb(
            logbound._absorb(array_fold(seed), np.uint64(3)), np.uint64(4)
        )
        assert np.array_equal(
            trial_seeds,
            logbound._absorb(cell_state, np.arange(5, dtype=np.uint64)),
        )

    def test_witness_seeds_fit_64_bits(self):
        report = sweep(range(2, 4), range(2, 6), 9, seed=3)
        assert all(0 <= cell.witness_seed < 2**64 for cell in report.cells)


class TestSweep:
    def test_covers_requested_grid(self):
        report = sweep(range(2, 5), range(1, 4), 3, seed=0)
        assert len(report.cells) == 9
        assert {(c.m, c.n) for c in report.cells} == {
            (m, n) for m in (2, 3, 4) for n in (1, 2, 3)
        }
        assert all(c.trials == 3 for c in report.cells)

    def test_deterministic(self):
        a = sweep(range(2, 5), range(1, 4), 6, seed=11)
        b = sweep(range(2, 5), range(1, 4), 6, seed=11)
        assert a == b

    def test_witness_reconstructs_worst_ratio_exactly(self):
        report = sweep(range(2, 5), range(1, 6), 9, seed=7)
        for cell in report.cells:
            partition = random_partition(
                cell.n, cell.witness_seed, cell.witness_scheme
            )
            assert composite_ratio(partition, cell.m) == cell.max_ratio

    def test_max_ratio_filtering(self):
        report = sweep(range(2, 6), range(1, 3), 3, seed=1)
        overall = report.worst(2)
        restricted = report.worst(4)
        assert overall == max(report.cells, key=lambda cell: cell.max_ratio)
        assert restricted.m >= 4
        assert restricted.max_ratio == max(
            cell.max_ratio for cell in report.cells if cell.m >= 4
        )
        assert restricted.max_ratio <= overall.max_ratio
        assert report.worst(50) is None

    def test_small_sweep_stays_below_two(self):
        report = sweep(range(2, 8), range(1, 8), 12, seed=0)
        assert report.worst(2).max_ratio < 2.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sweep([], range(1, 3), 3, seed=0)
        with pytest.raises(ValueError):
            sweep(range(2, 4), [], 3, seed=0)
        with pytest.raises(ValueError):
            sweep(range(0, 3), range(1, 3), 3, seed=0)
        with pytest.raises(ValueError):
            sweep(range(2, 102), range(1, 3), 3, seed=0)
        with pytest.raises(ValueError):
            sweep(range(2, 4), range(1, MAX_SUBINTERVALS + 2), 3, seed=0)
        with pytest.raises(ValueError):
            sweep(range(2, 4), range(1, 3), 0, seed=0)
        with pytest.raises(ValueError):
            sweep(range(2, 4), range(1, 3), MAX_TRIALS_PER_CELL + 1, seed=0)

    def test_rejects_non_integer_counts(self):
        # int() would truncate 2.5 and 1.9 into the (2, 1) cell
        with pytest.raises(TypeError, match="rule size"):
            sweep([2.5], [1], 3, 0)
        with pytest.raises(TypeError, match="subinterval count"):
            sweep([2], [1.9], 3, 0)
        with pytest.raises(TypeError, match="trials_per_cell"):
            sweep([2], [1], 2.0, 0)
        # integer types other than int are counts too
        assert sweep(np.arange(2, 3), [np.int64(1)], np.int32(3), 0) == sweep(
            [2], [1], 3, 0
        )


class TestSweepCsv:
    # sha256 of the CSV, pinned so that a change to the stream, the draw or
    # the reduction that moves any bit of any cell fails here
    @pytest.mark.parametrize(
        "ranges, trials, seed, digest",
        [
            (
                (range(2, 31), range(1, 51)),
                20,
                3,
                "2f7f5035410f397fa92683b0182a3355056b03ed9b254f61402020293d965f42",
            ),
            (
                (range(1, 4), range(1, 4)),
                6,
                2**64 + 3,
                "17c4db8fef007585734957fececaf3c53efcf0eba0d2e99830f04cfecefb7185",
            ),
            (
                # the rule-size and subinterval caps and their neighbours
                ([1, 2, 99, 100], [1, 199, 200]),
                3,
                5,
                "e067d59c6b4d5d7326a1eefd388bfda5f042a0aa8dc99b10e35c612a69aabcb5",
            ),
        ],
    )
    def test_pinned_digest(self, ranges, trials, seed, digest):
        buffer = io.StringIO()
        write_sweep_csv(sweep(*ranges, trials, seed=seed), buffer)
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest

    def test_layout_and_roundtrip(self):
        report = sweep(range(2, 4), range(1, 3), 3, seed=5)
        buffer = io.StringIO()
        write_sweep_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "m,n,trials,max_ratio,witness_seed,witness_scheme"
        assert len(lines) == 1 + len(report.cells)
        for line, cell in zip(lines[1:], report.cells):
            m, n, trials, max_ratio, witness_seed, witness_scheme = line.split(",")
            assert int(m) == cell.m
            assert int(n) == cell.n
            assert int(trials) == cell.trials
            assert float(max_ratio) == cell.max_ratio
            assert int(witness_seed) == cell.witness_seed
            assert witness_scheme == cell.witness_scheme
            # the row alone rebuilds its worst partition and ratio
            partition = random_partition(int(n), int(witness_seed), witness_scheme)
            assert composite_ratio(partition, int(m)) == float(max_ratio)
