"""Tests for the composite-Gauss bound observation machinery."""

import io
import math

import numpy as np
import pytest

from cpvquad import logbound
from cpvquad.cli import main
from cpvquad.logbound import (
    MAX_SUBINTERVALS,
    MAX_TRIALS_PER_CELL,
    ObservationSample,
    Partition,
    boundary_case,
    composite_value,
    make_sample,
    random_partition,
    sweep,
    write_sweep_csv,
)
from cpvquad.quadrature import gauss_legendre_rule


class TestPartition:
    def test_subinterval_count(self):
        assert Partition((0.0, 1.0)).n == 1
        assert Partition((0.0, 0.25, 0.5, 1.0)).n == 3

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


class TestObservationSample:
    def test_rejects_nonpositive_x00(self):
        with pytest.raises(ValueError):
            ObservationSample(m=2, n=1, a_value=1.0, x00=0.0, ratio=1.0)

    def test_rejects_nonfinite_ratio(self):
        with pytest.raises(ValueError):
            ObservationSample(m=2, n=1, a_value=1.0, x00=0.5, ratio=math.inf)


class TestCompositeValue:
    def test_two_point_rule_hand_value(self):
        # 2-point Gauss of 1/x on [0,1]: 1/(1-1/sqrt 3) + 1/(1+1/sqrt 3) = 3
        a_value, x00 = composite_value(Partition((0.0, 1.0)), 2)
        assert a_value == pytest.approx(3.0, rel=1e-15)
        assert x00 == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(3.0)), rel=1e-15)

    def test_smallest_node_lies_inside_first_subinterval(self):
        p = Partition((0.0, 0.01, 0.3, 1.0))
        _, x00 = composite_value(p, 5)
        assert 0.0 < x00 < 0.01

    def test_matches_scalar_summation(self):
        p = Partition((0.0, 0.1, 0.23, 0.55, 0.8, 1.0))
        rule = gauss_legendre_rule(9)
        total = 0.0
        for lo, hi in zip(p.breakpoints, p.breakpoints[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            for node, weight in zip(rule.nodes, rule.weights):
                total += half * weight / (mid + half * node)
        a_value, _ = composite_value(p, 9)
        assert a_value == pytest.approx(total, rel=1e-13)

    def test_value_is_finite_despite_divergent_integrand(self):
        p = Partition((0.0, 1e-12, 1.0))
        a_value, x00 = composite_value(p, 30)
        assert math.isfinite(a_value)
        assert x00 > 0.0


class TestBoundaryCase:
    def test_ratio_is_two_over_log_two(self):
        sample = boundary_case()
        assert sample.m == 1
        assert sample.n == 1
        assert sample.ratio == pytest.approx(2.0 / math.log(2.0), rel=1e-15)

    def test_exceeds_the_sweep_threshold(self):
        # the known outlier that motivates starting pass/fail sweeps at m=2
        assert boundary_case().ratio > 2.0


class TestMakeSample:
    def test_ratio_consistency(self):
        sample = make_sample(Partition((0.0, 0.3, 1.0)), 4)
        assert sample.ratio == sample.a_value / math.log(1.0 / sample.x00)
        assert sample.n == 2
        assert sample.m == 4

    def test_two_point_single_interval(self):
        sample = make_sample(Partition((0.0, 1.0)), 2)
        assert sample.ratio == pytest.approx(1.9300564487871652, rel=1e-13)
        assert sample.ratio < 2.0


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
        sample = make_sample(Partition((0.0, 1.0)), m)
        assert sample.ratio == pytest.approx(self.EXPECTED[m], rel=1e-12)

    def test_threshold_crossing_between_14_and_15_points(self):
        # the 1.3 threshold is crossed going from 14 to 15 nodes; rule sizes
        # here count nodes, so a bound quoted for "m >= 14" in the
        # sum-from-zero-to-m indexing convention means 15 nodes and up
        assert make_sample(Partition((0.0, 1.0)), 14).ratio > 1.3
        assert make_sample(Partition((0.0, 1.0)), 15).ratio < 1.3

    def test_decreasing_in_rule_size(self):
        ratios = [
            make_sample(Partition((0.0, 1.0)), m).ratio for m in range(2, 40)
        ]
        for earlier, later in zip(ratios, ratios[1:]):
            assert later < earlier


class TestStructuredPartitions:
    def test_dyadic_ladder(self):
        points = (0.0, *[2.0**-k for k in range(19, 0, -1)], 1.0)
        sample = make_sample(Partition(points), 7)
        assert sample.n == 20
        assert sample.ratio == pytest.approx(1.089930530219119, rel=1e-12)
        assert sample.ratio < 2.0

    @pytest.mark.parametrize("r", [2.0, 5.0])
    def test_geometric_refinement_weakly_decreases_ratio(self, r):
        ratios = []
        for n in range(1, 13):
            points = (0.0, *[r**-k for k in range(n - 1, 0, -1)], 1.0)
            ratios.append(make_sample(Partition(points), 6).ratio)
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
            assert random_partition(13, 5, scheme).n == 13

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
        a_values, x00 = logbound._composite_values(stack, m)
        for t, (ts, scheme, row) in enumerate(zip(trial_seeds, schemes, stack)):
            p = random_partition(n, int(ts), logbound._SCHEMES[scheme])
            assert p.breakpoints == tuple(row)
            assert composite_value(p, m) == (a_values[t], x00[t])

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
            assert make_sample(p, cell.m).ratio == cell.max_ratio

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
            sample = make_sample(partition, cell.m)
            assert sample.ratio == cell.max_ratio

    def test_max_ratio_filtering(self):
        report = sweep(range(2, 6), range(1, 3), 3, seed=1)
        overall = report.max_ratio()
        restricted = report.max_ratio(m_min=4)
        assert restricted <= overall
        with pytest.raises(ValueError):
            report.max_ratio(m_min=50)

    def test_small_sweep_stays_below_two(self):
        report = sweep(range(2, 8), range(1, 8), 12, seed=0)
        assert report.max_ratio() < 2.0

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


class TestSweepCsv:
    def test_layout_and_roundtrip(self):
        report = sweep(range(2, 4), range(1, 3), 3, seed=5)
        buffer = io.StringIO()
        write_sweep_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "m,n,trials,max_ratio,witness_seed"
        assert len(lines) == 1 + len(report.cells)
        for line, cell in zip(lines[1:], report.cells):
            m, n, trials, max_ratio, witness_seed = line.split(",")
            assert int(m) == cell.m
            assert int(n) == cell.n
            assert int(trials) == cell.trials
            assert float(max_ratio) == cell.max_ratio
            assert int(witness_seed) == cell.witness_seed
