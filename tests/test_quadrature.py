import math
import os
import pickle
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from cpvquad import quadrature
from cpvquad.quadrature import (
    EmbeddedRulePair,
    NonfiniteIntegrandError,
    gauss_legendre_rule,
    kronrod_pair_g7k15,
    kronrod_pair_g10k21,
    warm,
)

from helpers import (
    apply_rule_reference,
    clear_engine_caches,
    compiled_kernels,
    extension_reference,
    gauss_legendre_reference,
    kronrod_g10k21_reference,
    one_piece,
    pair_application_reference,
    patterson_k43_reference,
    patterson_k43_rule,
    resolve_reference,
)


def exactness_error(rule, k: int, a: float = -1.0, b: float = 1.0) -> float:
    value = apply_rule_reference(rule, lambda x: x**k, a, b)
    exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return abs(value - exact) / max(1.0, abs(exact))


class TestGaussLegendreRule:
    def test_midpoint_rule(self):
        rule = gauss_legendre_rule(1)
        assert rule.nodes == (0.0,)
        assert rule.weights == (2.0,)

    def test_two_point_closed_form(self):
        rule = gauss_legendre_rule(2)
        root = 1.0 / math.sqrt(3.0)
        assert rule.nodes[0] == pytest.approx(-root, abs=1e-15)
        assert rule.nodes[1] == pytest.approx(root, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert rule.weights[1] == pytest.approx(1.0, abs=1e-15)

    def test_twenty_point_rule_integrates_degree_39(self):
        rule = gauss_legendre_rule(20)
        assert exactness_error(rule, 39) <= 1e-13
        assert exactness_error(rule, 38) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 20, 37, 64, 100])
    def test_matches_reference_construction(self, m):
        rule = gauss_legendre_rule(m)
        nodes, weights = np.polynomial.legendre.leggauss(m)
        assert max(abs(a - b) for a, b in zip(rule.nodes, nodes)) <= 5e-14
        assert max(abs(a - b) for a, b in zip(rule.weights, weights)) <= 5e-14

    def test_matches_the_numpy_builder_bit_for_bit(self):
        for m in range(1, 101):
            rule = gauss_legendre_rule(m)
            assert (rule.nodes, rule.weights) == gauss_legendre_reference(m)

    @pytest.mark.parametrize("m", list(range(1, 101)))
    def test_exact_on_all_monomials_up_to_2m_minus_1(self, m):
        rule = gauss_legendre_rule(m)
        for k in range(0, 2 * m, max(1, (2 * m) // 8)):
            assert exactness_error(rule, k) <= 1e-13

    def test_symmetry_is_exact(self):
        for m in (4, 9, 33):
            rule = gauss_legendre_rule(m)
            for i in range(m):
                assert rule.nodes[i] == -rule.nodes[m - 1 - i]
                assert rule.weights[i] == rule.weights[m - 1 - i]

    def test_odd_rule_center_node_is_zero(self):
        assert gauss_legendre_rule(7).nodes[3] == 0.0

    def test_cached_and_deterministic(self):
        assert gauss_legendre_rule(13) is gauss_legendre_rule(13)

    @pytest.mark.parametrize("m", [0, -3, 101, 250])
    def test_out_of_range_order_rejected(self, m):
        with pytest.raises(ValueError):
            gauss_legendre_rule(m)

    def test_non_integer_order_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            gauss_legendre_rule(7.5)


class TestQuadratureRuleInvariants:
    def test_nodes_must_be_interior(self):
        with pytest.raises(ValueError, match="not interior to"):
            quadrature._checked_rule(nodes=(-1.0, 1.0), weights=(1.0, 1.0))

    def test_nodes_must_ascend(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            quadrature._checked_rule(nodes=(0.5, -0.5), weights=(1.0, 1.0))

    def test_weights_must_be_positive(self):
        # symmetric, mirrored and summing to 2, so only the sign is wrong
        with pytest.raises(ValueError, match="weights must be positive"):
            quadrature._checked_rule(
                nodes=(-0.5, 0.0, 0.5), weights=(1.5, -1.0, 1.5)
            )

    def test_weights_must_sum_to_two(self):
        with pytest.raises(ValueError, match="sum to the interval length 2"):
            quadrature._checked_rule(nodes=(-0.5, 0.5), weights=(0.7, 0.7))


def _check_perturbed_table(monkeypatch, builder, table_name, column, label,
                           give_back=None):
    """Raise the weight in table row 3 by a relative 1e-9 and require the
    build to fail.  A Kronrod weight gives the same amount back in row
    `give_back`, a row of a node the embedded rule lacks, so the weights
    still sum to 2 and only the exactness check can catch it."""
    original = builder()
    table = [list(row) for row in getattr(quadrature, table_name)]
    shift = 1e-9 * table[3][column]
    table[3][column] += shift
    if give_back is not None:
        table[give_back][column] -= shift
    monkeypatch.setattr(quadrature, table_name, tuple(map(tuple, table)))
    builder.cache_clear()
    clear_engine_caches()
    try:
        with pytest.raises(RuntimeError, match=label):
            builder()
    finally:
        monkeypatch.undo()
        builder.cache_clear()
        clear_engine_caches()
    assert builder() == original


class TestKronrodPair:
    @pytest.mark.parametrize(
        "column,label",
        [(1, "15-point Kronrod rule"), (2, "embedded 7-point Gauss rule")],
    )
    def test_perturbed_table_weight_is_rejected(self, monkeypatch, column, label):
        _check_perturbed_table(
            monkeypatch, kronrod_pair_g7k15, "_G7K15_HALF", column, label,
            give_back=4 if column == 1 else None,
        )

    def test_gauss_nodes_are_subset_of_kronrod(self):
        pair = kronrod_pair_g7k15()
        g7 = gauss_legendre_rule(7)
        embedded = [
            node
            for node, gw in zip(pair.kronrod.nodes, pair.gauss_weights)
            if gw != 0.0
        ]
        assert len(embedded) == 7
        assert max(abs(a - b) for a, b in zip(embedded, g7.nodes)) <= 5e-15

    def test_kronrod_exact_to_degree_22(self):
        pair = kronrod_pair_g7k15()
        for k in range(23):
            assert exactness_error(pair.kronrod, k) <= 1e-13

    def test_embedded_gauss_exact_to_degree_13(self):
        pair = kronrod_pair_g7k15()
        for k in range(14):
            value = sum(
                gw * x**k
                for x, gw in zip(pair.kronrod.nodes, pair.gauss_weights)
            )
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_x_squared_on_reference_interval(self):
        pair = kronrod_pair_g7k15()
        value = apply_rule_reference(pair.kronrod, lambda x: x * x, -1.0, 1.0)
        assert abs(value - 2.0 / 3.0) <= 1e-15

    def test_x_to_22_on_reference_interval(self):
        pair = kronrod_pair_g7k15()
        value = apply_rule_reference(pair.kronrod, lambda x: x**22, -1.0, 1.0)
        assert abs(value - 2.0 / 23.0) <= 1e-13

    def test_embedded_error_on_exponential(self):
        pair = kronrod_pair_g7k15()
        _, err = apply_rule_reference(pair, math.exp, -1.0, 1.0)
        assert err <= 1e-12

    def test_cached(self):
        assert kronrod_pair_g7k15() is kronrod_pair_g7k15()


class TestKronrodPairG10K21:
    """QUADPACK's QK21 pair, the adaptive engine's rule."""

    @pytest.mark.parametrize(
        "column,label",
        [(1, "21-point Kronrod rule"), (2, "embedded 10-point Gauss rule")],
    )
    def test_perturbed_table_weight_is_rejected(self, monkeypatch, column, label):
        # `column` is that of the pair's rows (x, w21, w10); the QNG table's
        # rows (x, w43, w21, w10) hold it one column further on, and row 5 is
        # the first Kronrod-only node after the Gauss node of row 3
        _check_perturbed_table(
            monkeypatch, kronrod_pair_g10k21, "_QNG_HALF", column + 1, label,
            give_back=5 if column == 1 else None,
        )

    def test_table_matches_the_80_digit_construction(self):
        # every node and weight within one ulp of the Stieltjes-polynomial
        # construction; the zeros (centre node, Kronrod-only Gauss weights)
        # exactly
        pair = kronrod_pair_g10k21()
        nodes, kronrod_weights, gauss_weights = kronrod_g10k21_reference()
        for table, reference in (
            (pair.kronrod.nodes, nodes),
            (pair.kronrod.weights, kronrod_weights),
            (pair.gauss_weights, gauss_weights),
        ):
            assert len(table) == len(reference) == 21
            for x, r in zip(table, reference):
                if r == 0:
                    assert x == 0.0
                else:
                    assert abs(mp.mpf(x) - r) <= math.ulp(float(r)), (x, r)

    def test_gauss_nodes_are_those_of_the_ten_point_rule(self):
        pair = kronrod_pair_g10k21()
        embedded = [
            node
            for node, gw in zip(pair.kronrod.nodes, pair.gauss_weights)
            if gw != 0.0
        ]
        assert len(embedded) == 10
        reference = gauss_legendre_rule(10).nodes
        assert max(abs(a - b) for a, b in zip(embedded, reference)) <= 5e-15
        assert len(pair.kronrod.nodes) == 21
        assert sum(1 for w in pair.gauss_weights if w == 0.0) == 11

    def test_kronrod_exact_to_degree_31_and_gauss_to_19(self):
        pair = kronrod_pair_g10k21()
        for k in range(32):
            assert exactness_error(pair.kronrod, k) <= 1e-13
        for k in range(20):
            value = math.fsum(
                gw * x**k
                for x, gw in zip(pair.kronrod.nodes, pair.gauss_weights)
            )
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_built_on_first_engine_use_not_at_import(self):
        code = (
            "import sys, math; sys.path.insert(0, sys.argv[1]); "
            "from cpvquad import quadrature as q; "
            "assert q.kronrod_pair_g10k21.cache_info().currsize == 0; "
            "assert q._patterson_extension.cache_info().currsize == 0; "
            "q.adaptive_integrate(math.exp, (('plain', 0.0, 1.0),), 1e-12, "
            "0.0, 0.0); "
            "assert q.kronrod_pair_g10k21.cache_info().currsize == 1; "
            "assert q._patterson_extension.cache_info().currsize == 1"
        )
        src = os.path.dirname(os.path.dirname(quadrature.__file__))
        subprocess.run([sys.executable, "-c", code, src], check=True)

    def test_nodes_stay_two_ulps_inside_the_narrowest_halves(self):
        # at least one double lies between each end of a split half and its
        # nearest mapped node; with the 7/15 pair's floor of 1,024 ulps the
        # outermost 10/21 nodes land next to the ends
        pair = kronrod_pair_g10k21()
        kernel = quadrature._pair_kernel("plain")
        for a, b in _split_halves():
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            first = mid + half * pair.kronrod.nodes[0]
            last = mid + half * pair.kronrod.nodes[-1]
            assert a < math.nextafter(first, a), (a, b)
            assert math.nextafter(last, b) < b, (a, b)
            assert kernel(math.sin, a, b)[:2] == apply_rule_reference(
                pair, math.sin, a, b
            )

    def test_width_floor_keeps_two_ulps_margin(self):
        # the 7/15 pair's outermost node gives the old floor of 1,024 ulps;
        # the 10/21 pair's, closer to 1, needs twice that
        floor = quadrature._width_floor
        outermost = kronrod_pair_g10k21().kronrod.nodes[-1]
        assert floor(kronrod_pair_g7k15().kronrod.nodes[-1]) == 1024.0
        assert floor(outermost) == 2048.0
        assert quadrature._MIN_WIDTH_ULPS == 2048.0
        assert (1.0 - outermost) * quadrature._MIN_WIDTH_ULPS / 4.0 >= 2.0


class TestPattersonExtension:
    """Patterson's 43-point extension of the 10/21 pair, QUADPACK's QNG
    table, which the engine applies to intervals that look resolved."""

    def test_perturbed_table_weight_is_rejected(self, monkeypatch):
        _check_perturbed_table(
            monkeypatch, quadrature._patterson_extension, "_QNG_HALF", 1,
            "43-point Patterson rule fails exactness", give_back=4,
        )

    def test_moved_kronrod_node_is_rejected(self, monkeypatch):
        # the pair and the 43-point rule read a shared node off one row of
        # the QNG table, so a moved node moves in both rules, and the
        # exactness check of each rejects it
        originals = (kronrod_pair_g10k21(), quadrature._patterson_extension())
        table = [list(row) for row in quadrature._QNG_HALF]
        assert table[1][2] != 0.0
        table[1][0] *= 1.0 - 1e-9
        monkeypatch.setattr(quadrature, "_QNG_HALF", tuple(map(tuple, table)))
        kronrod_pair_g10k21.cache_clear()
        clear_engine_caches()
        try:
            with pytest.raises(RuntimeError, match="43-point Patterson rule fails"):
                quadrature._patterson_extension()
            with pytest.raises(RuntimeError, match="21-point Kronrod rule fails"):
                kronrod_pair_g10k21()
        finally:
            monkeypatch.undo()
            kronrod_pair_g10k21.cache_clear()
            clear_engine_caches()
        assert (kronrod_pair_g10k21(), quadrature._patterson_extension()) == originals

    def test_engine_reads_the_built_rules_off_the_table(self):
        # adaptive_integrate takes the pair's outermost node and the node
        # counts from the table, without building the rules on every call
        rules = quadrature._patterson_extension()
        nodes = rules.pair.kronrod.nodes
        assert quadrature._PAIR_OUTERMOST == nodes[-1] == -nodes[0]
        assert quadrature._PAIR_ORDER == len(nodes)
        assert quadrature._EXTENSION_ORDER == len(rules.new_nodes)

    def test_table_matches_the_160_digit_construction(self):
        # every node and weight within one ulp, far inside 5e-15, of the
        # construction from the extension polynomial G_22; the centre node
        # exactly
        rule = patterson_k43_rule()
        nodes, weights = patterson_k43_reference()
        for table, reference in ((rule.nodes, nodes), (rule.weights, weights)):
            assert len(table) == len(reference) == 43
            for x, r in zip(table, reference):
                assert abs(mp.mpf(x) - r) <= min(5e-15, math.ulp(float(r))), (x, r)

    def test_nests_the_pair_and_is_exact_to_degree_64(self):
        rules = quadrature._patterson_extension()
        rule = patterson_k43_rule()
        new = sorted(set(rule.nodes) - set(rules.pair.kronrod.nodes))
        assert len(new) == 22
        # the engine extends by exactly the nodes and weights the rule adds
        assert rules.new_nodes == tuple(new)
        weight = dict(zip(*rule))
        assert rules.new_weights == tuple(weight[x] for x in new)
        assert rules.partial_weights == tuple(
            weight[x] for x in rules.pair.kronrod.nodes)
        # the new nodes interlace the 21 Kronrod nodes
        assert sorted(new + list(rules.pair.kronrod.nodes)) == list(rule.nodes)
        assert all(new[j] < x < new[j + 1]
                   for j, x in enumerate(rules.pair.kronrod.nodes))
        for k in range(65):
            assert exactness_error(rule, k) <= 1e-13

    def test_compiled_only_when_first_needed(self):
        # a call that meets the tolerance at its first application compiles
        # neither the extension kernels nor the decision
        clear_engine_caches()
        one_piece(math.exp, 0.0, 1.0, 1e-12)
        assert compiled_kernels() == (1, 0, 0)
        one_piece(math.sqrt, 0.0, 1.0, 1e-12)
        assert compiled_kernels() == (1, 1, 1)

    def test_quotient_forms_compile_only_their_pair_kernels(self):
        # a principal value met at its first applications compiles the two
        # quotient forms' pair kernels alone; looking both up again compiles
        # nothing, so those are the two it holds.  A refining call then
        # adds the plain pair kernel, the resolver and one extension kernel
        code = (
            "import sys, math; sys.path.insert(0, sys.argv[1]); "
            "from cpvquad import quadrature as q; "
            "from cpvquad.cpv import CpvProblem, cpv_standard; "
            "caches = (q._pair_kernel, q._extension_kernel, q._resolver); "
            "sizes = lambda: [c.cache_info().currsize for c in caches]; "
            "result = cpv_standard(CpvProblem(f=math.exp, tau=0.5, tol=1e-12)); "
            "assert result.evaluations == 42, result.evaluations; "
            "assert sizes() == [2, 0, 0], sizes(); "
            "q._pair_kernel('difference'); q._pair_kernel('symmetric'); "
            "assert sizes() == [2, 0, 0], sizes(); "
            "q.adaptive_integrate(math.sqrt, (('plain', 0.0, 1.0),), 1e-12, "
            "0.0, 0.0); "
            "assert sizes() == [3, 1, 1], sizes(); "
            "q._extension_kernel('plain'); "
            "assert sizes() == [3, 1, 1], sizes()"
        )
        src = os.path.dirname(os.path.dirname(quadrature.__file__))
        subprocess.run([sys.executable, "-c", code, src], check=True)

    def test_warm_compiles_what_the_forms_need(self):
        clear_engine_caches()
        warm(["difference", "symmetric"])
        compiled = compiled_kernels()
        assert compiled == (2, 2, 1)
        # refining both forms, extensions included, compiles nothing more
        f = lambda x: math.sin(550.0 * x)
        pieces = (("difference", -1.0, -0.5), ("symmetric", 0.0, 0.5))
        _, _, evaluations, _ = quadrature.adaptive_integrate(
            f, pieces, 1e-12, 0.3, f(0.3))
        # each piece extended an interval: 22 evaluations on top of runs of 21
        order = len(quadrature._patterson_extension().pair.kronrod.nodes)
        assert all(e % order for e in evaluations)
        assert compiled_kernels() == compiled

    def test_extension_floor_keeps_two_ulps_margin(self):
        # an extended interval is not split, so its floor is half what the
        # outermost node would need on the halves
        floor = quadrature._width_floor
        rule = patterson_k43_rule()
        assert quadrature._MIN_EXTENSION_ULPS == 2.0**13
        assert floor(rule.nodes[-1]) == 2.0**14
        # the outermost node lies (1 - node) half-widths from an end
        assert (1.0 - rule.nodes[-1]) * quadrature._MIN_EXTENSION_ULPS / 2.0 >= 2.0
        rng = random.Random(20261020)
        for c in _OFFSETS + (2.0, 4.0**-3):
            for extra in (1.0, 7.0, 300.0):
                if c in (2.0, 4.0**-3):
                    a = c - rng.randrange(4000) * math.ulp(c)
                else:
                    a = rng.uniform(c - 1.0, c + 1.0)
                b = _just_over_floor(a, extra, quadrature._MIN_EXTENSION_ULPS)
                assert quadrature._wider_than(
                    a, b, quadrature._MIN_EXTENSION_ULPS
                )
                mid = 0.5 * (a + b)
                half = 0.5 * (b - a)
                assert a < math.nextafter(mid + half * rule.nodes[0], a)
                assert math.nextafter(mid + half * rule.nodes[-1], b) < b


class TestApplyRule:
    """Rules applied on mapped intervals through the per-node reference, and
    a non-finite value through the engine's kernel."""

    def test_constant_over_stretched_interval(self):
        value = apply_rule_reference(
            gauss_legendre_rule(7), lambda x: 1.0, 0.0, 3.0)
        assert abs(value - 3.0) <= 1e-14

    def test_odd_function_cancels_exactly(self):
        pair = kronrod_pair_g7k15()
        value = apply_rule_reference(pair.kronrod, lambda x: x, -1.0, 1.0)
        assert abs(value) <= 1e-16

    def test_pair_on_reciprocal(self):
        # the embedded error for 1/x on [0.5, 1] sits around 2e-11, in line
        # with the standard one-panel Gauss error for this integrand; the
        # value itself is at machine precision and the estimate covers the
        # true error comfortably
        pair = kronrod_pair_g7k15()
        value, err = apply_rule_reference(pair, lambda x: 1.0 / x, 0.5, 1.0)
        true_error = abs(value - math.log(2.0))
        assert true_error <= 1e-14
        assert err <= 1e-10
        assert true_error <= err

    def test_degree_13_exact_after_affine_map(self):
        value = apply_rule_reference(
            gauss_legendre_rule(7), lambda x: x**13, 2.0, 5.0)
        exact = (5.0**14 - 2.0**14) / 14.0
        assert abs(value - exact) / exact <= 1e-12

    def test_nonfinite_integrand_reports_abscissa(self):
        kernel = quadrature._pair_kernel("plain")

        def bad(x):
            return math.inf if abs(x) < 0.1 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            kernel(bad, -1.0, 1.0)
        assert abs(excinfo.value.x) < 0.1

    def test_pair_type_carries_aligned_gauss_weights(self):
        pair = kronrod_pair_g7k15()
        assert isinstance(pair, EmbeddedRulePair)
        assert len(pair.gauss_weights) == 15
        assert sum(1 for w in pair.gauss_weights if w == 0.0) == 8


def _just_over_floor(a: float, extra: float, floor=None) -> float:
    """The end b of an [a, b] `extra` ulps wider than `floor`, by default
    the width floor ``_MIN_WIDTH_ULPS``, the narrowest the engine still
    bisects."""
    if floor is None:
        floor = quadrature._MIN_WIDTH_ULPS
    u = math.ulp(a)
    return a + (floor + extra) * max(u, math.ulp(a + 2.0 * floor * u))


#: Interval centres, from the origin out to offsets of 1e9.
_OFFSETS = (0.0, 1.0, -3.5, 1e3, 1e6, 1e9, -1e9)


def _kernel_intervals():
    """Seeded intervals on and off the origin, some just above the split floor.

    Offset intervals sit inside [c - 1, c + 1] with c up to 1e9; the narrow
    ones are the width floor plus a little, the narrowest the engine still
    bisects.
    """
    rng = random.Random(20261018)
    out = [(-1.0, 1.0), (0.5, 1.0), (2.0, 5.0)]
    for c in _OFFSETS + (rng.uniform(-1e9, 1e9),):
        out.append((c - 1.0, c + 1.0))
        for _ in range(3):
            out.append(tuple(sorted(rng.uniform(c - 1.0, c + 1.0) for _ in "ab")))
        a = rng.uniform(c - 1.0, c + 1.0)
        for extra in (1.0, 7.0, 300.0):
            out.append((a, _just_over_floor(a, extra)))
    return out


def _split_halves():
    """Both halves of seeded intervals just over the width floor, at offsets
    up to 1e9 and below powers of two: the narrowest intervals the engine
    applies its rule to."""
    rng = random.Random(20261019)
    out = []
    for c in _OFFSETS + (rng.uniform(-1e9, 1e9), 2.0, 4.0**-3):
        for _ in range(4):
            if c in (2.0, 4.0**-3):
                a = c - rng.randrange(4000) * math.ulp(c)
            else:
                a = rng.uniform(c - 1.0, c + 1.0)
            for extra in (1.0, 7.0, 300.0):
                b = _just_over_floor(a, extra)
                assert quadrature._wider_than(a, b, quadrature._MIN_WIDTH_ULPS)
                mid = 0.5 * (a + b)
                out.extend([(a, mid), (mid, b)])
    return out


def _kernel_integrands(a, b, rng):
    scale = max(1.0, abs(a), abs(b))
    k = rng.uniform(1.0, 50.0)
    c = rng.uniform(-3.0, 3.0) / scale
    power = rng.randrange(10)
    jump = a + 0.37 * (b - a)
    return [
        lambda x: math.sin(k * x),
        lambda x: math.exp(c * x),
        lambda x: x**power,
        lambda x: 1.0 if x >= jump else -0.5,
    ]


def _outcome(call):
    try:
        return repr(call())
    except NonfiniteIntegrandError as exc:
        return (type(exc).__name__, str(exc))
    except RuntimeError as exc:
        return ("endpoint", str(exc))
    except ZeroDivisionError:
        return ("zero division",)


def _rule(m):
    """The rule under test: None is the 7/15 pair, "g10k21" the engine's
    10/21 pair, an integer the Gauss-Legendre rule of that many points."""
    if m is None:
        return kronrod_pair_g7k15()
    if m == "g10k21":
        return kronrod_pair_g10k21()
    return gauss_legendre_rule(m)


def _seed(m) -> int:
    """A seed offset per rule under test."""
    return 0 if m is None else 21 if m == "g10k21" else m


def _deciding_reference(f, a, b, *form):
    """The engine's pair kernel deciding at once, one node at a time:
    ``(value, |value - gauss value|, partial)``; `form` is ``(form, tau,
    f_tau)`` for a quotient."""
    value, err, values = pair_application_reference(f, a, b, *form)
    return value, err, resolve_reference(values, 0.5 * (b - a), err)


class TestRuleKernel:
    """The engine compiles its own kernels, one per form; the rules
    themselves are plain data."""

    # the engine's pair is the one rule that has kernels
    @pytest.mark.parametrize("m", ["g10k21"])
    def test_bit_equal_to_the_per_node_loop(self, m):
        kernel = quadrature._pair_kernel("plain")
        rule = _rule(m)
        rng = random.Random(_seed(m))
        for a, b in _kernel_intervals():
            for f in _kernel_integrands(a, b, rng):
                got = _outcome(lambda: kernel(f, a, b)[:2])
                assert got == _outcome(lambda: apply_rule_reference(rule, f, a, b))
                assert isinstance(got, str), (a, b)

    @pytest.mark.parametrize("m", [None, "g10k21", 7])
    def test_applied_rule_pickles(self, m):
        rule = _rule(m)
        one_piece(math.sqrt, 0.0, 1.0, 1e-12)
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule
        assert (apply_rule_reference(copy, math.exp, 0.0, 1.0)
                == apply_rule_reference(rule, math.exp, 0.0, 1.0))

    @pytest.mark.parametrize("m", [None, "g10k21", 7])
    def test_public_rules_hold_no_kernels(self, m):
        # the engine compiles its own kernels; a public rule it has run on
        # has no instance dict to keep one in
        rule = _rule(m)
        one_piece(math.sqrt, 0.0, 1.0, 1e-12)
        for obj in (rule, getattr(rule, "kronrod", rule)):
            assert not hasattr(obj, "__dict__")
            assert not hasattr(obj, "_kernel")

    def test_kernel_belongs_to_the_rule(self):
        assert quadrature._pair_kernel("plain") is quadrature._pair_kernel("plain")


def _quotient_integrands(a, b, rng):
    """The kernel integrands, plus a NaN at one node and a steep line."""
    nan_at = a + 0.61 * (b - a)
    return _kernel_integrands(a, b, rng) + [
        lambda x: math.nan if x > nan_at else math.cos(x),
        lambda x: 6e307 * x,
        lambda x: 1e308 * x,
    ]


class TestQuotientKernels:
    """The engine's fused kernels, deciding at once, give the per-node
    reference applied to the quotient closures, bit for bit."""

    @pytest.mark.parametrize("m", ["g10k21"])
    def test_difference_kernel_bit_equal_to_the_closure(self, m):
        kernel = quadrature._pair_kernel("difference")
        rng = random.Random(31 + _seed(m))
        outcomes = set()
        for a, b in _kernel_intervals():
            width = b - a
            for f in _quotient_integrands(a, b, rng):
                # tau beside the interval, as in the far pieces
                if rng.random() < 0.5:
                    tau = b + width * rng.uniform(0.01, 2.0)
                else:
                    tau = a - width * rng.uniform(0.01, 2.0)
                f_tau = f(tau)
                if not math.isfinite(f_tau):
                    continue
                got = _outcome(lambda: kernel(f, a, b, tau, f_tau))
                want = _outcome(lambda: _deciding_reference(
                    f, a, b, "difference", tau, f_tau))
                assert got == want, (m, a, b, tau)
                outcomes.add(got[0] if isinstance(got, tuple) else "value")
        assert {"value", "NonfiniteIntegrandError",
                "QuotientOverflowError"} <= outcomes

    @pytest.mark.parametrize("m", ["g10k21"])
    def test_symmetric_kernel_bit_equal_to_the_closure(self, m):
        kernel = quadrature._pair_kernel("symmetric")
        rng = random.Random(47 + _seed(m))
        outcomes = set()
        for a, b in _kernel_intervals():
            for f in _quotient_integrands(a, b, rng):
                tau = rng.choice((0.0, 0.3, -2.5, a))
                got = _outcome(lambda: kernel(f, a, b, tau))
                want = _outcome(lambda: _deciding_reference(
                    f, a, b, "symmetric", tau))
                assert got == want, (m, a, b, tau)
                outcomes.add(got[0] if isinstance(got, tuple) else "value")
        assert {"value", "NonfiniteIntegrandError",
                "QuotientOverflowError"} <= outcomes

    def test_each_form_compiles_once_per_rule(self):
        for lookup in (quadrature._pair_kernel, quadrature._extension_kernel):
            kernels = [lookup(form) for form in quadrature._FORMS]
            assert len(set(map(id, kernels))) == 3
            assert kernels == [lookup(form) for form in quadrature._FORMS]


class TestEngineKernels:
    """The engine's kernels: the pair's, which also decides whether the
    interval looks resolved or keeps the values that decide it later, and
    the extension's.  Each form gives the node-by-node reference applied to
    the quotient closure, bit for bit, and both ways of deciding give the
    reference's decision."""

    @pytest.mark.parametrize("form", ["plain", "difference", "symmetric"])
    def test_bit_equal_to_the_reference(self, form):
        first = quadrature._pair_kernel(form)
        extend = quadrature._extension_kernel(form)
        rng = random.Random(61 + len(form))
        intervals = _kernel_intervals()
        for a, _ in list(intervals):
            intervals.append(
                (a, _just_over_floor(a, 3.0, quadrature._MIN_EXTENSION_ULPS)))
        seen = set()
        for a, b in intervals:
            width = b - a
            for f in _quotient_integrands(a, b, rng):
                tau, f_tau = 0.0, 0.0
                if form == "difference":
                    tau = b + width * rng.uniform(0.01, 2.0)
                    f_tau = f(tau)
                    if not math.isfinite(f_tau):
                        continue
                elif form == "symmetric":
                    tau = rng.choice((0.0, 0.3, -2.5, a))
                got = _outcome(lambda: first(f, a, b, tau, f_tau, True))
                assert got == _outcome(lambda: pair_application_reference(
                    f, a, b, form, tau, f_tau))
                if not isinstance(got, str):
                    seen.add(got[0])
                    continue
                # the values it keeps decide later as it decides at once,
                # and as the reference does
                value, err, values = first(f, a, b, tau, f_tau, True)
                partial = resolve_reference(values, 0.5 * (b - a), err)
                assert repr(first(f, a, b, tau, f_tau)) == repr((value, err, partial))
                resolved = quadrature._resolver()(values, 0.5 * (b - a), err)
                assert repr(resolved) == repr(partial)
                if partial is None or not quadrature._wider_than(
                    a, b, quadrature._MIN_EXTENSION_ULPS
                ):
                    seen.add("unresolved" if partial is None else "too narrow")
                    continue
                seen.add("extended")
                got = _outcome(
                    lambda: extend(f, a, b, tau, f_tau, partial, value))
                want = _outcome(lambda: extension_reference(
                    f, a, b, partial, value, form, tau, f_tau))
                assert got == want, (form, a, b)
        overflow = "SumOverflowError" if form == "plain" else "QuotientOverflowError"
        assert {"extended", "unresolved", "too narrow",
                "NonfiniteIntegrandError", overflow} <= seen

    @pytest.mark.parametrize("kernel", ["pair", "extension"])
    @pytest.mark.parametrize("form", ["plain", "difference", "symmetric"])
    def test_node_on_endpoint_raises_before_calling_f(self, form, kernel):
        # [1, 1 + 8 ulp] is far below both width floors, so the outermost
        # nodes round onto its ends
        lookup = (quadrature._pair_kernel if kernel == "pair"
                  else quadrature._extension_kernel)
        apply = lookup(form)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0

        a, b = 1.0, 1.0 + 8.0 * math.ulp(1.0)
        extra = (0.0, 0.0) if kernel == "extension" else ()
        with pytest.raises(RuntimeError,
                           match="node mapped onto an interval endpoint"):
            apply(f, a, b, 3.0, 1.0, *extra)
        assert not calls
