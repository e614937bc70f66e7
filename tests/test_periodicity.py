import math
import random

import pytest

from ocasync import bignum
from ocasync.bignum import LcmPoly, lcm_range
from ocasync.formula import Kind
from ocasync.periodicity import (
    INFINITE_LEVEL, ConstantBundle, TpPair, core_levels, ctl_constants,
    default_scheme_bound, segment_start, shift_map, ua_constants,
)


class TestCtlConstants:
    def test_atoms_are_base_case(self):
        assert ctl_constants(Kind.ATOM, [], 3) == TpPair(0, 1)
        assert ctl_constants(Kind.TRUE, [], 5) == TpPair(0, 1)

    def test_negation_passes_through(self):
        assert ctl_constants(Kind.NOT, [TpPair(4, 6)], 3) == TpPair(4, 6)

    def test_conjunction_max_and_lcm(self):
        assert ctl_constants(Kind.AND, [TpPair(4, 6), TpPair(2, 10)], 3) == TpPair(4, 30)

    def test_next_operator(self):
        # K = lcm{1,2,3} = 6
        assert ctl_constants(Kind.EX, [TpPair(0, 1)], 3) == TpPair(1, 6)

    def test_until_operators(self):
        # K = 2, lcm(K*1, 1) = 2, t = 0 + 2*4*2 = 16
        assert ctl_constants(Kind.AU, [TpPair(0, 1), TpPair(0, 1)], 2) == TpPair(16, 2)
        assert ctl_constants(Kind.EU, [TpPair(0, 1), TpPair(0, 1)], 2) == TpPair(16, 2)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state count must be positive"):
            ctl_constants(Kind.ATOM, [], 0)
        with pytest.raises(ValueError):
            ctl_constants(Kind.EX, [], 3)
        with pytest.raises(ValueError):
            ctl_constants(Kind.AND, [TpPair(0, 1)], 3)
        with pytest.raises(ValueError):
            ctl_constants(Kind.UA, [TpPair(0, 1), TpPair(0, 1)], 3)

    def test_parent_dominates_children(self):
        # the parent period must be a multiple of each child's, the parent
        # threshold at least each child's
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(1, 5)
            child = [
                TpPair(rng.randint(0, 20), rng.randint(1, 12)),
                TpPair(rng.randint(0, 20), rng.randint(1, 12)),
            ]
            op = rng.choice([Kind.AND, Kind.EX, Kind.EU, Kind.AU])
            used = child[:1] if op is Kind.EX else child
            t, p = ctl_constants(op, used, k)
            for ct, cp in used:
                assert t >= ct
                assert p % cp == 0


class TestUaConstants:
    def test_b3_bundle_exact_values(self):
        bundle = ua_constants(3, 0, 1, b_override=3)
        B = math.lcm(*range(1, 55))
        assert bundle.B == B
        assert bundle.period == B
        assert bundle.seg_threshold == 3**9 * B
        assert bundle.counter_threshold == 3**11 * B
        assert bundle.m == 4  # -1, -2/3, -1/2, -1/3
        assert bundle.m + 1 < 9
        assert not bundle.below_paper_regime

    def test_b1_degenerate_accepted_and_flagged(self):
        bundle = ua_constants(3, 0, 1, b_override=1)
        assert (bundle.B, bundle.period) == (2, 2)
        assert bundle.seg_threshold == 2 and bundle.counter_threshold == 2
        assert bundle.below_paper_regime

    def test_period_must_dominate_previous_threshold(self):
        with pytest.raises(ValueError):
            ua_constants(3, prev_t=10, prev_p=1, b_override=1)

    def test_default_bound_needs_three_states(self):
        with pytest.raises(ValueError):
            ua_constants(2, 0, 1)
        ua_constants(2, 0, 1, b_override=2)  # override lifts the restriction

    def test_invariant_identities_hold_by_construction(self):
        for n in (3, 4):
            for b in (2, 3, 4):
                bundle = ua_constants(n, 1, 2, b_override=b)
                assert bundle.period == bundle.B * bundle.prev_p
                assert bundle.seg_threshold == b**9 * bundle.period
                assert bundle.counter_threshold == b**11 * bundle.period
                assert bundle.period > bundle.prev_t


class TestSegments:
    def bundle(self):
        return ua_constants(3, 0, 1, b_override=3)

    def test_segment_zero_starts_at_zero(self):
        b = self.bundle()
        v = b.counter_threshold + 123
        assert segment_start(0, v, b) == 0

    def test_last_segment_is_infinite(self):
        b = self.bundle()
        v = b.counter_threshold + 123
        assert segment_start(b.m + 1, v, b) == INFINITE_LEVEL

    def test_unit_slope_segment_start(self):
        b = self.bundle()
        # with the steepest slope -1 the start is (v - prevT) - b^8 * P
        v = b.counter_threshold + b.prev_t + 3**8 * b.period + 17
        assert segment_start(1, v, b) == b.counter_threshold + 17

    def test_flooring_for_fractional_slopes(self):
        b = self.bundle()
        v = b.counter_threshold + 1
        # slope -2/3: start = floor(3(v - prevT)/2) - b^8 P
        assert segment_start(2, v, b) == (3 * (v - b.prev_t)) // 2 - 3**8 * b.period

    def test_monotone_starts(self):
        b = self.bundle()
        for v in (b.counter_threshold + 1, 2 * b.counter_threshold + 7):
            starts = [segment_start(i, v, b) for i in range(1, b.m + 1)]
            assert starts == sorted(starts)
            assert all(x < y for x, y in zip(starts, starts[1:]))

    def test_out_of_range_and_low_counter_rejected(self):
        b = self.bundle()
        with pytest.raises(ValueError):
            segment_start(b.m + 2, b.counter_threshold + 1, b)
        with pytest.raises(ValueError):
            segment_start(0, b.counter_threshold, b)


class TestCoreAndShift:
    def scaled(self):
        return ua_constants(3, 0, 1, b_override=1)

    def test_core_size(self):
        b = self.scaled()
        v = b.counter_threshold + b.period + 1
        assert len(core_levels(v, b)) == (b.m + 1) * b.seg_threshold

    def test_segment_zero_shift_is_identity(self):
        b = self.scaled()
        v = b.counter_threshold + b.period + 1
        assert shift_map(0, v, b) == 0
        assert shift_map(1, v, b) == 1

    def test_unit_slope_shift_adds_period(self):
        b = self.scaled()
        v = b.counter_threshold + b.period + 1
        s1 = segment_start(1, v, b)
        assert shift_map(s1 + 1, v, b) == segment_start(1, v + b.period, b) + 1
        assert shift_map(s1 + 1, v, b) == s1 + b.period + 1

    def test_shift_is_a_bijection_between_cores(self):
        b = self.scaled()
        for v in (b.counter_threshold + b.period + 1, b.counter_threshold + 2 * b.period):
            src = core_levels(v, b)
            dst = core_levels(v + b.period, b)
            image = [shift_map(lv, v, b) for lv in src]
            assert image == dst

    def test_levels_outside_core_rejected(self):
        b = self.scaled()
        v = b.counter_threshold + b.period + 1
        outside = max(core_levels(v, b)) + 1
        with pytest.raises(ValueError):
            shift_map(outside, v, b)

    def test_big_b_shift_closed_form(self):
        b = ua_constants(3, 0, 1, b_override=3)
        v = b.counter_threshold + b.prev_t + 3**8 * b.period + 1000
        for i in (1, 2, b.m):
            lv = segment_start(i, v, b) + 5
            eps = b.negative_slopes[i - 1]
            expected = lv + (b.period * eps.denominator) // (-eps.numerator)
            assert shift_map(lv, v, b) == expected


class TestSymbolicConstants:
    def test_lcm_range_materializes_small(self):
        assert lcm_range(10) == math.lcm(*range(1, 11))
        assert isinstance(lcm_range(10), int)

    def test_lcm_range_symbolic_large(self):
        big = lcm_range(10**7)
        assert bignum.is_symbolic(big)
        assert big > 10**100

    def test_symbolic_arithmetic_and_comparisons(self):
        L = lcm_range(10**7)
        assert L * 2 > L
        assert L + 1 > L
        assert L * L > L * 2
        assert (L * 3) * (L * 5) == LcmPoly.make(10**7, {2: 15})
        assert bignum.lcm(L * 4, L * 6) == L * 12
        assert bignum.lcm(L * L * 3, L * 7) == LcmPoly.make(10**7, {2: 3})
        assert bignum.maximum(L, 5) == L

    @staticmethod
    def _value(x, L):
        return x if isinstance(x, int) else sum(c * L**k for k, c in x.coeffs)

    @staticmethod
    def _operand(rng, n, single=False):
        """A small int, or an ``LcmPoly`` in base n with small coefficients
        (one term of power 1..3 when ``single``)."""
        if rng.random() < 0.25:
            return rng.randint(1, 99)
        if single:
            return LcmPoly(n, ((rng.randint(1, 3), rng.randint(1, 60)),))
        terms = {k: rng.randint(1, 40) for k in rng.sample(range(4), rng.randint(1, 3))}
        terms.setdefault(rng.randint(1, 3), rng.randint(1, 40))
        return LcmPoly.make(n, terms)

    def test_operations_match_int_arithmetic(self, rng):
        for n in [10, 12, 30, 243] + rng.sample(range(10, 400), 8):
            L = math.lcm(*range(1, n + 1))
            for _ in range(150):
                a, b = self._operand(rng, n), self._operand(rng, n)
                va, vb = self._value(a, L), self._value(b, L)
                assert self._value(a * b, L) == va * vb, (n, a, b)
                assert self._value(a + b, L) == va + vb, (n, a, b)
                assert (a <= b, a >= b, a < b, a > b) == (va <= vb, va >= vb, va < vb, va > vb)
                assert (a == b) == (va == vb), (n, a, b)
                assert a <= a and a >= a and not a < a and not a > a
                assert self._value(bignum.maximum(a, b), L) == max(va, vb)
                a, b = self._operand(rng, n, True), self._operand(rng, n, True)
                got = bignum.lcm(a, b)
                assert self._value(got, L) == math.lcm(self._value(a, L), self._value(b, L)), \
                    (n, a, b, got)

    def test_lcm_of_different_powers_with_composite_cofactors(self):
        # lcm(1..12) = 2^3 * 3^2 * 5 * 7 * 11; lcm(1..243) holds 3^5, and
        # math.log(243, 3) rounds below 5
        for n, (ka, ca), (kb, cb) in [
            (12, (1, 6), (2, 1)), (12, (2, 2), (1, 6)), (12, (1, 13 * 9), (3, 4)),
            (12, (2, 16), (1, 2 * 17 * 27)), (12, (0, 35), (2, 9)), (243, (2, 1), (1, 243)),
        ]:
            L = math.lcm(*range(1, n + 1))
            a = LcmPoly(n, ((ka, ca),)) if ka else ca
            b = LcmPoly(n, ((kb, cb),))
            want = math.lcm(ca * L**ka, cb * L**kb)
            for x, y in ((a, b), (b, a)):
                got = bignum.lcm(x, y)
                assert isinstance(got, LcmPoly) and self._value(got, L) == want, (x, y, got)

    def test_regime_and_base_guards_raise(self):
        L = LcmPoly(10, ((1, 1),))  # lcm(1..10) = 2520, its own certified bound
        assert L > 2519
        with pytest.raises(ArithmeticError, match="outside the certified regime"):
            L <= 2520
        other = LcmPoly(12, ((1, 1),))
        for op in (lambda: L * other, lambda: L + other, lambda: L < other,
                   lambda: bignum.lcm(L, other)):
            with pytest.raises(ValueError, match="^mixed lcm bases$"):
                op()

    def test_symbolic_bit_length_scales_with_power(self):
        L = lcm_range(10**7)
        one = bignum.bit_length(L)
        two = bignum.bit_length(L * L)
        assert 0.98 < two / (2 * one) < 1.02

    def test_default_bundles_for_growing_state_counts(self):
        for n in (3, 4, 5):
            bundle = ua_constants(n, 0, 1)
            assert bundle.b == default_scheme_bound(n) == 8 * n**3
            assert bundle.period == bundle.B  # prev_p = 1
            assert bundle.m + 1 < bundle.b**2

    def test_nested_bundles_grow_single_exponentially(self):
        for n in (3, 4):
            prev = TpPair(0, 1)
            bits = []
            for _ in range(3):
                bundle = ua_constants(n, prev.t, prev.p)
                prev = bundle.pair
                bits.append(bignum.bit_length(bundle.period))
            assert bits == sorted(bits)
            step = bits[0]
            for depth, total in enumerate(bits, start=1):
                assert abs(total - depth * step) <= 0.02 * total + 64
