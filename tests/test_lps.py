import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ocasync import corpus
from ocasync.errors import BudgetExceededError
from ocasync.lps import (
    CycleStats, Lps, _piece, _reach_table, adjust_length, analyze_cycle_repetitions,
    basic_slopes, combine_cycles_ratio, compress_path_with_exponents, enumerate_lps,
    shaped_reach, shaped_witness_exponents,
)
from ocasync.oca import (
    Configuration, Oca, POS, Transition, ZERO, level_sets, witness_path,
)
from conftest import cyclic_garbage, random_total_oca, rows_to_set

COUNTDOWN = corpus.load("countdown")
FORK = corpus.load("fork")


def all_cycle_stats(b):
    return [CycleStats(e, l) for l in range(1, b + 1) for e in range(-l, l + 1)]


class TestBasicSlopes:
    def test_b3_matches_known_list(self):
        assert basic_slopes(3) == [
            Fraction(-1), Fraction(-2, 3), Fraction(-1, 2), Fraction(-1, 3),
            Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
        ]

    def test_b1(self):
        assert basic_slopes(1) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_b2_derived_by_enumeration(self):
        expected = sorted({Fraction(x, y) for y in (1, 2) for x in range(-y, y + 1)})
        assert basic_slopes(2) == expected
        assert basic_slopes(2) == [
            Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            basic_slopes(0)


class TestCombineCyclesRatio:
    def test_mixed_slopes(self):
        got = combine_cycles_ratio(CycleStats(-1, 1), CycleStats(-1, 2), CycleStats(0, 1))
        assert got == (1, 1)

    def test_equal_slopes_short_circuit(self):
        assert combine_cycles_ratio(CycleStats(1, 1), CycleStats(1, 1), CycleStats(1, 1)) == (1, 0)

    def test_gcd_reduction(self):
        got = combine_cycles_ratio(CycleStats(-2, 2), CycleStats(0, 3), CycleStats(2, 2))
        assert got == (1, 1)

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            combine_cycles_ratio(CycleStats(1, 1), CycleStats(0, 1), CycleStats(-1, 1))

    def test_exhaustive_ratio_identity_small_b(self):
        # full sweep lives in the acceptance suite; spot-check b <= 3 here
        for b in (1, 2, 3):
            stats = all_cycle_stats(b)
            for c1, c2, c3 in itertools.product(stats, repeat=3):
                if not c1.slope <= c2.slope <= c3.slope:
                    continue
                k1, k3 = combine_cycles_ratio(c1, c2, c3)
                assert k1 >= 0 and k3 >= 0 and (k1, k3) != (0, 0)
                assert k1 <= 2 * b * b and k3 <= 2 * b * b
                assert Fraction(
                    k1 * c1.effect + k3 * c3.effect,
                    k1 * c1.length + k3 * c3.length,
                ) == c2.slope


class TestAdjustLength:
    def test_balanced_cycle_alone(self):
        assert adjust_length(CycleStats(0, 1), CycleStats(1, 1), 12) == (12, 0)

    def test_opposite_effects_cancel(self):
        k1, k2 = adjust_length(CycleStats(-1, 1), CycleStats(1, 1), 12)
        assert (k1, k2) == (6, 6)

    def test_both_negative_lengthen(self):
        # solve the 2x2 integer system and verify directly
        c1, c2 = CycleStats(-1, 1), CycleStats(-1, 2)
        k1, k2 = adjust_length(c1, c2, 12)
        assert k1 * c1.effect + k2 * c2.effect == 0
        assert k1 * c1.length + k2 * c2.length == 12
        assert (k1, k2) == (-12, 12)

    def test_shortening_via_negative_delta(self):
        c1, c2 = CycleStats(-1, 1), CycleStats(1, 1)
        k1, k2 = adjust_length(c1, c2, -12)
        assert k1 * c1.length + k2 * c2.length == -12
        assert k1 * c1.effect + k2 * c2.effect == 0

    def test_rejects_unordered_slopes(self):
        with pytest.raises(ValueError):
            adjust_length(CycleStats(1, 1), CycleStats(-1, 1), 12)

    def test_rejects_wrong_divisibility_with_bound(self):
        with pytest.raises(ValueError):
            adjust_length(CycleStats(0, 1), CycleStats(1, 1), 3, b=2)
        with pytest.raises(ValueError, match="cycle longer than the configured bound"):
            adjust_length(CycleStats(0, 3), CycleStats(1, 1), 0, b=2)
        with pytest.raises(ValueError, match="not divisible by the cycle determinant"):
            adjust_length(CycleStats(-1, 2), CycleStats(1, 2), 3)

    def test_cycle_stats_fields_checked(self):
        with pytest.raises(ValueError, match="cycle length must be positive"):
            CycleStats(0, 0)
        with pytest.raises(ValueError, match="effect cannot exceed length"):
            CycleStats(2, 1)

    def test_accepts_exact_multiple_with_bound(self):
        modulus = math.lcm(*range(1, 9))  # b=2
        k1, k2 = adjust_length(CycleStats(-1, 2), CycleStats(1, 2), modulus, b=2)
        assert k1 * 2 + k2 * 2 == modulus

    def test_exhaustive_postconditions_small_b(self):
        for b in (1, 2):
            modulus = math.lcm(*range(1, 2 * b * b + 1))
            stats = all_cycle_stats(b)
            for c1, c2 in itertools.product(stats, repeat=2):
                if not c1.slope < c2.slope:
                    continue
                for x in (modulus, -modulus, 2 * modulus):
                    k1, k2 = adjust_length(c1, c2, x, b=b)
                    assert k1 * c1.effect + k2 * c2.effect == 0
                    assert k1 * c1.length + k2 * c2.length == x
                    assert abs(k1) <= b * abs(x) and abs(k2) <= b * abs(x)


class TestEnumerateLps:
    def test_countdown_self_loop_scheme_present(self):
        schemes = list(enumerate_lps(COUNTDOWN, 0, 0, 1, 1))
        loop = next(
            i for i, t in enumerate(COUNTDOWN.transitions)
            if t.src == 0 and t.dst == 0 and t.effect == -1
        )
        assert Lps(0, (), (((loop,), ()),)) in schemes

    def test_zero_bounds_empty_scheme_only_on_diagonal(self):
        assert list(enumerate_lps(COUNTDOWN, 0, 0, 0, 0)) == [Lps(0, (), ())]
        assert list(enumerate_lps(COUNTDOWN, 0, 1, 0, 0)) == []

    def test_deterministic_order(self):
        a = list(enumerate_lps(FORK, 0, 1, 3, 1))
        b = list(enumerate_lps(FORK, 0, 1, 3, 1))
        assert a == b

    def _brute_schemes(self, oca, start, end, flat_bound, size_bound):
        # independent oracle: enumerate every chained transition word, then
        # every segmentation of it into paths and marked simple cycles
        by_src = {}
        for i, t in enumerate(oca.transitions):
            by_src.setdefault(t.src, []).append(i)

        def words(state, budget):
            yield ()
            if budget:
                for i in by_src.get(state, []):
                    for w in words(oca.transitions[i].dst, budget - 1):
                        yield (i,) + w

        def state_after(state, word):
            for i in word:
                state = oca.transitions[i].dst
            return state

        def simple_cycle(state, block):
            seen = {state}
            cur = state
            for pos, i in enumerate(block):
                if oca.transitions[i].src != cur:
                    return False
                cur = oca.transitions[i].dst
                last = pos == len(block) - 1
                if not last:
                    if cur in seen:  # no repeated state inside, start included
                        return False
                    seen.add(cur)
            return cur == state and len(block) > 0

        out = set()

        def segmentations(state, word, segs_left):
            # yields (alpha0, segments) decompositions of word
            for cut in range(len(word) + 1):
                alpha0 = word[:cut]
                rest = word[cut:]
                rest_state = state_after(state, alpha0)
                if not rest:
                    yield (alpha0, ())
                    continue
                if segs_left == 0:
                    continue
                for blk_len in range(1, len(rest) + 1):
                    block = rest[:blk_len]
                    if not simple_cycle(rest_state, block):
                        continue
                    for sub_alpha0, sub_segs in segmentations(
                        rest_state, rest[blk_len:], segs_left - 1
                    ):
                        yield (alpha0, ((block, sub_alpha0),) + sub_segs)

        for w in words(start, flat_bound):
            if state_after(start, w) != end:
                continue
            for alpha0, segs in segmentations(start, w, size_bound):
                out.add(Lps(start, alpha0, segs))
        return out

    def test_fork_matches_brute_enumeration(self):
        got = list(enumerate_lps(FORK, 0, 1, 3, 1))
        assert len(got) == len(set(got))
        assert set(got) == self._brute_schemes(FORK, 0, 1, 3, 1)

    def test_random_ocas_match_brute_enumeration(self, rng):
        for _ in range(4):
            oca = random_total_oca(rng, n_states=2)
            got = list(enumerate_lps(oca, 0, 1, 3, 2))
            assert len(got) == len(set(got))
            assert set(got) == self._brute_schemes(oca, 0, 1, 3, 2)


def reference_enumerate_lps(oca, start_state, end_state, flat_len_bound, size_bound):
    """``enumerate_lps`` with its simple cycles searched afresh at every
    recursion node, bounded by the flat length left there."""
    by_src = {}
    for i, t in enumerate(oca.transitions):
        by_src.setdefault(t.src, []).append(i)

    def cycles(state, max_len):
        def dfs(current, path, visited):
            if len(path) >= max_len:
                return
            for idx in by_src.get(current, ()):
                dst = oca.transitions[idx].dst
                if dst == state:
                    yield tuple(path + [idx])
                elif dst not in visited:
                    yield from dfs(dst, path + [idx], visited | {dst})

        yield from dfs(state, [], {state})

    def rec(state, alpha0, segments, flat_left, size_left):
        if state == end_state:
            yield Lps(start_state, tuple(alpha0),
                      tuple((beta, tuple(alpha)) for beta, alpha in segments))
        tail = alpha0 if not segments else segments[-1][1]
        if flat_left > 0:
            for idx in by_src.get(state, ()):
                tail.append(idx)
                yield from rec(oca.transitions[idx].dst, alpha0, segments,
                               flat_left - 1, size_left)
                tail.pop()
        if size_left > 0:
            for beta in cycles(state, flat_left):
                segments.append((beta, []))
                yield from rec(state, alpha0, segments, flat_left - len(beta), size_left - 1)
                segments.pop()

    yield from rec(start_state, [], [], flat_len_bound, size_bound)


class TestEnumerationOrder:
    """One cycle list per state, filtered by the flat length left, yields
    the schemes of the per-node cycle search in the same order.  Each list
    is consumed whole before it is compared, and every word and piece pair
    a scheme holds is a tuple: a stack that a later yield changes leaks
    into no earlier scheme."""

    @staticmethod
    def assert_matches_reference(oca, src, dst, flat, size):
        got = list(enumerate_lps(oca, src, dst, flat, size))
        for scheme in got:
            assert type(scheme.alpha0) is tuple
            assert type(scheme.segments) is tuple and type(scheme.built[2]) is tuple
            for segment, pair in zip(scheme.segments, scheme.built[2], strict=True):
                assert type(segment) is tuple and type(pair) is tuple
                assert all(type(word) is tuple for word in segment)
        assert got == list(reference_enumerate_lps(oca, src, dst, flat, size)), (
            oca, src, dst, flat, size)
        return sum(scheme.size == 3 for scheme in got)

    def test_corpus(self):
        # (5, 3) is the bench's path-schemes search: up to two finished
        # segments below the last star
        deepest = 0
        for name in corpus.names():
            oca = corpus.load(name)
            for src, dst in itertools.product(range(oca.n_states), repeat=2):
                for flat, size in ((4, 2), (5, 1), (5, 3)):
                    deepest += self.assert_matches_reference(oca, src, dst, flat, size)
        assert deepest >= 5000, deepest

    def test_random_automata(self, rng):
        deepest = 0
        for _ in range(120):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            src, dst = rng.randrange(oca.n_states), rng.randrange(oca.n_states)
            deepest += self.assert_matches_reference(
                oca, src, dst, rng.randint(0, 5), rng.randint(0, 3))
        assert deepest >= 1000, deepest


def countdown_loop_scheme():
    loop = next(
        i for i, t in enumerate(COUNTDOWN.transitions)
        if t.src == 0 and t.dst == 0 and t.effect == -1
    )
    return Lps(0, (), (((loop,), ()),))


class TestShapedReach:
    def test_forced_exponent(self):
        scheme = countdown_loop_scheme()
        assert shaped_reach(COUNTDOWN, scheme, Configuration(0, 5), 3, 10) == {
            Configuration(0, 2)
        }

    def test_validity_blocks_negative_counter(self):
        scheme = countdown_loop_scheme()
        assert shaped_reach(COUNTDOWN, scheme, Configuration(0, 5), 7, 10) == set()

    def test_exp_cap_limits_instantiation(self):
        scheme = countdown_loop_scheme()
        assert shaped_reach(COUNTDOWN, scheme, Configuration(0, 5), 3, 2) == set()

    def test_two_cycle_scheme_matches_filtered_brute_force(self, rng):
        # every shaped endpoint must be a real level endpoint, and every
        # endpoint of a path that literally follows the shape must be found
        for _ in range(6):
            oca = random_total_oca(rng, n_states=3)
            for scheme in itertools.islice(enumerate_lps(oca, 0, 0, 4, 2), 12):
                for length in (4, 7):
                    got = shaped_reach(oca, scheme, Configuration(0, 2), length, length)
                    trace = level_sets(oca, Configuration(0, 2), length, 10**9)
                    assert got <= rows_to_set(trace.levels[length])

    def test_witness_exponents_replay(self):
        scheme = countdown_loop_scheme()
        exps = shaped_witness_exponents(
            COUNTDOWN, scheme, Configuration(0, 5), Configuration(0, 2), 3, 10
        )
        assert exps == (3,)


def replay(oca, start, path):
    """End of a transition sequence under the guard semantics, or None."""
    cur = start
    for idx in path:
        t = oca.transitions[idx]
        if t.src != cur.state or (t.guard == "=0") != (cur.counter == 0):
            return None
        cur = Configuration(t.dst, cur.counter + t.effect)
    return cur


def exhaustive_ends(oca, scheme, start, length, exp_cap):
    """(end -> lexicographically least exponent vector reaching it, number of
    vectors reaching some end), trying every vector up to the cap."""
    least = {}
    hits = 0
    for exps in itertools.product(range(exp_cap + 1), repeat=scheme.size):
        path = list(scheme.alpha0)
        for (beta, alpha), e in zip(scheme.segments, exps):
            path += list(beta) * e + list(alpha)
        end = replay(oca, start, path)
        if len(path) == length and end is not None:
            least.setdefault(end, exps)
            hits += 1
    return least, hits


class TestShapedSearchAgainstBruteForce:
    """``shaped_reach`` and ``shaped_witness_exponents`` share one search;
    both are pinned against every exponent vector up to the cap."""

    def test_reach_and_least_witness_match_exhaustive_exponents(self, rng):
        cases = ties = 0
        for _ in range(30):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            for end_state in range(oca.n_states):
                for scheme in itertools.islice(enumerate_lps(oca, 0, end_state, 4, 2), 24):
                    for exp_cap, counter, length in itertools.product(
                        (0, 1, 3), (0, 1, 3), range(9)
                    ):
                        start = Configuration(0, counter)
                        least, hits = exhaustive_ends(oca, scheme, start, length, exp_cap)
                        assert shaped_reach(oca, scheme, start, length, exp_cap) == set(least)
                        for end, exps in least.items():
                            assert shaped_witness_exponents(
                                oca, scheme, start, end, length, exp_cap) == exps
                        missing = Configuration(end_state, counter + length + 1)
                        assert shaped_witness_exponents(
                            oca, scheme, start, missing, length, exp_cap) is None
                        cases += len(least)
                        ties += hits - len(least)
        # a tie is an end reached by more than one vector, where order matters
        assert cases > 1500 and ties > 100

    def test_start_state_off_the_scheme_reaches_nothing(self):
        scheme = countdown_loop_scheme()
        off = Configuration(1, 5)
        assert shaped_reach(COUNTDOWN, scheme, off, 3, 10) == set()
        assert shaped_reach(COUNTDOWN, scheme, off, 0, 10) == set()  # no step to check
        assert shaped_witness_exponents(
            COUNTDOWN, scheme, off, Configuration(0, 2), 3, 10) is None

    def test_negative_length_rejected_by_reach_only(self):
        scheme = countdown_loop_scheme()
        with pytest.raises(ValueError):
            shaped_reach(COUNTDOWN, scheme, Configuration(0, 5), -1, 10)
        assert shaped_witness_exponents(
            COUNTDOWN, scheme, Configuration(0, 5), Configuration(0, 5), -1, 10) is None


def random_walk(rng, oca, state, length):
    """A state-chained transition sequence of ``length`` steps from ``state``,
    guards ignored."""
    seq = []
    for _ in range(length):
        idx = rng.choice([i for i, t in enumerate(oca.transitions) if t.src == state])
        seq.append(idx)
        state = oca.transitions[idx].dst
    return tuple(seq)


class TestPiece:
    """A piece's interval [lo, hi] holds exactly the counters its sequence
    is walkable from, and ``delta`` is the walk's counter effect."""

    def test_matches_step_by_step_replay(self, rng):
        walkable = blocked = zero_tested = 0
        for _ in range(40):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            for _ in range(30):
                state = rng.randrange(oca.n_states)
                seq = random_walk(rng, oca, state, rng.randint(0, 8))
                piece = _piece(oca, state, seq)
                assert piece.length == len(seq)
                for v in range(7):
                    end = replay(oca, Configuration(state, v), seq)
                    assert (piece.lo <= v <= piece.hi) == (end is not None), (oca, seq, v)
                    if end is None:
                        blocked += 1
                        continue
                    assert end == Configuration(piece.dst, v + piece.delta)
                    walkable += 1
                    zero_tested += piece.hi == v
        assert walkable > 1000 and blocked > 1000 and zero_tested > 100

    def test_broken_chain_raises(self, rng):
        oca = random_total_oca(rng, n_states=3)
        for state in range(oca.n_states):
            walk = random_walk(rng, oca, state, 2)
            end = oca.transitions[walk[-1]].dst
            for idx, t in enumerate(oca.transitions):
                if t.src != state:
                    with pytest.raises(ValueError):
                        _piece(oca, state, (idx,))
                if t.src != end:
                    with pytest.raises(ValueError):
                        _piece(oca, state, walk + (idx,))


def walk_reference(oca, config, seq):
    """Apply a transition sequence with guard checks; None if it is invalid."""
    state, counter = config
    for idx in seq:
        t = oca.transitions[idx]
        if t.src != state:
            return None
        if counter == 0:
            if t.guard != ZERO:
                return None
        elif t.guard == ZERO:
            return None
        state, counter = t.dst, counter + t.effect
        assert counter >= 0
    return Configuration(state, counter)


def shaped_paths_reference(oca, scheme, start, target_length, exp_cap):
    """The shaped search that walked every piece step by step, after every
    exponent."""
    if scheme.start_state != start.state or len(scheme.alpha0) > target_length:
        return
    first = walk_reference(oca, start, scheme.alpha0)
    if first is None:
        return
    segments = scheme.segments
    exps = []

    def rec(j, config, remaining):
        if j == len(segments):
            if remaining == 0:
                yield config, tuple(exps)
            return
        beta, alpha = segments[j]
        last = j + 1 == len(segments)
        e = 0
        while True:
            left = remaining - e * len(beta) - len(alpha)
            if left == 0 or (left > 0 and not last):
                end = walk_reference(oca, config, alpha)
                if end is not None:
                    exps.append(e)
                    yield from rec(j + 1, end, left)
                    exps.pop()
            if e >= exp_cap or (e + 1) * len(beta) > remaining:
                return
            config = walk_reference(oca, config, beta)
            if config is None:
                return
            e += 1

    yield from rec(0, first, target_length - len(scheme.alpha0))


def first_hits(oca, scheme, start, target_length, exp_cap):
    """(end, exponents) of the first path of ``shaped_paths_reference`` to
    reach each end, in order: each end with its least exponent vector."""
    least = {}
    for end, exps in shaped_paths_reference(oca, scheme, start, target_length, exp_cap):
        least.setdefault(end, exps)
    return list(least.items())


def zero_test_oca():
    """States a, b; the cycles a-b-a and b-a-b each pass a zero test, so
    they repeat from one counter only."""
    transitions = {
        "a=0+1b": Transition(0, ZERO, 1, 1), "b>0-1a": Transition(1, POS, -1, 0),
        "a>0-1a": Transition(0, POS, -1, 0), "a>0+0b": Transition(0, POS, 0, 1),
        "b=0+0a": Transition(1, ZERO, 0, 0), "b=0+1b": Transition(1, ZERO, 1, 1),
    }
    oca = Oca(("a", "b"), frozenset({"p"}), (frozenset(), frozenset({"p"})),
              tuple(transitions.values()))
    index = {t: i for i, t in enumerate(oca.transitions)}
    return oca, {name: index[t] for name, t in transitions.items()}


def zero_tested_schemes():
    oca, t = zero_test_oca()
    up_down, down_up = (t["a=0+1b"], t["b>0-1a"]), (t["b>0-1a"], t["a=0+1b"])
    dec = (t["a>0-1a"],)
    schemes = [
        Lps(0, (), ((up_down, ()),)),
        Lps(0, dec, ((up_down, (t["a=0+1b"],)), (down_up, ()))),
        Lps(0, (), ((dec, ()), (up_down, ()), (dec + up_down, ()))),
        Lps(0, (t["a>0+0b"],), (((t["b=0+1b"],), (t["b>0-1a"],)), (dec, ()))),
        Lps(1, (t["b=0+0a"],), ((dec + (t["a>0+0b"], t["b=0+0a"]), up_down),)),
        Lps(1, (), ((down_up, (t["b>0-1a"],)), (dec, ()))),
    ]
    return oca, schemes


class TestShapedPathsPinned:
    """The frontier fold on pieces reaches the same ends, each with the same
    least exponent vector and in the same order, as the step-by-step walk."""

    @staticmethod
    def assert_same(oca, scheme, counters, lengths, caps):
        for counter, length, cap in itertools.product(counters, lengths, caps):
            start = Configuration(scheme.start_state, counter)
            got = list(_reach_table(oca, scheme, start, length, cap).items())
            assert got == first_hits(oca, scheme, start, length, cap), (
                scheme, start, length, cap)

    def test_enumerated_schemes(self, rng):
        automata = [corpus.load(name) for name in corpus.names()]
        automata += [random_total_oca(rng, n_states=rng.randint(1, 3)) for _ in range(12)]
        for oca in automata:
            for end_state in range(oca.n_states):
                for scheme in itertools.islice(enumerate_lps(oca, 0, end_state, 4, 2), 16):
                    self.assert_same(oca, scheme, range(4), range(0, 9, 2), (0, 2, 5))

    def test_hand_built_zero_tested_cycles(self):
        oca, schemes = zero_tested_schemes()
        hits = 0
        for scheme in schemes:
            self.assert_same(oca, scheme, range(5), range(10), (0, 1, 3, 9))
            hits += len(_reach_table(oca, scheme, Configuration(scheme.start_state, 0), 8, 9))
        assert hits > 0


class TestSchemeValidation:
    """An unchained scheme, an empty cycle and a cycle that does not close
    are rejected by every search and by the repetition analysis."""

    def bad_schemes(self):
        oca, t = zero_test_oca()
        dec = (t["a>0-1a"],)
        return oca, [
            Lps(0, (t["a>0+0b"],), ((dec, ()),)),         # cycle leaves a, scheme is at b
            Lps(0, (), ((dec, (t["b>0-1a"],)),)),        # tail leaves b, scheme is at a
            Lps(1, dec, ((dec, ()),)),                   # alpha0 leaves a, start is b
            Lps(0, (), (((), dec),)),                    # empty cycle
            Lps(0, (), (((t["a=0+1b"],), ()),)),         # a -> b does not close
            Lps(0, (), (((t["a=0+1b"], t["b=0+1b"]), ()),)),  # ends at b
        ]

    def test_every_entry_point_raises(self):
        oca, schemes = self.bad_schemes()
        for scheme in schemes:
            start = Configuration(scheme.start_state, 1)
            with pytest.raises(ValueError):
                shaped_reach(oca, scheme, start, 3, 3)
            with pytest.raises(ValueError):
                shaped_witness_exponents(oca, scheme, start, start, 3, 3)
            with pytest.raises(ValueError):
                analyze_cycle_repetitions(oca, scheme, [1])
            with pytest.raises(ValueError):
                scheme.cycle_stats(oca)


class TestAnalyzeRepetitions:
    def test_single_cycle(self):
        scheme = countdown_loop_scheme()
        assert analyze_cycle_repetitions(COUNTDOWN, scheme, [4]) == {Fraction(-1): 4}

    def test_two_slopes(self, rng):
        oca = random_total_oca(rng, n_states=2)
        schemes = [
            s for s in enumerate_lps(oca, 0, 0, 4, 2)
            if s.size == 2
        ]
        for scheme in schemes[:8]:
            stats = scheme.cycle_stats(oca)
            totals = analyze_cycle_repetitions(oca, scheme, [2, 3])
            expect = {}
            for st_, e in zip(stats, (2, 3)):
                expect[st_.slope] = expect.get(st_.slope, 0) + e
            assert totals == expect

    def test_exponent_arity_checked(self):
        with pytest.raises(ValueError):
            analyze_cycle_repetitions(COUNTDOWN, countdown_loop_scheme(), [1, 2])


class TestPathCompression:
    def test_compress_folds_countdown_run(self):
        trace = level_sets(COUNTDOWN, Configuration(0, 9), 12, 50)
        target = Configuration(1, 0)
        path = witness_path(COUNTDOWN, trace, target, 12)
        index = {t: i for i, t in enumerate(COUNTDOWN.transitions)}
        idx_path = tuple(index[t] for t in path)
        scheme, exps = compress_path_with_exponents(COUNTDOWN, 0, idx_path)
        assert scheme.flat_length < len(path)
        assert scheme.size >= 1
        got = shaped_reach(COUNTDOWN, scheme, Configuration(0, 9), 12, max(exps) + 1)
        assert target in got

    def test_star_power_reaches_beyond_flat_bound(self):
        # a length-9 descent is witnessed by a flat-length-1 scheme
        scheme = countdown_loop_scheme()
        assert scheme.flat_length == 1
        assert shaped_reach(COUNTDOWN, scheme, Configuration(0, 9), 9, 9) == {
            Configuration(0, 0)
        }

    def test_compressed_witness_for_random_reach_facts(self, rng):
        for _ in range(6):
            oca = random_total_oca(rng, n_states=3)
            origin = Configuration(0, 3)
            trace = level_sets(oca, origin, 10, 10**9)
            index = {t: i for i, t in enumerate(oca.transitions)}
            for target in sorted(rows_to_set(trace.levels[10]))[:4]:
                path = witness_path(oca, trace, target, 10)
                idx_path = tuple(index[t] for t in path)
                scheme, exps = compress_path_with_exponents(oca, 0, idx_path)
                cap = max(exps, default=0) + 10
                assert target in shaped_reach(oca, scheme, origin, 10, cap)


class TestLastStarClosedForm:
    """The last star's exponent is solved for, not searched: each case's
    ends and least exponent vectors are pinned by hand and against the
    step-by-step walk."""

    @staticmethod
    def paths(oca, scheme, counter, length, cap):
        start = Configuration(scheme.start_state, counter)
        got = list(_reach_table(oca, scheme, start, length, cap).items())
        assert got == first_hits(oca, scheme, start, length, cap)
        return [(end.counter, exps) for end, exps in got]

    def test_exponent_above_the_cap(self):
        oca, t = zero_test_oca()
        dec, up_down = (t["a>0-1a"],), (t["a=0+1b"], t["b>0-1a"])
        scheme = Lps(0, (), ((dec, ()), (up_down, ()), (dec, ())))
        # from 5 the middle star cannot run, so the last needs 5 - e1 >= 3
        assert self.paths(oca, scheme, 5, 5, 2) == []
        assert self.paths(oca, scheme, 5, 5, 3) == [(0, (2, 0, 3))]
        assert self.paths(oca, scheme, 5, 5, 5) == [(0, (0, 0, 5))]

    def test_exponent_not_an_integer(self):
        oca, t = zero_test_oca()
        dec, up_down = (t["a>0-1a"],), (t["a=0+1b"], t["b>0-1a"])
        scheme = Lps(0, (), ((dec, ()), (dec, ()), (up_down, ())))
        # the two-step last cycle is walkable from 0 only: from 2 it takes
        # e1 + e2 = 2 decrements, so the length must be even
        assert self.paths(oca, scheme, 2, 3, 9) == []
        assert self.paths(oca, scheme, 2, 4, 9) == [(0, (0, 2, 1))]
        assert self.paths(oca, scheme, 2, 5, 9) == []

    def test_zero_tested_last_cycle(self):
        oca, t = zero_test_oca()
        inc, flat = (t["b=0+1b"],), (t["b>0-1a"], t["a=0+1b"])
        # b=0+1b is walkable from 0 only, so it repeats once: the run's first
        # counter passes the zero test, the second does not
        scheme = Lps(1, (), ((inc, ()), (flat, ()), (inc, ())))
        assert self.paths(oca, scheme, 0, 1, 9) == [(1, (0, 0, 1))]
        assert self.paths(oca, scheme, 0, 2, 9) == []
        assert self.paths(oca, scheme, 0, 3, 9) == [(1, (1, 1, 0))]
        # the flat cycle tests b for 1 and a for 0, and repeats from 1 at will
        scheme = Lps(1, (), ((inc, ()), (inc, ()), (flat, ())))
        assert self.paths(oca, scheme, 0, 2, 9) == []
        assert self.paths(oca, scheme, 0, 9, 9) == [(1, (0, 1, 4))]
        assert self.paths(oca, scheme, 0, 9, 3) == []


def same_shape(rng, oca):
    """``oca`` with its effects redrawn, keeping each transition index's
    source, guard and destination, so every scheme of one is a scheme of
    the other.  ``Oca`` sorts its transitions, so draw until the order holds."""
    shape = [(t.src, t.guard, t.dst) for t in oca.transitions]
    while True:
        other = Oca(oca.state_names, oca.atoms, oca.labels, tuple(
            t._replace(effect=rng.choice([0, 1] if t.guard == ZERO else [-1, 0, 1]))
            for t in oca.transitions))
        if [(t.src, t.guard, t.dst) for t in other.transitions] == shape:
            return other


def hand_built(scheme):
    return Lps(scheme.start_state, scheme.alpha0, scheme.segments)


class TestCarriedPieces:
    """``enumerate_lps`` reads each scheme while building it; the pieces it
    carries are the ones ``_piece`` reads, and are used for their own
    automaton only."""

    @staticmethod
    def assert_pieces_read_by_piece(oca, scheme):
        first, segments = scheme.pieces(oca)
        assert scheme.built is not None and scheme.built[0] is oca
        assert first == _piece(oca, scheme.start_state, scheme.alpha0)
        state = first.dst
        assert len(segments) == scheme.size
        for (cycle, tail), (beta, alpha) in zip(segments, scheme.segments):
            assert cycle == _piece(oca, state, beta) and cycle.dst == state
            assert tail == _piece(oca, state, alpha)
            state = tail.dst
        assert scheme.pieces(oca) == hand_built(scheme).pieces(oca)

    def test_corpus(self):
        for name in corpus.names():
            oca = corpus.load(name)
            for src, dst in itertools.product(range(oca.n_states), repeat=2):
                for scheme in enumerate_lps(oca, src, dst, 4, 2):
                    self.assert_pieces_read_by_piece(oca, scheme)

    def test_random_automata(self, rng):
        count = 0
        for _ in range(60):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            src, dst = rng.randrange(oca.n_states), rng.randrange(oca.n_states)
            for scheme in enumerate_lps(oca, src, dst, rng.randint(0, 5), rng.randint(0, 3)):
                self.assert_pieces_read_by_piece(oca, scheme)
                count += 1
        assert count > 1000

    def test_left_out_of_equality_hash_and_repr(self):
        for scheme in enumerate_lps(FORK, 0, 1, 3, 1):
            copy = hand_built(scheme)
            assert copy.built is None
            assert scheme == copy and hash(scheme) == hash(copy)
            assert repr(scheme) == repr(copy)

    def test_another_automaton_of_the_same_shape(self, rng):
        compared = differ = 0
        for _ in range(20):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            other = same_shape(rng, oca)
            for end_state in range(oca.n_states):
                for scheme in itertools.islice(enumerate_lps(oca, 0, end_state, 4, 2), 20):
                    copy = hand_built(scheme)
                    differ += scheme.pieces(oca) != copy.pieces(other)
                    assert scheme.pieces(other) == copy.pieces(other)
                    assert scheme.cycle_stats(other) == copy.cycle_stats(other)
                    for counter, length in itertools.product((0, 2), (3, 6)):
                        start = Configuration(0, counter)
                        reach = shaped_reach(other, scheme, start, length, 4)
                        assert reach == shaped_reach(other, copy, start, length, 4)
                        for end in reach:
                            exps = shaped_witness_exponents(other, scheme, start, end, length, 4)
                            assert exps == shaped_witness_exponents(
                                other, copy, start, end, length, 4)
                            assert analyze_cycle_repetitions(other, scheme, list(exps)) == (
                                analyze_cycle_repetitions(other, copy, list(exps)))
                            compared += 1
        assert compared > 100 and differ > 50

    def test_an_equal_automaton_is_read_afresh(self):
        oca, again = corpus.load("countdown"), corpus.load("countdown")
        assert oca == again and oca is not again
        for scheme in enumerate_lps(oca, 0, 1, 4, 2):
            assert scheme.pieces(again) == scheme.pieces(oca)
            assert shaped_reach(again, scheme, Configuration(0, 3), 6, 4) == shaped_reach(
                oca, scheme, Configuration(0, 3), 6, 4)


class TestReachFrontier:
    """``enumerate_lps(..., reach=...)`` carries each scheme's shaped reach,
    read off the frontier its search node carries; it equals the first hits
    of the step-by-step walk, and what the whole fold finds on a copy of the
    scheme that carries nothing."""

    def test_tables_match_the_single_scheme_search(self):
        # 250 seeded cases, every one kept: 1-4 states, flat 1-5, size 0-3,
        # any start state (so many starts are not the scheme's), start
        # counter 0-6, target length 0-14, exponent caps 0, 1 and 2-32 in
        # turn.  114,381 schemes and 10,752 reached configurations, in about
        # 4-6 s of CPU time on Python 3.11, the walk included
        schemes = ends = unchained = zero_tested = 0
        ends_at_cap = {0: 0, 1: 0}
        start_time = time.process_time()
        for seed in range(250):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            n = oca.n_states
            src, dst = rng.randrange(n), rng.randrange(n)
            start = Configuration(rng.randrange(n), rng.randint(0, 6))
            length = rng.randint(0, 14)
            cap = (0, 1, rng.randint(2, 32))[seed % 3]
            flat, size = rng.randint(1, 5), rng.randint(0, 3)
            for scheme in enumerate_lps(oca, src, dst, flat, size, reach=(start, length, cap)):
                table = scheme.built[4]
                copy = hand_built(scheme)
                assert list(table.items()) == first_hits(oca, copy, start, length, cap), scheme
                assert set(table) == shaped_reach(oca, copy, start, length, cap), scheme
                for end, exps in table.items():
                    assert shaped_witness_exponents(oca, copy, start, end, length, cap) == exps
                # first hit first: the least vectors in ascending order
                assert list(table.values()) == sorted(table.values())
                schemes += 1
                ends += len(table)
                unchained += start.state != src
                zero_tested += bool(table) and any(
                    cycle.hi != math.inf for cycle, _ in scheme.built[2])
                if cap in ends_at_cap:
                    ends_at_cap[cap] += len(table)
        elapsed = time.process_time() - start_time
        assert schemes >= 100_000 and ends >= 10_000, (schemes, ends)
        assert unchained >= 20_000 and zero_tested >= 3_000, (unchained, zero_tested)
        assert min(ends_at_cap.values()) >= 250, ends_at_cap
        assert elapsed < 20, elapsed

    def test_the_table_answers_only_its_own_arguments(self, rng):
        # another automaton object, start, length or cap folds afresh
        compared = 0
        for _ in range(20):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            other = same_shape(rng, oca)
            start = Configuration(0, 0)
            for end_state in range(oca.n_states):
                schemes = enumerate_lps(oca, 0, end_state, 4, 2, reach=(start, 4, 4))
                for scheme in itertools.islice(schemes, 30):
                    copy = hand_built(scheme)
                    for a, s, length, cap in ((oca, start, 4, 4), (oca, start, 3, 4),
                                              (oca, start, 4, 1), (oca, Configuration(0, 3), 4, 4),
                                              (other, start, 4, 4)):
                        reach = shaped_reach(a, copy, s, length, cap)
                        assert shaped_reach(a, scheme, s, length, cap) == reach
                        for end in reach:
                            assert shaped_witness_exponents(a, scheme, s, end, length, cap) == (
                                shaped_witness_exponents(a, copy, s, end, length, cap))
                            compared += 1
        assert compared > 300, compared

    def test_plain_enumeration_carries_no_table(self):
        for scheme in enumerate_lps(FORK, 0, 1, 3, 2):
            assert scheme.built[3] is None and scheme.built[4] is None

    def test_frontier_over_the_budget(self, monkeypatch):
        # the frontier of the third star at target length 400 and exponent
        # cap 400 holds thousands of entries; the count is checked after each
        # entry of the frontier below is stepped, which adds at most 401
        reach = (Configuration(0, 3), 400, 400)
        monkeypatch.setenv("OCASYNC_BUDGET", "1000")
        with pytest.raises(BudgetExceededError) as info:
            for _ in enumerate_lps(corpus.load("random-a"), 0, 0, 5, 3, reach=reach):
                pass
        assert info.value.budget == 1000 and 1000 < info.value.required <= 1401
        # a smaller search fits
        oca = corpus.load("random-a")
        assert len(list(enumerate_lps(oca, 0, 0, 3, 2, reach=reach))) == len(
            list(enumerate_lps(oca, 0, 0, 3, 2))) == 145

    def test_next_frontier_is_stepped_after_the_transition_children(self, monkeypatch):
        # a node steps the frontier of its next star only once every
        # transition child's subtree is done, and only if some cycle fits;
        # stepping it when the node is visited raises two schemes earlier
        reach = (Configuration(0, 3), 400, 400)
        monkeypatch.setenv("OCASYNC_BUDGET", "1000")
        oca = corpus.load("random-a")
        for flat, schemes, required in ((4, 703, 1202), (5, 2406, 1200), (6, 9206, 1027)):
            yielded = 0
            with pytest.raises(BudgetExceededError) as info:
                for _ in enumerate_lps(oca, 0, 0, flat, 3, reach=reach):
                    yielded += 1
            assert (yielded, info.value.required) == (schemes, required), flat

    def test_single_scheme_fold_over_the_budget(self, monkeypatch):
        # a hand-built scheme folds its frontiers whole, holding the one it
        # steps beside the one it builds: 401 entries at the second star,
        # then 27,399 at the third, past the budget after 624
        oca = corpus.load("random-a")
        scheme = Lps(0, (), (((4,), ()), ((3, 10), ()), ((0,), ())))
        start = Configuration(0, 3)
        assert len(shaped_reach(oca, scheme, start, 400, 400)) == 136
        monkeypatch.setenv("OCASYNC_BUDGET", "1000")
        calls = (lambda: shaped_reach(oca, scheme, start, 400, 400),
                 lambda: shaped_witness_exponents(oca, scheme, start, start, 400, 400))
        for call in calls:
            with pytest.raises(BudgetExceededError) as info:
                call()
            assert info.value.budget == 1000 and info.value.required == 1025


class TestNoCyclicGarbage:
    """A search that is dropped, finished or not, is freed by reference
    counting alone."""

    def test_abandoned_enumeration(self):
        oca = corpus.load("random-a")
        schemes = enumerate_lps(oca, 0, 0, 5, 3)

        def abandon():
            nonlocal schemes
            next(itertools.islice(schemes, 500, None))
            schemes = None

        assert cyclic_garbage(abandon) == 0

    def test_abandoned_enumeration_with_reach(self):
        oca = corpus.load("random-a")
        schemes = enumerate_lps(oca, 0, 0, 5, 3, reach=(Configuration(0, 3), 16, 32))

        def abandon():
            nonlocal schemes
            next(itertools.islice(schemes, 500, None))
            schemes = None

        assert cyclic_garbage(abandon) == 0

    def test_early_exit_witness_search(self):
        scheme = Lps(0, (), (((1,), ()), ((1,), ()), ((1,), ())))
        start = Configuration(0, 9)
        # the whole table is folded and dropped; the least vector is kept
        assert cyclic_garbage(lambda: shaped_witness_exponents(
            COUNTDOWN, scheme, start, Configuration(0, 3), 6, 9)) == 0
        assert shaped_witness_exponents(
            COUNTDOWN, scheme, start, Configuration(0, 3), 6, 9) == (0, 0, 6)
