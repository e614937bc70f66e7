import functools
import itertools
import random
import re
import time

import pytest

from ocasync import corpus, mc, oracle
from ocasync.formula import (
    TRUE, Kind, atom, au, eu, ex, land, lnot, parse_formula, pretty, subformulas, ua, ue,
)
from ocasync.errors import BudgetExceededError
from ocasync.mc import (
    AGREE, CHECKER_UNKNOWN, DISAGREE, ORACLE_UNKNOWN, SyncCheck, cross_check,
)
from ocasync.oca import (
    Configuration, Oca, Transition, parse_oca_text, pre_rows, successors,
)
from ocasync.oracle import (
    BoundedEvaluator, Verdict, check_shift_periodicity,
    _match, default_audit_counters, eval_bounded, mine_period,
)
from ocasync.periodicity import TpPair, segment_start, ua_constants
from conftest import random_total_oca, rows_of, rows_to_set

COUNTDOWN = corpus.load("countdown")
FORK = corpus.load("fork")
ASYM = corpus.load("asym-fork")
INC = corpus.load("increment-loop")

FA_P = parse_formula("FA p")


def random_formula(rng, depth):
    """A random formula of nesting depth <= depth over all nine kinds."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((TRUE, atom("p"), atom("q")))
    op = rng.choice((lnot, ex, land, eu, au, ua, ue))
    if op in (lnot, ex):
        return op(random_formula(rng, depth - 1))
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


class TestEvalBounded:
    def test_countdown_synchronized_eventually(self):
        assert eval_bounded(COUNTDOWN, Configuration(0, 2), FA_P, 10, 10) is Verdict.TRUE

    def test_unlabeled_goal_false_at_any_caps(self):
        for caps in [(2, 2), (5, 5), (40, 60)]:
            assert eval_bounded(INC, Configuration(0, 0), FA_P, *caps) is Verdict.FALSE

    def test_tight_caps_give_unknown(self):
        assert eval_bounded(ASYM, Configuration(0, 1), FA_P, 2, 1) is Verdict.UNKNOWN

    def test_asymmetric_fork_separation(self):
        init = Configuration(0, 1)
        assert eval_bounded(ASYM, init, parse_formula("A true U p"), 50, 50) is Verdict.TRUE
        assert eval_bounded(ASYM, init, FA_P, 50, 50) is Verdict.FALSE

    def test_booleans_are_kleene(self):
        ev = BoundedEvaluator(FORK, 3, 4)
        unknown = ua(TRUE, atom("p"))  # the upward branch escapes the tiny cap
        cfg = Configuration(0, 3)
        assert ev.verdict(unknown, cfg) is Verdict.UNKNOWN
        assert ev.verdict(lnot(unknown), cfg) is Verdict.UNKNOWN
        assert ev.verdict(land(unknown, atom("p")), cfg) is Verdict.FALSE
        assert ev.verdict(land(unknown, TRUE), cfg) is Verdict.UNKNOWN

    def test_ex_at_cap_boundary_is_unknown(self):
        ev = BoundedEvaluator(FORK, 5, 10)
        # from (s,5) one successor jumps to counter 6 > cap where EU is unknown
        f = ex(eu(TRUE, atom("p")))
        assert ev.verdict(f, Configuration(0, 5)) in (Verdict.TRUE, Verdict.UNKNOWN)
        deeper = ex(eu(atom("q"), atom("p")))
        assert ev.verdict(deeper, Configuration(0, 5)) is not None

    def test_eu_au_definite_on_closed_systems(self):
        ev = BoundedEvaluator(COUNTDOWN, 30, 60)
        for v in range(20):
            assert ev.verdict(parse_formula("E true U p"), Configuration(0, v)) is Verdict.TRUE
            assert ev.verdict(parse_formula("A true U p"), Configuration(0, v)) is Verdict.TRUE
        assert ev.verdict(parse_formula("A p U p"), Configuration(0, 3)) is Verdict.FALSE

    def test_definite_verdicts_monotone_in_caps(self, rng):
        formulas = [
            FA_P, parse_formula("E true U p"), parse_formula("A true U q"),
            parse_formula("p UE q"), parse_formula("EX p"),
            parse_formula("true UE p"), parse_formula("!(true UE p)"),
            parse_formula("EX (p UE q)"),
        ]
        # the second pair's level cap is below its counter cap
        cap_pairs = [((12, 24), (30, 80)), ((16, 9), (30, 80))]
        for _ in range(8):
            oca = random_total_oca(rng, n_states=3)
            for small_caps, big_caps in cap_pairs:
                small = BoundedEvaluator(oca, *small_caps)
                big = BoundedEvaluator(oca, *big_caps)
                for f in formulas:
                    for v in (0, 1, 4):
                        lo = small.verdict(f, Configuration(0, v))
                        hi = big.verdict(f, Configuration(0, v))
                        if lo.definite:
                            assert lo == hi, (f, v, small_caps, lo, hi)

    def test_definite_verdicts_monotone_in_caps_fuzzed(self):
        # every subformula of a random formula, at every state and at
        # counters up to one above the small counter cap; about 5 s
        rng = random.Random(4)
        small_caps_choices = [(2, 4), (3, 6), (5, 10), (6, 3), (8, 2)]
        flips = []
        start = time.monotonic()
        for case in range(1500):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            f = random_formula(rng, 3)
            small_caps = rng.choice(small_caps_choices)
            small = BoundedEvaluator(oca, *small_caps)
            big = BoundedEvaluator(oca, 24, 48)
            for s in range(oca.n_states):
                for v in range(small_caps[0] + 2):
                    c = Configuration(s, v)
                    for g in subformulas(f):
                        lo = small.verdict(g, c)
                        if lo.definite and big.verdict(g, c) is not lo:
                            flips.append((case, pretty(g), c, small_caps, lo))
        assert not flips, (len(flips), flips[:3])
        assert time.monotonic() - start < 60

    def test_ua_prefix_with_false_first_operand_is_not_certified(self):
        # EX p is FALSE at s0,0 (its one successor is s1,0), so only bound 0
        # can hold, and the goal there is UNKNOWN at small caps; the scan
        # used to certify a later bound anyway and answer TRUE, which
        # flipped to FALSE once the caps grew
        oca = parse_oca_text(
            "states: s0 s1 s2\n"
            "atoms: p q\n"
            "label s0 = {p}\n"
            "label s1 = {q}\n"
            "s0 -[=0,0]-> s1\n"
            "s0 -[>0,0]-> s2\n"
            "s1 -[=0,+1]-> s0\n"
            "s1 -[=0,+1]-> s1\n"
            "s1 -[>0,-1]-> s2\n"
            "s1 -[>0,0]-> s0\n"
            "s2 -[=0,0]-> s2\n"
            "s2 -[>0,-1]-> s0\n"
            "s2 -[>0,-1]-> s1\n"
            "s2 -[>0,0]-> s1\n"
        )
        f = parse_formula("EX p UA ((q UE q) & (A p U q))")
        init = Configuration(0, 0)
        for caps, want in (((6, 3), Verdict.UNKNOWN), ((10, 3), Verdict.UNKNOWN),
                           ((20, 40), Verdict.FALSE), ((60, 200), Verdict.FALSE)):
            assert eval_bounded(oca, init, f, *caps) is want, caps

    def test_ue_witness_semantics_on_unfolded_trees(self):
        # definitional evaluation agrees with the level-set reading used by
        # the finite-structure algorithm
        ev = BoundedEvaluator(ASYM, 20, 60)
        f = parse_formula("true UE p")
        assert ev.verdict(f, Configuration(0, 1)) is Verdict.TRUE


def _has(rows, c):
    """True iff configuration c is in the row tuple."""
    return bool((rows[c.state] >> c.counter) & 1)


def _successors(oca):
    """``oca.successors`` as a frozenset, memoised per configuration."""
    return functools.cache(lambda c: frozenset(successors(oca, c)))


def _in_region_levels(succ, c, counter_cap, level_cap):
    """Yield levels 0..level_cap from c, each cut to counters <= counter_cap,
    taking successors of the cut level only."""
    level = {c} if c.counter <= counter_cap else set()
    yield level
    for _ in range(level_cap):
        level = {e for d in level for e in succ(d) if e.counter <= counter_cap}
        yield level


def reference_scan_ue(ev, f, c, succ):
    """The bounded UE scan by its definition: for each level k, rebuild the
    chain of level-j configurations with a successor in the chain at level
    j + 1, backwards from the goal configurations of level k, and require a
    first-operand configuration in every link."""
    sat1, sat2 = f.children
    seen, first, goal = set(), set(), set()
    levels = []
    for k, level in enumerate(_in_region_levels(succ, c, ev.counter_cap, ev.level_cap)):
        levels.append(level)
        for d in level - seen:
            seen.add(d)
            if ev.verdict(sat1, d) is Verdict.TRUE:
                first.add(d)
            if ev.verdict(sat2, d) is Verdict.TRUE:
                goal.add(d)
        back = level & goal
        if not back:
            continue
        for j in range(k - 1, -1, -1):
            back = {d for d in levels[j] if succ(d) & back}
            if not back & first:
                break
        else:
            return Verdict.TRUE
    return Verdict.UNKNOWN


def reference_exact_ue(ev, f, c, succ):
    """The UE verdict on c's cap-closed component by its definition: exact
    distance layers from naive predecessors cut to the component, the
    per-level witness test at every bound, and FALSE once the bounds reach
    2 * base + period - 1 after the (level, distance layer) pair first
    repeats.  Needs c in the region, not escaping, with both operands
    definite on the component; None if they are not."""
    component, stack = {c}, [c]
    while stack:
        for d in succ(stack.pop()):
            if d not in component:
                component.add(d)
                stack.append(d)
    if any(not ev.verdict(g, d).definite for g in f.children for d in component):
        return None
    sat1 = {d for d in component if ev.verdict(f.children[0], d) is Verdict.TRUE}
    goal = {d for d in component if ev.verdict(f.children[1], d) is Verdict.TRUE}
    preds = {d: {e for e in component if d in succ(e)} for d in component}
    levels, dist, seen, scan_until = [], [frozenset(goal)], {}, None
    for k, level in enumerate(_in_region_levels(succ, c, ev.counter_cap, ev.level_cap)):
        levels.append(frozenset(level))
        if k:
            dist.append(frozenset(e for d in dist[k - 1] for e in preds[d]))
        if scan_until is None:
            key = (levels[k], dist[k])
            if key in seen:
                base, period = seen[key], k - seen[key]
                scan_until = 2 * base + period - 1
            else:
                seen[key] = k
        if level & goal and all(levels[j] & sat1 & dist[k - j] for j in range(k)):
            return Verdict.TRUE
        if scan_until is not None and k >= scan_until:
            return Verdict.FALSE
    return Verdict.UNKNOWN


def reference_ua_answers(ev, f, c, succ):
    """The bounded UA verdict by its definition at each level cap
    0..ev.level_cap, from one walk with no early exit.  Bound k passes if
    level k is untruncated, non-empty and all second-operand, after
    all-first-operand levels 0..k-1; it fails if level k meets the second
    operand's FALSE set or an earlier level meets the first's.  At level
    cap L: TRUE if some bound k <= L passes.  Otherwise FALSE if, for some
    k <= L, bounds 0..k all fail and level k meets the first operand's
    FALSE set (every later bound inherits it) or is untruncated and equal
    to an earlier level (exact levels evolve deterministically).
    Otherwise UNKNOWN."""
    sat1, sat2 = f.children
    cap = ev.counter_cap
    true, false = {Verdict.TRUE}, Verdict.FALSE
    level = {c} if c.counter <= cap else set()
    truncated = c.counter > cap
    seen = set()
    passed = refuted = broken = False
    certified = failed = True  # levels so far all sat1; bounds so far all fail
    for k in range(ev.level_cap + 1):
        if k:
            step = {e for d in level for e in succ(d)}
            level = {e for e in step if e.counter <= cap}
            truncated = truncated or level != step
        frozen = frozenset(level)
        one = {ev.verdict(sat1, d) for d in frozen}
        two = {ev.verdict(sat2, d) for d in frozen}
        passed = passed or certified and not truncated and two == true
        failed = failed and (false in two or broken)
        repeat = not truncated and frozen in seen
        refuted = refuted or failed and (false in one or repeat)
        seen.add(frozen)
        certified = certified and one <= true
        broken = broken or false in one
        yield Verdict.TRUE if passed else Verdict.FALSE if refuted else Verdict.UNKNOWN


class ReferenceEvaluator(BoundedEvaluator):
    """An evaluator whose UE scan is ``reference_scan_ue`` and whose UA scan
    reads ``reference_ua_answers``, each memoised per (formula,
    configuration).  The UA answers cover every level cap up to the one
    they were walked at, so evaluators that differ only in their level cap
    may share ``ua_answers`` when no UA operand has a synchronized operator
    (its verdicts then do not depend on the level cap)."""

    def __init__(self, oca, counter_cap, level_cap, succ, ua_answers=None):
        super().__init__(oca, counter_cap, level_cap)
        self.naive_succ = succ
        self.scans = {}
        self.ua_answers = {} if ua_answers is None else ua_answers

    def _scan_ue(self, f, c):
        if (f, c) not in self.scans:
            self.scans[f, c] = reference_scan_ue(self, f, c, self.naive_succ)
        return self.scans[f, c]

    def _scan_ua(self, f, c):
        answers = self.ua_answers.get((f, c), ())
        if len(answers) <= self.level_cap:
            answers = self.ua_answers[f, c] = list(
                reference_ua_answers(self, f, c, self.naive_succ))
        return answers[self.level_cap]


UE_SUITE = [parse_formula(t) for t in (
    "p UE q", "true UE p", "(EX p) UE q", "q UE (E true U p)",
)]
UA_SUITE = [parse_formula(t) for t in (
    "FA p", "p UA q", "(EX p) UA q", "!q UA p", "(E true U p) UA q",
)]


class TestSynchronizedScan:
    """The linear UE scan, the UA scan and the region index the UE scan
    shares with the plain-until tables, pinned against their definitions
    over ``oca.successors``."""

    @staticmethod
    def _automata():
        rng = random.Random(20240905)
        return [random_total_oca(rng, n_states=n) for n in (1, 2, 3, 3)] + [COUNTDOWN]

    def test_scan_matches_quadratic_reference(self):
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap in range(13):
                counters = {0, counter_cap // 2 + 1, counter_cap, counter_cap + 2}
                inits = [Configuration(s, v) for s in range(oca.n_states) for v in counters]
                for level_cap in range(31):
                    ev = BoundedEvaluator(oca, counter_cap, level_cap)
                    ref = ReferenceEvaluator(oca, counter_cap, level_cap, succ)
                    for f in UE_SUITE:
                        for c in inits:
                            assert ev._scan_ue(f, c) is ref._scan_ue(f, c), (
                                f, c, counter_cap, level_cap)
                            assert ev.verdict(f, c) is ref.verdict(f, c), (
                                f, c, counter_cap, level_cap)

    def test_ua_scan_matches_the_walk_to_the_level_cap(self):
        # no operand has a synchronized operator, so one walk per origin, at
        # the largest level cap first, answers every smaller level cap
        assert not any(g.kind in (Kind.UA, Kind.UE)
                       for f in UA_SUITE for h in f.children for g in subformulas(h))
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap in range(13):
                counters = {0, counter_cap // 2 + 1, counter_cap, counter_cap + 2}
                inits = [Configuration(s, v) for s in range(oca.n_states) for v in counters]
                answers = {}
                for level_cap in range(30, -1, -1):
                    ev = BoundedEvaluator(oca, counter_cap, level_cap)
                    ref = ReferenceEvaluator(oca, counter_cap, level_cap, succ, answers)
                    for f in UA_SUITE:
                        for c in inits:
                            assert ev._scan_ua(f, c) is ref._scan_ua(f, c), (
                                f, c, counter_cap, level_cap)
                            assert ev.verdict(f, c) is ref.verdict(f, c), (
                                f, c, counter_cap, level_cap)

    def test_ua_scan_matches_the_walk_on_random_b(self):
        oca = corpus.load("random-b")
        succ = _successors(oca)
        ev = BoundedEvaluator(oca, 60, 200)
        ref = ReferenceEvaluator(oca, 60, 200, succ)
        for f in UA_SUITE:
            for s in range(oca.n_states):
                for v in (0, 31, 60, 62):
                    c = Configuration(s, v)
                    assert ev._scan_ua(f, c) is ref._scan_ua(f, c), (f, c)
                    assert ev.verdict(f, c) is ref.verdict(f, c), (f, c)

    def test_fa_scan_reads_no_level_past_its_first_truncated_one(self):
        # FA p is true UA p: the first operand is never FALSE, so no later
        # level can refute it, and a truncated level cannot certify it
        ended_truncated = 0
        for oca in self._automata() + [corpus.load("random-b")]:
            ev = BoundedEvaluator(oca, 12, 200)
            read = []

            def recording(c, ev=ev, read=read):
                for level, truncated in BoundedEvaluator._levels(ev, c):
                    read.append(truncated)
                    yield level, truncated

            ev._levels = recording
            for s in range(oca.n_states):
                for v in (0, 6, 12, 14):
                    read.clear()
                    ev._scan_ua(FA_P, Configuration(s, v))
                    assert True not in read[:-1], (oca, s, v, len(read))
                    ended_truncated += read[-1]
        assert ended_truncated

    def test_scan_matches_reference_around_countdown_transient(self):
        # at counter cap 60 the countdown's distance layers only repeat after
        # 61 steps, so these level caps fall before, at and after the cycle
        f = parse_formula("true UE p")
        succ = _successors(COUNTDOWN)
        for level_cap in (0, 1, 30, 59, 60, 61, 62, 63, 64, 125, 200):
            ev = BoundedEvaluator(COUNTDOWN, 60, level_cap)
            ref = ReferenceEvaluator(COUNTDOWN, 60, level_cap, succ)
            for v in (0, 1, 30, 58, 59, 60, 61):
                for s in range(COUNTDOWN.n_states):
                    c = Configuration(s, v)
                    assert ev._scan_ue(f, c) is ref._scan_ue(f, c), (c, level_cap)
                    assert ev.verdict(f, c) is ref.verdict(f, c), (c, level_cap)

    def test_scan_reads_bounds_past_the_index_through_the_cycle(self):
        # the index stores offsets below len(layers) only, and the scan
        # reads a bound that enters its window later through the cycle.
        # Here the layers repeat after 5 (start 4), and the least witness
        # of p UE q from s1,8 is at bound 5, one past the stored offsets:
        # TRUE from level cap 5 on, and UNKNOWN if the wrap is dropped
        rng = random.Random(9)
        oca = random_total_oca(rng, n_states=rng.randint(2, 6))
        f, c = parse_formula("p UE q"), Configuration(1, 8)
        for level_cap in range(12):
            ev = BoundedEvaluator(oca, 8, level_cap)
            dist = ev._distances(f)
            assert (len(dist.layers), dist.start) == ((5, 4) if level_cap >= 5
                                                      else (level_cap + 1, 0))
            want = Verdict.TRUE if level_cap >= 5 else Verdict.UNKNOWN
            assert ev._scan_ue(f, c) is ev.verdict(f, c) is want, level_cap
        # seeded automata, level caps on both sides of the index length;
        # seeds 9, 34, 106 and 110 have witnesses only the wrap reaches
        for seed in range(111):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(2, 6))
            counter_cap = rng.randint(0, 8)
            succ = _successors(oca)
            inits = [Configuration(s, v) for s in range(oca.n_states)
                     for v in range(counter_cap + 1)]
            for f in UE_SUITE:
                n = len(BoundedEvaluator(oca, counter_cap, 60)._distances(f).layers)
                for level_cap in sorted({max(0, n - 2), max(0, n - 1), n, n + 1, 2 * n + 3}):
                    ev = BoundedEvaluator(oca, counter_cap, level_cap)
                    ref = ReferenceEvaluator(oca, counter_cap, level_cap, succ)
                    for c in inits:
                        assert ev._scan_ue(f, c) is ref._scan_ue(f, c), (
                            seed, f, c, level_cap)
                        assert ev.verdict(f, c) is ref.verdict(f, c), (
                            seed, f, c, level_cap)

    def test_distance_masks_match_exact_path_lengths(self):
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap, level_cap in ((0, 5), (3, 2), (7, 30), (12, 12), (12, 40)):
                ev = BoundedEvaluator(oca, counter_cap, level_cap)
                for f in UE_SUITE:
                    dist = ev._distances(f)
                    for s in range(oca.n_states):
                        for v in range(counter_cap + 1):
                            c = Configuration(s, v)
                            levels = _in_region_levels(succ, c, counter_cap, level_cap)
                            want = sum(
                                1 << m for m, level in enumerate(levels)
                                if any(ev.verdict(f.children[1], d) is Verdict.TRUE
                                       for d in level)
                            )
                            # each distance is stored once, in its layer:
                            # offsets past the stored layers read through the
                            # cycle
                            assert _has(dist.support, c) == bool(want)
                            for m in range(level_cap + 1):
                                assert _has(dist.layer(m), c) == bool(want >> m & 1), (
                                    f, c, counter_cap, level_cap, m)

    def test_region_index_matches_successors(self):
        # the in-region pre-image, the boundary and the escaping rows
        rng = random.Random(7)
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap in (0, 1, 5, 12):
                ev = BoundedEvaluator(oca, counter_cap, 10)
                region = [Configuration(s, v) for s in range(oca.n_states)
                          for v in range(counter_cap + 1)]
                for d in region:
                    pre = pre_rows(oca, rows_of([d], oca.n_states), ev._full)
                    assert rows_to_set(pre) == {
                        c for c in region if d in successors(oca, c)}
                for _ in range(20):
                    target = {c for c in region if rng.random() < 0.3}
                    pre = pre_rows(oca, rows_of(target, oca.n_states), ev._full)
                    assert rows_to_set(pre) == {
                        c for c in region if successors(oca, c) & target}
                assert rows_to_set(ev._boundary) == {
                    c for c in region
                    if any(d.counter > counter_cap for d in successors(oca, c))
                }
                leaves = set()
                for c in region:
                    levels = _in_region_levels(succ, c, counter_cap, len(region))
                    if any(e.counter > counter_cap
                           for level in levels for d in level for e in succ(d)):
                        leaves.add(c)
                assert rows_to_set(ev.escaping) == leaves

    def test_boundary_matches_step_slots(self):
        # the boundary read straight off ``row_steps``: a ``>0`` increment at
        # the cap, or a ``=0`` increment when the cap is 0
        for oca in self._automata():
            for counter_cap in (0, 1, 2, 7):
                ev = BoundedEvaluator(oca, counter_cap, 3)
                assert ev._boundary == tuple(
                    (1 << counter_cap) if (inc if counter_cap else zero_inc) else 0
                    for _, zero_inc, _, _, inc in oca.row_steps
                ), (oca, counter_cap)

    def test_false_rule_matches_exact_reference(self):
        # every cap-closed configuration with definite operands; states that
        # cannot reach a goal state are left to the may-states rule.  From
        # a,1 the levels a, b, c, c, ... repeat only after a transient of
        # two steps, and no goal is reachable inside the component, so the
        # repeat bound decides the verdict at each level cap
        chain = parse_oca_text(
            "states: a b c g\n"
            "atoms: p q\n"
            "label g = {q}\n"
            "a -[=0,0]-> a\n"
            "a -[>0,0]-> b\n"
            "b -[=0,0]-> b\n"
            "b -[>0,0]-> c\n"
            "c -[=0,0]-> g\n"
            "c -[>0,0]-> c\n"
            "g -[=0,0]-> g\n"
            "g -[>0,0]-> g\n"
        )
        start = time.monotonic()
        decided = set()
        for oca in self._automata() + [chain]:
            succ = _successors(oca)
            for counter_cap in range(13):
                for level_cap in range(25):
                    ev = BoundedEvaluator(oca, counter_cap, level_cap)
                    for f in UE_SUITE:
                        may, _ = ev.may_must_states(f)
                        for s in may:
                            for v in range(counter_cap + 1):
                                c = Configuration(s, v)
                                if _has(ev.escaping, c):
                                    continue
                                want = reference_exact_ue(ev, f, c, succ)
                                if want is None:
                                    continue
                                assert ev.verdict(f, c) is want, (
                                    f, c, counter_cap, level_cap)
                                decided.add(want)
        assert decided == set(Verdict)
        assert time.monotonic() - start < 10

    def test_exact_ue_repeats_on_the_component_distances(self):
        # from u the counter never moves and the component is {u, g}; with
        # goal g the distance layers restricted to it alternate {g}, {u}, so
        # the (level, distance) pair repeats at step 2 and level cap 2
        # settles FALSE.  Over the whole region the layers also pull in f
        # and h and repeat only at step 4, which would need level cap 5.
        f = parse_formula("p UE p")
        u = ASYM.state_index("u")
        for level_cap in (2, 3, 4):
            ev = BoundedEvaluator(ASYM, 3, level_cap)
            for v in range(4):
                c = Configuration(u, v)
                assert not _has(ev.escaping, c)
                assert ev.verdict(f, c) is Verdict.FALSE, (v, level_cap)
        assert eval_bounded(ASYM, Configuration(u, 0), f, 3, 1) is Verdict.UNKNOWN

    def test_repeat_rule_needs_definite_operands(self):
        # from c (self-loop, edge to d) the levels fill the component by step
        # 6 and repeat at step 7, so a goal-free repeat fits under level cap
        # 12.  The goal (FA p) & q can only hold at d, whose levels {x_k, y_k}
        # run round rings of 3 and 5 states and are all-p first at step 15:
        # UNKNOWN below level cap 15.  Read off the TRUE set alone, the
        # repeat would answer FALSE at level caps 12-14, but c reaches d in
        # one step, so the formula is TRUE.
        lines = [
            "states: c d x0 x1 x2 y0 y1 y2 y3 y4", "atoms: p q",
            "label d = {q}", "label x0 = {p}", "label y0 = {p}",
            "c -[=0,0]-> c", "c -[=0,0]-> d", "d -[=0,0]-> x1", "d -[=0,0]-> y1",
        ]
        lines += [f"x{i} -[=0,0]-> x{(i + 1) % 3}" for i in range(3)]
        lines += [f"y{i} -[=0,0]-> y{(i + 1) % 5}" for i in range(5)]
        lines += [f"{s} -[>0,0]-> {s}" for s in ("c", "d", "x0", "x1", "x2",
                                                  "y0", "y1", "y2", "y3", "y4")]
        oca = parse_oca_text("\n".join(lines) + "\n")
        f = parse_formula("true UE ((FA p) & q)")
        c, d = Configuration(0, 0), Configuration(1, 0)
        for level_cap in (12, 13, 14):
            ev = BoundedEvaluator(oca, 0, level_cap)
            assert not _has(ev.escaping, c)
            assert ev.verdict(f.children[1], d) is Verdict.UNKNOWN
            assert ev.verdict(f, c) is Verdict.UNKNOWN, level_cap
        for caps in ((0, 15), (60, 200)):
            assert eval_bounded(oca, c, f, *caps) is Verdict.TRUE, caps


def all_search_pair(row):
    """The least (t, p) with t + 2p <= v_cap, no UNKNOWN at or above t and
    row[v] == row[t + (v - t) % p] for every v >= t, tested sample by
    sample: the reference for ``mine_period``'s slice search."""
    v_cap = len(row) - 1
    first = max((v + 1 for v, r in enumerate(row) if not r.definite), default=0)
    for t in range(first, v_cap - 1):
        for p in range(1, (v_cap - t) // 2 + 1):
            if all(row[v] == row[t + (v - t) % p] for v in range(t, v_cap + 1)):
                return TpPair(t, p)
    return None


class RowEvaluator:
    """Answers every verdict from one fixed row, indexed by the counter, and
    records the counters it was asked for."""

    def __init__(self, row):
        self.row = row
        self.asked = []

    def verdict(self, f, c):
        self.asked.append(c.counter)
        return self.row[c.counter]


def naive_ex(ev, f, c):
    """EX by its definition over ``oca.successors``: TRUE if some successor
    satisfies the child, else UNKNOWN if some successor's verdict is, else
    FALSE.  A child that is itself an EX is taken the same way."""
    g = f.children[0]
    answers = {naive_ex(ev, g, d) if g.kind is Kind.EX else ev.verdict(g, d)
               for d in successors(ev.oca, c)}
    return (Verdict.TRUE if Verdict.TRUE in answers
            else Verdict.UNKNOWN if Verdict.UNKNOWN in answers else Verdict.FALSE)


class TestExSplit:
    """EX's region table, built from its child's rows, and the verdicts read
    off it, pinned against ``naive_ex``."""

    CHILDREN = [parse_formula(t) for t in (
        "p", "q", "!p", "p & !q", "!(p & !q)", "E p U q", "A p U q", "A q U (p & q)",
        "EX q", "EX (E q U p)", "EX EX !p", "FA p", "p UE q",
    )]

    def test_split_matches_successors_at_every_region_configuration(self):
        # 60 seeded automata of 1-6 states at counter caps 0-40, the caps
        # 0 and 40 included; the configurations at the cap, whose
        # successors may lie above it, are part of every region
        rng = random.Random(36)
        boundary = 0
        for i in range(60):
            oca = random_total_oca(rng, n_states=1 + i % 6)
            counter_cap = (0, 40)[i] if i < 2 else rng.randint(0, 40)
            level_cap = 2 * counter_cap + 8
            ev = BoundedEvaluator(oca, counter_cap, level_cap)
            ref = BoundedEvaluator(oca, counter_cap, level_cap)
            boundary += sum(map(bool, ev._boundary))
            for g in self.CHILDREN:
                f = ex(g)
                true, false = ev._split(f)
                for s in range(oca.n_states):
                    for v in range(counter_cap + 2):
                        c = Configuration(s, v)
                        want = naive_ex(ref, f, c)
                        assert ev.verdict(f, c) is want, (i, pretty(f), c)
                        if v <= counter_cap:
                            got = (Verdict.TRUE if _has(true, c)
                                   else Verdict.FALSE if _has(false, c) else Verdict.UNKNOWN)
                            assert got is want, (i, pretty(f), c)
        assert boundary >= 20, boundary


def au_split_reference(ev, f):
    """A-until's region table as a universal attractor plus a lasso: ``sure``
    grows by configurations TRUE for the first operand, with no successor
    above the cap and every successor in ``sure`` already; ``refuted``
    closes the greatest all-not-goal cycle set, plus the configurations FALSE
    for both operands, under predecessors FALSE for the goal."""
    true1, false1 = ev._split(f.children[0])
    true2, false2 = ev._split(f.children[1])
    full = ev._full
    ok = tuple(t1 & ~e for t1, e in zip(true1, ev._boundary))
    sure = true2
    while True:
        blocked = pre_rows(ev.oca, tuple(full ^ r for r in sure), full)
        new = tuple(o & ~b & ~r for o, b, r in zip(ok, blocked, sure))
        if not any(new):
            break
        sure = tuple(map(int.__or__, sure, new))
    lasso = false2
    while True:
        kept = tuple(map(int.__and__, lasso, pre_rows(ev.oca, lasso, full)))
        if kept == lasso:
            break
        lasso = kept
    refuted = ev._lfp(
        tuple(lr | (f1 & f2) for lr, f1, f2 in zip(lasso, false1, false2)), false2
    )
    may_f, _ = ev.may_must_states(f)
    outside = ev._states_outside(may_f)
    return sure, tuple((r | o) & ~t for r, o, t in zip(refuted, outside, sure))


def eu_split_reference(ev, f):
    """E-until's region table with its state-level FALSE rule applied in
    place: ``sure`` closes the goal's TRUE rows under predecessors TRUE for
    the first operand; ``maybe`` closes the goal's not-FALSE rows, and the
    boundary rows not FALSE for the first operand, under predecessors not
    FALSE for it; FALSE is the rest of the region, and every row of a state
    outside the may-states, minus ``sure``."""
    true1, false1 = ev._split(f.children[0])
    true2, false2 = ev._split(f.children[1])
    may_f, _ = ev.may_must_states(f)
    full = ev._full
    sure = ev._lfp(true2, true1)
    maybe = ev._lfp(
        tuple((full ^ f2) | (e & ~f1) for f2, e, f1 in zip(false2, ev._boundary, false1)),
        tuple(full ^ f1 for f1 in false1),
    )
    outside = ev._states_outside(may_f)
    return sure, tuple(full & ~r & ~(m & ~o) for r, m, o in zip(sure, maybe, outside))


def until_evaluators():
    """(automaton index, counter cap, evaluator): the corpus and 120 seeded
    automata of 1-5 states, each at counter caps 0, 1, 3 and one drawn from
    20-40, with level caps drawn from 0-60."""
    rng = random.Random(39)
    automata = [corpus.load(name) for name in corpus.names()]
    automata += [random_total_oca(rng, n_states=1 + i % 5) for i in range(120)]
    for i, oca in enumerate(automata):
        for counter_cap in (0, 1, 3, rng.randint(20, 40)):
            yield i, counter_cap, BoundedEvaluator(oca, counter_cap, rng.randint(0, 60))


class TestAuSplit:
    """A-until's region table, built as the complement of an existential
    weak until, pinned against the universal attractor it replaces."""

    FORMULAS = [parse_formula(t) for t in (
        "A true U p", "A p U q", "A (EX p) U q", "!(A true U !p)",
        "A (E p U q) U (EX q)", "A q U (A p U q)", "A (EX (EX p)) U (p & q)",
        "A (FA p) U q", "A p U (true UE q)",
    )]

    def test_split_matches_the_attractor_at_every_region_configuration(self):
        # equal rows are equal verdicts at every region configuration
        tables = boundary = sure = refuted = 0
        for i, counter_cap, ev in until_evaluators():
            boundary += any(ev._boundary)
            for f in self.FORMULAS:
                for g in subformulas(f):
                    if g.kind is Kind.AU:
                        got = ev._split(g)
                        assert got == au_split_reference(ev, g), (i, counter_cap, pretty(g))
                        tables += 1
                        sure += any(got[0])
                        refuted += any(got[1])
        assert tables == 5040 and boundary > 400, (tables, boundary)
        assert sure > 3000 and refuted > 3000, (sure, refuted)


class TestEuSplit:
    """E-until's region table, its FALSE rows from ``_split``'s one
    state-level rule, pinned against the table built with the rule in
    place."""

    FORMULAS = [parse_formula(t) for t in (
        "E true U p", "E p U q", "E (EX p) U q", "!(E true U !p)",
        "E (A p U q) U (EX q)", "E q U (E p U q)", "E (EX (EX p)) U (p & q)",
        "E (FA p) U q", "E p U (true UE q)",
    )]

    def test_split_matches_the_reference_at_every_region_configuration(self):
        # equal rows are equal verdicts at every region configuration;
        # ``ruled`` counts tables whose FALSE rows the state-level rule grew
        tables = sure = false = ruled = 0
        for i, counter_cap, ev in until_evaluators():
            for f in self.FORMULAS:
                for g in subformulas(f):
                    if g.kind is Kind.EU:
                        got = ev._split(g)
                        assert got == eu_split_reference(ev, g), (i, counter_cap, pretty(g))
                        tables += 1
                        sure += any(got[0])
                        false += any(got[1])
                        ruled += got[1] != ev._eu_split(g)[1]
        assert tables == 5040 and ruled > 400, (tables, ruled)
        assert sure > 3000 and false > 3000, (sure, false)


class TestMinePeriod:
    def test_constant_formula(self):
        pair, row = mine_period(COUNTDOWN, TRUE, 0, 20, (60, 200))
        assert pair == TpPair(0, 1)
        assert all(v is Verdict.TRUE for v in row)

    def test_next_goal_on_countdown(self):
        # EX p holds only where a one-step successor carries p: exactly v = 0
        pair, row = mine_period(COUNTDOWN, parse_formula("EX p"), 0, 20, (60, 200))
        assert [v is Verdict.TRUE for v in row[:4]] == [True, False, False, False]
        assert pair == TpPair(1, 1)

    def test_atoms_ignore_counters(self):
        for state in range(FORK.n_states):
            pair, _ = mine_period(FORK, atom("p"), state, 20, (60, 200))
            assert pair == TpPair(0, 1)

    def test_unminable_returns_table_anyway(self):
        pair, row = mine_period(FORK, FA_P, 0, 20, (25, 40))
        assert pair is None or pair.t >= 0
        assert len(row) == 21

    def test_mined_pair_is_consistent_with_more_samples(self, rng):
        for _ in range(6):
            oca = random_total_oca(rng, n_states=3)
            ev = BoundedEvaluator(oca, 80, 160)
            for f in (parse_formula("E p U q"), parse_formula("EX p")):
                pair, row = mine_period(oca, f, 0, 25, (80, 160), evaluator=ev)
                if pair is None:
                    continue
                t, p = pair
                for k in (0, 1, 2):
                    a = ev.verdict(f, Configuration(0, t + k * p))
                    b = ev.verdict(f, Configuration(0, t + k * p + p))
                    assert a == b

    def test_recursion_from_mined_child_pairs_stays_periodic(self, rng):
        # the threshold/period recursion applied to mined child pairs must
        # remain verdict-periodic on the sampled range
        from ocasync.periodicity import ctl_constants

        oca = corpus.load("random-a")
        ev = BoundedEvaluator(oca, 140, 240)
        f = parse_formula("E p U q")
        child_pairs = []
        for child in f.children:
            per_state = [
                mine_period(oca, child, s, 30, (140, 240), evaluator=ev)[0]
                for s in range(oca.n_states)
            ]
            assert all(p is not None for p in per_state)
            import math
            child_pairs.append(TpPair(
                max(p.t for p in per_state),
                math.lcm(*[p.p for p in per_state]),
            ))
        t, p = ctl_constants(Kind.EU, child_pairs, oca.n_states)
        for s in range(oca.n_states):
            row = [ev.verdict(f, Configuration(s, v)) for v in range(61)]
            for v in range(t, 61 - p):
                if row[v].definite and row[v + p].definite:
                    assert row[v] == row[v + p]

    def test_v_cap_too_small_rejected(self):
        with pytest.raises(ValueError):
            mine_period(COUNTDOWN, TRUE, 0, 1, (10, 10))

    def test_pair_only_rows_give_the_full_row_pair(self):
        # every subformula and state of the differential-fuzz recipe, mined
        # at the checker's v_cap (half the counter cap); the full row reuses
        # the pair-only row's evaluator, so it costs only the samples below
        # the stop.  About 4 s of CPU time on Python 3.11
        stopped = 0
        for caps in ((40, 120), (20, 60)):
            v_cap = caps[0] // 2
            for seed in range(1000):
                rng = random.Random(seed)
                oca = random_total_oca(rng, n_states=rng.randint(1, 4))
                f = random_formula(rng, 3)
                ev = BoundedEvaluator(oca, *caps)
                for g in subformulas(f):
                    for s in range(oca.n_states):
                        pair, row = mine_period(oca, g, s, v_cap, caps, ev, full_row=False)
                        full_pair, full = mine_period(oca, g, s, v_cap, caps, ev)
                        assert pair == full_pair, (seed, pretty(g), s, caps)
                        read = [v for v, r in enumerate(row) if r is not None]
                        assert read == list(range(read[0], v_cap + 1))
                        assert all(row[v] is full[v] for v in read)
                        # the stop is the highest UNKNOWN, or there is none
                        assert Verdict.UNKNOWN not in row[read[0] + 1:]
                        assert read[0] == 0 or row[read[0]] is Verdict.UNKNOWN
                        stopped += read[0] > 0
        assert stopped >= 400, stopped

    def test_pair_only_mining_stops_at_the_highest_unknown(self):
        # FA p at random-b's state 0: FALSE at counter 0, UNKNOWN above it,
        # so pair-only mining scans once, at the top, and finds no pair
        oca = corpus.load("random-b")
        full_pair, full = mine_period(oca, FA_P, 0, 30, (60, 200))
        assert full_pair is None
        assert full == [Verdict.FALSE] + [Verdict.UNKNOWN] * 30
        ev = BoundedEvaluator(oca, 60, 200)
        pair, row = mine_period(oca, FA_P, 0, 30, (60, 200), ev, full_row=False)
        assert pair is None
        assert row == [None] * 30 + [Verdict.UNKNOWN]
        assert len(ev._sync_memo) == 1

    def test_slice_search_matches_the_all_search(self):
        # seeded three-valued rows, each a random prefix before a repeating
        # pattern with a few samples overwritten, answered by a stub
        # evaluator; both row modes must find the reference's pair
        rng = random.Random(36)
        values = (Verdict.TRUE, Verdict.FALSE, Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN)
        found = none = 0
        for _ in range(4000):
            v_cap = rng.randint(2, 40)
            t0, p0 = rng.randint(0, v_cap), rng.randint(1, v_cap // 2 + 1)
            pattern = [rng.choice(values[:-1]) for _ in range(p0)]
            row = [rng.choice(values) for _ in range(t0)]
            row += [pattern[(v - t0) % p0] for v in range(t0, v_cap + 1)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                row[rng.randrange(v_cap + 1)] = rng.choice(values)
            want = all_search_pair(row)
            for full_row in (True, False):
                stub = RowEvaluator(row)
                pair, _ = mine_period(None, TRUE, 0, v_cap, (0, 0), stub, full_row=full_row)
                assert pair == want, (row, full_row)
            assert stub.asked == list(range(v_cap, v_cap - len(stub.asked), -1))
            found += want is not None
            none += want is None
        assert found >= 2000 and none >= 500, (found, none)


class TestCrossCheck:
    def test_constant_formula_agrees_everywhere(self):
        rep = cross_check(COUNTDOWN, TRUE, [Configuration(0, v) for v in range(8)])
        assert all(r.status == AGREE for r in rep.rows)

    def test_corpus_sample_no_disagreements(self):
        suite = [
            TRUE, parse_formula("p"), parse_formula("!p & true"),
            parse_formula("EX p"), parse_formula("E true U p"),
            parse_formula("A true U p"), FA_P, parse_formula("p UE q"),
        ]
        from ocasync.formula import formula_atoms

        for name in ("countdown", "fork", "asym-fork"):
            oca = corpus.load(name)
            suite_ok = [f for f in suite if formula_atoms(f) <= oca.atoms]
            inits = [Configuration(0, v) for v in range(11)]
            ev = BoundedEvaluator(oca, 60, 200)
            for f in suite_ok:
                rep = cross_check(oca, f, inits, evaluator=ev)
                assert not rep.disagreements, (name, str(f), rep.counts())

    def test_mining_reuses_only_a_matching_evaluator(self, monkeypatch):
        built = []
        real_init = BoundedEvaluator.__init__

        def counting_init(ev, oca, counter_cap, level_cap):
            built.append((oca, counter_cap, level_cap))
            real_init(ev, oca, counter_cap, level_cap)

        monkeypatch.setattr(BoundedEvaluator, "__init__", counting_init)
        inits = [Configuration(0, v) for v in range(4)]
        for ev_oca, ev_caps, fresh in (
            (COUNTDOWN, (30, 60), False),
            (COUNTDOWN, (30, 61), True),
            (corpus.load("countdown"), (30, 60), True),
        ):
            ev = BoundedEvaluator(ev_oca, *ev_caps)
            built.clear()
            rep = cross_check(COUNTDOWN, FA_P, inits, caps=(30, 60), evaluator=ev)
            assert all(r.status == AGREE for r in rep.rows)
            assert built == ([(COUNTDOWN, 30, 60)] if fresh else [])

    def test_oracle_unknown_rows_reported(self):
        rep = cross_check(INC, parse_formula("true UE p"),
                          [Configuration(0, 0)], caps=(20, 40))
        assert {r.status for r in rep.rows} <= {ORACLE_UNKNOWN, AGREE}

    def test_misspelled_option_is_rejected_before_any_verdict(self, monkeypatch):
        # at caps (2, 1) the oracle leaves "p UE q" at (s, 3) UNKNOWN, so the
        # checker never runs; the misspelling must still be a TypeError, as
        # it is for "p", whose verdict is definite
        verdicts = []
        monkeypatch.setattr(BoundedEvaluator, "verdict",
                            lambda self, f, c: verdicts.append(c))
        for text in ("p UE q", "p"):
            with pytest.raises(TypeError, match="unexpected keyword argument 'supplid'"):
                cross_check(FORK, parse_formula(text), [Configuration(0, 3)], caps=(2, 1),
                            supplid=None)
        assert verdicts == []
        monkeypatch.undo()
        rep = cross_check(FORK, parse_formula("p UE q"), [Configuration(0, 3)], caps=(2, 1),
                          supplied=None)
        assert [r.status for r in rep.rows] == [ORACLE_UNKNOWN]

    def test_fault_injection_is_caught(self, monkeypatch):
        # flip the inclusion test inside the synchronized check: the oracle
        # must notice on a formula whose top operator is synchronized
        real = mc.check_ua_on_kripke

        def flipped(k, init, sat1, sat2, step_cap=None):
            res = real(k, init, sat1, sat2, step_cap)
            return SyncCheck(not res.holds, res.witness_k, res.iterations)

        monkeypatch.setattr(mc, "check_ua_on_kripke", flipped)
        rep = cross_check(COUNTDOWN, FA_P, [Configuration(0, v) for v in range(6)])
        assert rep.disagreements

    def test_report_json_shape(self):
        rep = cross_check(COUNTDOWN, FA_P, [Configuration(0, 2)])
        doc = rep.to_json(COUNTDOWN)
        assert doc["rows"][0]["status"] in (AGREE, DISAGREE, ORACLE_UNKNOWN, CHECKER_UNKNOWN)
        assert doc["counts"][AGREE] == 1


class TestDifferentialFuzz:
    def test_random_automata_and_formulas_never_disagree(self):
        # 1000 seeded cases over all nine operator kinds, every case kept
        # whatever it costs or answers; about 5 s
        counts = {}
        disagreements = []
        start = time.monotonic()
        for seed in range(1000):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            f = random_formula(rng, 3)
            inits = [Configuration(rng.randrange(oca.n_states), rng.randint(0, 11))
                     for _ in range(10)]
            rep = cross_check(oca, f, inits, "empirical", (40, 120))
            for status, n in rep.counts().items():
                counts[status] = counts.get(status, 0) + n
            disagreements += [(seed, pretty(f), r.init) for r in rep.disagreements]
        elapsed = time.monotonic() - start
        assert not disagreements, disagreements[:5]
        assert counts.get(AGREE, 0) >= 9000, counts
        assert elapsed < 60, elapsed

    def test_checker_sets_match_the_oracle_on_the_whole_region(self):
        # the fuzz recipe's 1000 seeded cases, every one kept, with one
        # evaluator per case shared by the checker's mining and the
        # comparison; the checker's per-state sets are compared with the
        # oracle at every state and every counter 0..40, not at 10 inits.  A
        # case whose mining exceeds its budget is skipped, not compared
        # (88 of them).  912 cases give 89,749 agreements and 123 UNKNOWNs,
        # in about 3 s of CPU time on Python 3.11
        cases = skipped = agreements = unknown = 0
        disagreements = []
        start = time.process_time()
        for seed in range(1000):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            f = random_formula(rng, 3)
            ev = BoundedEvaluator(oca, 40, 120)
            try:
                result = mc.check_oca(oca, f, Configuration(0, 0), "empirical",
                                      caps=(40, 120), evaluator=ev)
            except BudgetExceededError:
                skipped += 1
                continue
            cases += 1
            for s, name in enumerate(oca.state_names):
                sat = result.per_state[name]
                for v in range(41):
                    verdict = ev.verdict(f, Configuration(s, v))
                    if not verdict.definite:
                        unknown += 1
                    elif sat.member(v) == (verdict is Verdict.TRUE):
                        agreements += 1
                    else:
                        disagreements.append((seed, pretty(f), name, v))
        elapsed = time.process_time() - start
        assert not disagreements, disagreements[:5]
        assert cases + skipped == 1000 and cases >= 880, (cases, skipped)
        assert agreements >= 85000, (agreements, unknown)
        assert elapsed < 15, elapsed


class TestPairRefinement:
    def test_refined_supplied_pairs_give_the_mined_sets(self):
        # no oracle verdict in the comparison: if the mined pair (T, P) is
        # right, so are (T + P, 2P) and (T + 1, 3P), and the checker run in
        # supplied mode at either must give the empirical run's per-state
        # sets at every counter below T + 7P + 10.  600 seeded cases of the
        # fuzz recipe, every one kept; a case whose mining exceeds its
        # budget is skipped, not compared (49 of them).  About 2.7 s of CPU
        # time on Python 3.11 and 3.8 s on 3.10
        compared = skipped = 0
        differences = []
        start = time.process_time()
        for seed in range(600):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            f = random_formula(rng, 3)
            try:
                mined = mc.check_oca(oca, f, Configuration(0, 0), "empirical", caps=(40, 120))
            except BudgetExceededError:
                skipped += 1
                continue
            t, p = mined.constants_used["t"], mined.constants_used["p"]
            for pair in (TpPair(t + p, 2 * p), TpPair(t + 1, 3 * p)):
                refined = mc.check_oca(oca, f, Configuration(0, 0), "supplied", supplied=pair)
                for name, sat in mined.per_state.items():
                    other = refined.per_state[name]
                    differences += [
                        (seed, pretty(f), pair, name, v) for v in range(t + 7 * p + 10)
                        if sat.member(v) != other.member(v)
                    ]
            compared += 1
        elapsed = time.process_time() - start
        assert not differences, differences[:5]
        assert compared + skipped == 600 and compared >= 540, (compared, skipped)
        assert elapsed < 5, elapsed


def permuted(rng, oca):
    """``oca`` with its states renumbered at random and its transitions
    shuffled (``Oca`` sorts them again), with the index map old -> new."""
    order = list(range(oca.n_states))
    rng.shuffle(order)  # new state i is old state order[i]
    new_index = {old: new for new, old in enumerate(order)}
    transitions = [Transition(new_index[t.src], t.guard, t.effect, new_index[t.dst])
                   for t in oca.transitions]
    rng.shuffle(transitions)
    return Oca(tuple(oca.state_names[i] for i in order), oca.atoms,
               tuple(oca.labels[i] for i in order), tuple(transitions)), new_index


def check_json(oca, f, init):
    """``check_oca(...).to_json()`` in the fuzz recipe's mode and caps, or the
    budget error's message, required count and budget."""
    try:
        return mc.check_oca(oca, f, init, "empirical", caps=(40, 120)).to_json()
    except BudgetExceededError as exc:
        return ("budget", str(exc), exc.required, exc.budget)


def unmined(oca, f):
    """The first subformula, in ``subformulas`` order, whose mining at the
    recipe's caps fails at some state, with the names of those states."""
    ev = BoundedEvaluator(oca, 40, 120)
    for g in subformulas(f):
        names = {oca.state_names[s] for s in range(oca.n_states)
                 if mine_period(oca, g, s, 20, (40, 120), evaluator=ev)[0] is None}
        if names:
            return pretty(g), names
    return None


class TestIsomorphismInvariance:
    def test_renumbered_states_give_the_same_result(self):
        # the fuzz recipe's seeds 0-499, every one kept: the same automaton
        # with its states renumbered and its transitions shuffled must give
        # the same CheckResult JSON (state names stay), or the same budget
        # error.  A mining failure names the first failing state in index
        # order, so 7 errors name another state that fails too (the same 7
        # at caps (80, 240)).  About 4 s of CPU time on Python 3.11
        budget_errors = 0
        renamed = []
        start = time.process_time()
        for seed in range(500):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            f = random_formula(rng, 3)
            init = Configuration(rng.randrange(oca.n_states), rng.randint(0, 11))
            other, new_index = permuted(rng, oca)
            got = check_json(oca, f, init)
            again = check_json(other, f, Configuration(new_index[init.state], init.counter))
            budget_errors += type(got) is tuple
            if got != again:
                # equal but for the state named, which fails in both numberings
                failing = unmined(oca, f)
                assert failing == unmined(other, f), (seed, pretty(f))
                for doc in (got, again):
                    assert type(doc) is tuple and doc[2:] == got[2:], (seed, pretty(f))
                    named = re.search(r"for '(.*)' at state (\S+) within", doc[1])
                    assert named[1] == failing[0] and named[2] in failing[1], (seed, doc)
                assert re.sub(r"at state \S+", "", got[1]) == re.sub(r"at state \S+", "", again[1])
                renamed.append(seed)
        elapsed = time.process_time() - start
        assert renamed == [63, 151, 202, 374, 406, 439, 445]
        assert 10 <= budget_errors <= 100, budget_errors
        assert elapsed < 10, elapsed


def reference_match(source, target, prev_t, prev_p):
    """``oracle._match`` by its definition: the first source configuration,
    in sorted order, with no same-state target partner that is equal to it
    below ``prev_t`` or congruent to it modulo ``prev_p`` at or above."""
    def equivalent(u, v):
        if u >= prev_t and v >= prev_t:
            return abs(u - v) % prev_p == 0
        return u == v

    for e, u in sorted(source):
        if not any(e2 == e and equivalent(u, u2) for e2, u2 in target):
            return Configuration(e, u)
    return None


class TestShiftAudit:
    def test_audited_levels_are_never_negative(self):
        # with prev_t > 0, segment 1's floored start lies below level 0 just
        # above the counter threshold (at -4..-1 here); such a segment is
        # audited from level 0 on, never read from the end of the traces
        below_zero = cases = 0
        for oca in (COUNTDOWN, FORK):
            for prev_t, prev_p in itertools.product(range(6), (2, 3, 4)):
                if prev_t >= 2 * prev_p:
                    continue  # a period of 2 * prev_p must dominate prev_t
                bundle = ua_constants(oca.n_states, prev_t, prev_p, b_override=1)
                for v in range(bundle.counter_threshold + 1, bundle.counter_threshold + 4):
                    below_zero += segment_start(1, v, bundle) < 0
                    report = check_shift_periodicity(oca, bundle, counters=[v])
                    assert report.cases and all(c.length >= 0 for c in report.cases), (
                        oca.state_names, prev_t, prev_p, v)
                    cases += len(report.cases)
        assert below_zero >= 20 and cases > 1000, (below_zero, cases)

    def test_deterministic_countdown_segment_zero_holds(self):
        bundle = ua_constants(COUNTDOWN.n_states, 0, 1, b_override=1)
        report = check_shift_periodicity(COUNTDOWN, bundle)
        summary = report.summary()
        assert any(key.endswith("segment0") for key in summary)
        for key, counts in summary.items():
            if key.endswith("segment0"):
                assert counts.get("fail", 0) == 0
                assert counts.get("pass", 0) > 0

    def test_countdown_boundary_failures_are_reported_not_hidden(self):
        # at this far-below-regime scale the outside-core implications break
        # exactly around the level where the unique run hits zero; the audit
        # must surface that rather than assert it away
        bundle = ua_constants(COUNTDOWN.n_states, 0, 1, b_override=1)
        report = check_shift_periodicity(COUNTDOWN, bundle)
        boundary = {c.length - c.counter for c in report.failures()}
        assert boundary <= {1, 2}  # zero-hit window: lengths v+1 and v+2
        for fail in report.failures():
            assert fail.segment is None  # never from the core

    def test_segment_zero_shift_preserves_levels_on_corpus(self):
        for name in ("countdown", "asym-fork"):
            oca = corpus.load(name)
            bundle = ua_constants(oca.n_states, 0, 1, b_override=1)
            report = check_shift_periodicity(oca, bundle)
            seg0 = [c for c in report.cases if c.segment == 0]
            assert seg0
            assert all(c.status != "fail" for c in seg0)

    def test_failures_carry_slope_diagnostics(self, rng):
        # random machines below the derivation's regime may fail; when they
        # do, the report must decompose a witness path into slope repetitions
        found_failure = False
        for seed in range(6):
            oca = random_total_oca(random.Random(seed), n_states=3)
            bundle = ua_constants(oca.n_states, 0, 1, b_override=1)
            report = check_shift_periodicity(oca, bundle)
            for fail in report.failures():
                found_failure = True
                if fail.diagnostics is not None:
                    assert "slopeRepetitions" in fail.diagnostics
                    assert "manyRepetitionsThreshold" in fail.diagnostics
        # either way the audit ran; failures are informative, not required
        assert isinstance(found_failure, bool)

    def test_match_agrees_with_the_pairwise_definition(self):
        rng = random.Random(11)
        for _ in range(3000):
            t, p = rng.randint(0, 4), rng.randint(1, 4)
            source, target = (
                frozenset(Configuration(rng.randrange(3), rng.randrange(12))
                          for _ in range(rng.randint(0, 6)))
                for _ in range(2)
            )
            got = _match(rows_of(source, 3), rows_of(target, 3), t, p)
            assert got == reference_match(source, target, t, p), (source, target, t, p)
        # thresholds and periods as wide as the rows themselves
        for _ in range(1000):
            t, p = rng.randint(0, 14), rng.randint(1, 14)
            source, target = (
                frozenset(Configuration(rng.randrange(2), rng.randrange(12))
                          for _ in range(rng.randint(0, 8)))
                for _ in range(2)
            )
            got = _match(rows_of(source, 2), rows_of(target, 2), t, p)
            assert got == reference_match(source, target, t, p), (source, target, t, p)

    def test_audit_with_a_nontrivial_prev_pair(self, monkeypatch):
        # the pinned benchmark jobs audit only (prev_t, prev_p) = (0, 1)
        def frozenset_match(source, target, prev_t, prev_p):
            return reference_match(rows_to_set(source), rows_to_set(target), prev_t, prev_p)

        for oca in (COUNTDOWN, ASYM, random_total_oca(random.Random(3), n_states=2)):
            bundle = ua_constants(oca.n_states, 2, 3, b_override=1)
            got = check_shift_periodicity(oca, bundle).to_json(oca)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_match", frozenset_match)
                want = check_shift_periodicity(oca, bundle).to_json(oca)
            assert got == want
            assert got["failures"]

    def test_audit_builds_one_trace_per_origin(self, monkeypatch):
        # counters 40..43 at period 2 need origins 40..45: six traces per state
        bundle = ua_constants(COUNTDOWN.n_states, 0, 1, b_override=1)
        assert bundle.period == 2
        calls = []
        real = oracle.level_sets

        def counting(oca, origin, level_cap, counter_cap):
            calls.append(origin)
            return real(oca, origin, level_cap, counter_cap)

        monkeypatch.setattr(oracle, "level_sets", counting)
        check_shift_periodicity(COUNTDOWN, bundle, counters=[40, 41, 42, 43])
        assert sorted(calls) == [Configuration(s, v) for s in range(COUNTDOWN.n_states)
                                 for v in range(40, 46)]

    def test_counters_below_threshold_rejected(self):
        bundle = ua_constants(COUNTDOWN.n_states, 0, 1, b_override=1)
        with pytest.raises(ValueError):
            check_shift_periodicity(COUNTDOWN, bundle, counters=[1])

    def test_default_counters_avoid_segment_overlap(self):
        bundle = ua_constants(3, 0, 1, b_override=1)
        from ocasync.periodicity import core_levels

        for v in default_audit_counters(bundle):
            core = core_levels(v, bundle)
            assert len(core) == len(set(core))
            assert core == sorted(core)
