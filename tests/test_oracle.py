import functools
import random

import pytest

from ocasync import corpus, mc
from ocasync.formula import TRUE, atom, au, eu, ex, land, lnot, parse_formula, ua, ue
from ocasync.mc import SyncCheck
from ocasync.oca import Configuration, successors
from ocasync.oracle import (
    AGREE, CHECKER_UNKNOWN, DISAGREE, ORACLE_UNKNOWN,
    BoundedEvaluator, Verdict, check_shift_periodicity, cross_check,
    default_audit_counters, eval_bounded, mine_period,
)
from ocasync.periodicity import TpPair, ua_constants
from conftest import random_total_oca

COUNTDOWN = corpus.load("countdown")
FORK = corpus.load("fork")
ASYM = corpus.load("asym-fork")
INC = corpus.load("increment-loop")

FA_P = parse_formula("FA p")


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

    def test_ue_witness_semantics_on_unfolded_trees(self):
        # definitional evaluation agrees with the level-set reading used by
        # the finite-structure algorithm
        ev = BoundedEvaluator(ASYM, 20, 60)
        f = parse_formula("true UE p")
        assert ev.verdict(f, Configuration(0, 1)) is Verdict.TRUE


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


class ReferenceEvaluator(BoundedEvaluator):
    """An evaluator whose UE scan is ``reference_scan_ue``, memoised per
    (formula, configuration)."""

    def __init__(self, oca, counter_cap, level_cap, succ):
        super().__init__(oca, counter_cap, level_cap)
        self.naive_succ = succ
        self.scans = {}

    def _scan_ue(self, f, c):
        if (f, c) not in self.scans:
            self.scans[f, c] = reference_scan_ue(self, f, c, self.naive_succ)
        return self.scans[f, c]


UE_SUITE = [parse_formula(t) for t in (
    "p UE q", "true UE p", "(EX p) UE q", "q UE (E true U p)",
)]


class TestSynchronizedScan:
    """The linear UE scan and the region index it shares with the plain-until
    tables, pinned against their definitions over ``oca.successors``."""

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

    def test_distance_masks_match_exact_path_lengths(self):
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap, level_cap in ((0, 5), (3, 2), (7, 30), (12, 12), (12, 40)):
                ev = BoundedEvaluator(oca, counter_cap, level_cap)
                for f in UE_SUITE:
                    masks = ev._distance_masks(f)
                    for s in range(oca.n_states):
                        for v in range(counter_cap + 1):
                            c = Configuration(s, v)
                            levels = _in_region_levels(succ, c, counter_cap, level_cap)
                            want = sum(
                                1 << m for m, level in enumerate(levels)
                                if any(ev.verdict(f.children[1], d) is Verdict.TRUE
                                       for d in level)
                            )
                            assert masks.get(c, 0) == want, (f, c, counter_cap, level_cap)

    def test_region_index_matches_successors(self):
        for oca in self._automata():
            succ = _successors(oca)
            for counter_cap in (0, 1, 5, 12):
                ev = BoundedEvaluator(oca, counter_cap, 10)
                region = [Configuration(s, v) for s in range(oca.n_states)
                          for v in range(counter_cap + 1)]
                preds, boundary = ev._region_index
                assert set(preds) == set(region)
                for d in region:
                    assert sorted(preds[d]) == sorted(
                        c for c in region if d in successors(oca, c))
                assert boundary == {
                    c for c in region
                    if any(d.counter > counter_cap for d in successors(oca, c))
                }
                leaves = set()
                for c in region:
                    levels = _in_region_levels(succ, c, counter_cap, len(region))
                    if any(e.counter > counter_cap
                           for level in levels for d in level for e in succ(d)):
                        leaves.add(c)
                assert ev.escaping == leaves


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
        from ocasync.formula import Kind
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


class TestShiftAudit:
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
