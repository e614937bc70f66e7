"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see them)
and enforces its stated runtime bound.
"""

import itertools
import math
import random
import time

import pytest

from ocasync import bignum, corpus
from ocasync.formula import Kind, formula_atoms, parse_formula, subformulas
from ocasync.lps import (
    CycleStats, Lps, adjust_length, combine_cycles_ratio,
    compress_path_with_exponents, shaped_witness_exponents,
)
from ocasync.mc import Kripke, check_ua_on_kripke, check_ue_on_kripke, cross_check
from ocasync.oca import Configuration, successors
from ocasync.oracle import BoundedEvaluator, Verdict, check_shift_periodicity, mine_period
from ocasync.periodicity import TpPair, ctl_constants, ua_constants
from conftest import mask_of, random_total_oca


def report(name, detail=""):
    print(f"[{name}] PASS {detail}".rstrip())


def label_tree(kripke, f):
    from ocasync.mc import _label_mask

    sat = {}
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            fn = check_ua_on_kripke if g.kind is Kind.UA else check_ue_on_kripke
            s1, s2 = sat[g.children[0]], sat[g.children[1]]
            sat[g] = 0
            for node in range(kripke.n):
                if fn(kripke, node, s1, s2, 500).holds:
                    sat[g] |= 1 << node
        else:
            sat[g] = _label_mask(kripke, g, sat)
    return sat


def holds_at(kripke, root, text):
    f = parse_formula(text)
    return bool(label_tree(kripke, f)[f] >> root & 1)


def test_ac1_semantics_separation():
    start = time.monotonic()
    ka, ra = corpus.tree_synchronized()
    kb, rb = corpus.tree_staggered()

    assert holds_at(ka, ra, "A true U black")
    assert holds_at(kb, rb, "A true U black")
    assert holds_at(ka, ra, "FA black")
    assert not holds_at(kb, rb, "FA black")
    assert holds_at(ka, ra, "E white U stripes")
    assert not holds_at(kb, rb, "E white U stripes")
    assert holds_at(kb, rb, "white UE stripes")
    res = check_ue_on_kripke(
        kb, rb, kb.atom_mask("white"), kb.atom_mask("stripes"), 500
    )
    assert res.holds and res.witness_k == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("AC1", f"- four separating verdicts incl. level-6 witness ({elapsed:.2f}s)")


# every corpus automaton declares p; some also declare q
SUITE = [
    "true",
    "p",
    "!p",
    "p & q",
    "EX p",
    "E p U q",
    "E true U p",
    "A true U p",
    "FA p",
    "p UE q",
    "true UE p",
    "EX (FA p)",
    "FA (EX p)",
    "!(true UE p)",
    "A (EX p) U q",
]


def test_ac2_oracle_equivalence():
    start = time.monotonic()
    assert len(corpus.names()) >= 5
    checked = disagreed = 0
    for name in corpus.names():
        oca = corpus.load(name)
        assert oca.n_states <= 4
        ev = BoundedEvaluator(oca, 60, 200)
        inits = [Configuration(0, v) for v in range(13)]
        for text in SUITE:
            f = parse_formula(text)
            if not formula_atoms(f) <= oca.atoms:
                continue
            rep = cross_check(oca, f, inits, "empirical", (60, 200), evaluator=ev)
            checked += len(rep.rows)
            disagreed += len(rep.disagreements)
            assert not rep.disagreements, (name, text, rep.counts())
    kinds = {g.kind for text in SUITE for g in subformulas(parse_formula(text))}
    assert kinds == set(Kind)  # all nine operators exercised
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("AC2", f"- {checked} checker/oracle rows, {disagreed} disagreements ({elapsed:.1f}s)")


CTL_SUITE = [
    "EX p",
    "EX (EX p)",
    "E true U p",
    "E p U q",
    "A true U p",
    "EX (E true U p)",
    "E (EX p) U p",
    "A p U (EX p)",
]


def test_ac3_recursion_soundness_from_mined_pairs():
    start = time.monotonic()
    caps = (130, 260)
    violations = 0
    checked_pairs = 0
    for name in corpus.names():
        oca = corpus.load(name)
        ev = BoundedEvaluator(oca, *caps)
        for text in CTL_SUITE:
            f = parse_formula(text)
            if not formula_atoms(f) <= oca.atoms:
                continue
            child_pairs = []
            for child in f.children:
                per_state = [
                    mine_period(oca, child, s, 30, caps, evaluator=ev)[0]
                    for s in range(oca.n_states)
                ]
                assert all(p is not None for p in per_state), (name, text)
                child_pairs.append(TpPair(
                    max(p.t for p in per_state),
                    math.lcm(*[p.p for p in per_state]),
                ))
            t, p = ctl_constants(f.kind, child_pairs, oca.n_states)
            for s in range(oca.n_states):
                row = [ev.verdict(f, Configuration(s, v)) for v in range(61)]
                for v in range(t, 61):
                    w = t + (v - t) % p
                    if row[v].definite and row[w].definite:
                        checked_pairs += 1
                        if row[v] != row[w]:
                            violations += 1
            assert violations == 0, (name, text)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("AC3", f"- {checked_pairs} congruent verdict pairs, {violations} violations ({elapsed:.1f}s)")


def test_ac4_reduction_matches_oracle_at_mined_pairs():
    start = time.monotonic()
    caps = (60, 200)
    tested = 0
    for name in corpus.names():
        oca = corpus.load(name)
        ev = BoundedEvaluator(oca, *caps)
        inits = [Configuration(0, v) for v in range(13)]
        for text in SUITE:
            f = parse_formula(text)
            if not formula_atoms(f) <= oca.atoms:
                continue
            pairs = []
            minable = True
            for g in subformulas(f):
                per_state = [
                    mine_period(oca, g, s, 25, caps, evaluator=ev)[0]
                    for s in range(oca.n_states)
                ]
                if not all(pr is not None for pr in per_state):
                    minable = False
                    break
                pairs.append(TpPair(
                    max(pr.t for pr in per_state),
                    math.lcm(*[pr.p for pr in per_state]),
                ))
            if not minable:
                continue
            pair = TpPair(
                max(pr.t for pr in pairs),
                math.lcm(*[pr.p for pr in pairs]),
            )
            if pair.t + pair.p > 30:
                continue
            rep = cross_check(
                oca, f, inits, "supplied", caps, supplied=pair, evaluator=ev
            )
            assert not rep.disagreements, (name, text, pair, rep.counts())
            tested += sum(1 for r in rep.rows if r.status == "AGREE")
    assert tested > 100
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("AC4", f"- {tested} agreeing definite rows at mined pairs ({elapsed:.1f}s)")


def test_ac5_flat_witnesses_for_all_reach_facts():
    start = time.monotonic()
    rng = random.Random(20240817)
    facts = misses = 0
    for _ in range(50):
        oca = random_total_oca(rng, n_states=rng.randint(1, 3))
        index = {t: i for i, t in enumerate(oca.transitions)}
        for s in range(oca.n_states):
            for v in range(16):
                # parent-pointer exploration: one witness path per fact
                parent = {(0, Configuration(s, v)): None}
                frontier = [Configuration(s, v)]
                for depth in range(1, 16):
                    nxt = set()
                    for c in frontier:
                        for d in successors(oca, c):
                            if d.counter <= 31 and (depth, d) not in parent:
                                parent[(depth, d)] = (c, d)
                                nxt.add(d)
                    frontier = sorted(nxt)
                for (depth, target), _ in list(parent.items()):
                    if depth == 0 or target.counter > 15:
                        continue
                    facts += 1
                    path = []
                    cur, lv = target, depth
                    while lv > 0:
                        prev, _ = parent[(lv, cur)]
                        guard = "=0" if prev.counter == 0 else ">0"
                        hit = next(
                            t for t in oca.outgoing(prev.state, guard)
                            if t.dst == cur.state
                            and prev.counter + t.effect == cur.counter
                        )
                        path.append(index[hit])
                        cur, lv = prev, lv - 1
                    path.reverse()
                    scheme, exps = compress_path_with_exponents(oca, s, tuple(path))
                    if scheme.size > 6:
                        scheme, exps = Lps(s, tuple(path), ()), ()
                    ok = (
                        scheme.flat_length <= 20
                        and scheme.size <= 6
                        and shaped_witness_exponents(
                            oca, scheme, Configuration(s, v), target, depth,
                            max(exps, default=0) + depth,
                        ) is not None
                    )
                    if not ok:
                        misses += 1
    assert misses == 0
    assert facts > 10_000
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("AC5", f"- {facts} reach facts, all witnessed within bounds ({elapsed:.1f}s)")


def test_ac6_cycle_combination_arithmetic():
    start = time.monotonic()
    from fractions import Fraction

    triples = pairs = 0
    for b in range(1, 7):
        stats = [CycleStats(e, l) for l in range(1, b + 1) for e in range(-l, l + 1)]
        for c1, c2, c3 in itertools.product(stats, repeat=3):
            if not c1.slope <= c2.slope <= c3.slope:
                continue
            k1, k3 = combine_cycles_ratio(c1, c2, c3)
            assert k1 >= 0 and k3 >= 0 and (k1, k3) != (0, 0)
            assert Fraction(
                k1 * c1.effect + k3 * c3.effect,
                k1 * c1.length + k3 * c3.length,
            ) == c2.slope
            triples += 1
        modulus = math.lcm(*range(1, 2 * b * b + 1))
        for c1, c2 in itertools.product(stats, repeat=2):
            if not c1.slope < c2.slope:
                continue
            for x in (modulus, -modulus):
                k1, k2 = adjust_length(c1, c2, x, b=b)
                assert k1 * c1.effect + k2 * c2.effect == 0
                assert k1 * c1.length + k2 * c2.length == x
                pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report("AC6", f"- {triples} triples and {pairs} pair adjustments verified ({elapsed:.1f}s)")


def test_ac7_constants_sanity():
    start = time.monotonic()
    for n in (3, 4, 5):
        prev = TpPair(0, 1)
        bits = []
        for _depth in range(3):
            bundle = ua_constants(n, prev.t, prev.p)
            assert bundle.b == 8 * n**3
            assert bundle.period == bundle.B * bundle.prev_p
            assert bundle.seg_threshold == bundle.b**9 * bundle.period
            assert bundle.counter_threshold == bundle.b**11 * bundle.period
            assert bundle.period > bundle.prev_t
            assert bundle.m + 1 < bundle.b**2
            bits.append(bignum.bit_length(bundle.period))
            prev = bundle.pair
        # monotone, and additive growth per nesting level (single exponential)
        assert bits == sorted(bits) and len(set(bits)) == len(bits)
        step = bits[0]
        for depth, total in enumerate(bits, start=1):
            assert total <= depth * step * 1.02 + 64
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report("AC7", f"- bundles for n=3,4,5 at depths 1..3 ({elapsed:.2f}s)")


def test_ac8_level_iteration_terminates():
    start = time.monotonic()
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(1, 10)
        succ = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
            for _ in range(n)
        )
        labels = tuple(
            frozenset(a for a in ("p",) if rng.random() < 0.35) for _ in range(n)
        )
        k = Kripke.from_successors(succ, labels)
        sat1 = k.full_mask if rng.random() < 0.5 else k.atom_mask("p") | 1
        res = check_ua_on_kripke(k, rng.randrange(n), sat1, k.atom_mask("p"))
        assert res.iterations <= 2**n + 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report("AC8", f"- 200 fuzzed structures, all within the orbit bound ({elapsed:.1f}s)")


def test_ac9_scaled_shift_audit():
    start = time.monotonic()
    seg0_failures = 0
    reported = {}
    for name in ("countdown", "increment-loop", "asym-fork"):
        oca = corpus.load(name)
        bundle = ua_constants(oca.n_states, 0, 1, b_override=1)
        rep = check_shift_periodicity(oca, bundle)
        for case in rep.cases:
            if case.segment == 0:
                assert case.status != "fail", (name, case)
                seg0_failures += case.status == "fail"
        reported[name] = rep.summary()
        assert rep.cases
    assert seg0_failures == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("AC9", f"- segment-0 implications clean on {sorted(reported)} ({elapsed:.1f}s)")
