import json
import math
import random
import tracemalloc

import pytest

from ocasync import oca as oca_module
from ocasync.oca import (
    Configuration, Oca, OracleTrace, Transition, POS, ZERO,
    iter_level_rows, level_sets, loads, oca_to_json, oca_to_text, parse_configuration,
    parse_oca_json, parse_oca_text, pre_rows, step_rows, steps_to, successors,
    validate, witness_path,
)
from ocasync.errors import OcaSyntaxError
from ocasync import corpus
from conftest import random_total_oca, rows_of, rows_to_set


def one_state(transitions):
    return Oca(("s",), frozenset({"p"}), (frozenset(),), tuple(transitions))


COUNTDOWN = corpus.load("countdown")
FORK = corpus.load("fork")


class TestValidate:
    def test_minimal_total_oca_is_clean(self):
        oca = one_state([Transition(0, ZERO, 0, 0), Transition(0, POS, 0, 0)])
        assert validate(oca) == []

    def test_missing_pos_successor(self):
        oca = one_state([Transition(0, ZERO, 0, 0)])
        diags = validate(oca)
        assert len(diags) == 1 and ">0" in diags[0] and "s" in diags[0]

    def test_decrement_under_zero_guard(self):
        oca = one_state([
            Transition(0, ZERO, -1, 0),
            Transition(0, ZERO, 0, 0),
            Transition(0, POS, 0, 0),
        ])
        assert any("decrement" in d for d in validate(oca))

    def test_undeclared_label(self):
        oca = Oca(("s",), frozenset(), (frozenset({"p"}),),
                  (Transition(0, ZERO, 0, 0), Transition(0, POS, 0, 0)))
        assert any("undeclared" in d for d in validate(oca))

    def test_out_of_range_state_and_unknown_guard(self):
        # only an automaton built directly can hold these; both readers refuse them
        bad_state, bad_guard = Transition(0, POS, 0, 3), Transition(0, "<0", 0, 0)
        oca = one_state([Transition(0, ZERO, 0, 0), bad_state, bad_guard])
        assert sorted(validate(oca)) == [
            f"transition {bad_guard} has unknown guard '<0'",
            f"transition {bad_state} references an out-of-range state index",
        ]


class TestSuccessors:
    def test_countdown_positive(self):
        assert successors(COUNTDOWN, Configuration(0, 3)) == {Configuration(0, 2)}

    def test_countdown_zero_guard_selects_other_rule(self):
        assert successors(COUNTDOWN, Configuration(0, 0)) == {Configuration(1, 0)}

    def test_fork_two_branches(self):
        s = FORK.state_index("s")
        a, b = FORK.state_index("a"), FORK.state_index("b")
        assert successors(FORK, Configuration(s, 5)) == {
            Configuration(a, 6), Configuration(b, 4),
        }

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            successors(COUNTDOWN, Configuration(0, -1))

    def test_totality_gives_nonempty_successors(self, rng):
        for _ in range(25):
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            for s in range(oca.n_states):
                for v in (0, 1, 7):
                    assert successors(oca, Configuration(s, v))


def reference_steps_to(oca, targets):
    """Breadth-first search backward from ``targets`` over the control
    graph read off ``successors`` at counters 0 and 1, one per guard."""
    preds = {s: set() for s in range(oca.n_states)}
    for s in range(oca.n_states):
        for v in (0, 1):
            for d in successors(oca, Configuration(s, v)):
                preds[d.state].add(s)
    steps = {s: 0 for s in targets}
    frontier = list(targets)
    while frontier:
        nxt = []
        for d in frontier:
            for s in sorted(preds[d]):
                if s not in steps:
                    steps[s] = steps[d] + 1
                    nxt.append(s)
        frontier = nxt
    return [steps.get(s, math.inf) for s in range(oca.n_states)]


class TestStepsTo:
    def test_matches_breadth_first_search(self):
        # the corpus and 240 seeded automata of 1-6 states, each with the
        # empty target set, every state, and three random target sets
        rng = random.Random(40)
        automata = [corpus.load(name) for name in corpus.names()]
        automata += [random_total_oca(rng, n_states=1 + i % 6) for i in range(240)]
        unreachable = deep = 0
        for i, oca in enumerate(automata):
            every = set(range(oca.n_states))
            assert steps_to(oca, set()) == [math.inf] * oca.n_states, i
            assert steps_to(oca, every) == [0] * oca.n_states, i
            for _ in range(3):
                targets = {s for s in every if rng.random() < 0.3}
                got = steps_to(oca, targets)
                assert got == reference_steps_to(oca, targets), (i, targets)
                unreachable += targets != set() and math.inf in got
                deep += max(d for d in got if d < math.inf) if targets else 0
        assert unreachable > 10 and deep > 400, (unreachable, deep)


class TestLevelSets:
    def test_countdown_hand_simulated(self):
        trace = level_sets(COUNTDOWN, Configuration(0, 2), 5, 10)
        expected = [
            {Configuration(0, 2)}, {Configuration(0, 1)}, {Configuration(0, 0)},
            {Configuration(1, 0)}, {Configuration(1, 0)}, {Configuration(1, 0)},
        ]
        assert [rows_to_set(lv) for lv in trace.levels] == expected
        assert not any(trace.truncated)

    def test_increment_loop_truncates_at_cap(self):
        inc = corpus.load("increment-loop")
        trace = level_sets(inc, Configuration(0, 0), 4, 2)
        assert [rows_to_set(lv) for lv in trace.levels] == [
            {Configuration(0, 0)}, {Configuration(0, 1)}, {Configuration(0, 2)},
            set(), set(),
        ]
        assert trace.truncated == (False, False, False, True, True)

    def test_fork_levels_are_successor_closures(self):
        trace = level_sets(FORK, Configuration(0, 1), 2, 10)
        assert rows_to_set(trace.levels[1]) == successors(FORK, Configuration(0, 1))
        expected2 = set()
        for c in rows_to_set(trace.levels[1]):
            expected2 |= successors(FORK, c)
        assert rows_to_set(trace.levels[2]) == expected2

    def _enumerate_endpoints(self, oca, c, depth):
        # independent recursive path enumerator: walks each transition sequence
        if depth == 0:
            return {c}
        out = set()
        guard = ZERO if c.counter == 0 else POS
        for t in oca.outgoing(c.state, guard):
            out |= self._enumerate_endpoints(
                oca, Configuration(t.dst, c.counter + t.effect), depth - 1
            )
        return out

    def test_levels_match_recursive_path_enumerator(self, rng):
        for _ in range(12):
            oca = random_total_oca(rng, n_states=rng.randint(2, 4))
            origin = Configuration(rng.randrange(oca.n_states), rng.randint(0, 3))
            trace = level_sets(oca, origin, 8, 10**9)
            assert not any(trace.truncated)
            for depth in range(9):
                assert rows_to_set(trace.levels[depth]) == \
                    self._enumerate_endpoints(oca, origin, depth)

    def test_raising_caps_never_removes_from_exact_levels(self, rng):
        for _ in range(10):
            oca = random_total_oca(rng)
            origin = Configuration(0, 2)
            small = level_sets(oca, origin, 6, 4)
            big = level_sets(oca, origin, 9, 12)
            for lv in range(7):
                assert rows_to_set(small.levels[lv]) <= rows_to_set(big.levels[lv])
                if not small.truncated[lv]:
                    assert small.levels[lv] == big.levels[lv]

    def test_witness_path_replays_to_target(self, rng):
        for _ in range(10):
            oca = random_total_oca(rng)
            origin = Configuration(0, 1)
            trace = level_sets(oca, origin, 6, 50)
            for depth in (3, 6):
                for target in rows_to_set(trace.levels[depth]):
                    path = witness_path(oca, trace, target, depth)
                    assert path is not None and len(path) == depth
                    cur = origin
                    for t in path:
                        assert t.src == cur.state
                        assert (t.guard == ZERO) == (cur.counter == 0)
                        cur = Configuration(t.dst, cur.counter + t.effect)
                    assert cur == target
            # no path to a configuration the level does not hold, or past the trace
            assert witness_path(oca, trace, Configuration(0, 99), 3) is None
            assert witness_path(oca, trace, origin, 7) is None

    def test_witness_path_of_an_inconsistent_trace_is_none(self):
        # level 1 holds (t, 5), which no configuration of level 0 steps to
        trace = OracleTrace(Configuration(0, 0), ((1, 0), (0, 1 << 5)), (False, False))
        assert witness_path(COUNTDOWN, trace, Configuration(1, 5), 1) is None


def reference_levels(oca, origin, level_cap, counter_cap):
    """(level, truncated) per level from every path over ``successors``:
    level k holds the ends of length-k paths that never exceed the cap, and
    level k is truncated once some path of at most k steps first exceeds it."""
    out = []
    paths = [[origin]]
    truncated = False
    for _ in range(level_cap + 1):
        truncated = truncated or any(p[-1].counter > counter_cap for p in paths)
        paths = [p for p in paths if p[-1].counter <= counter_cap]
        out.append((frozenset(p[-1] for p in paths), truncated))
        paths = [p + [d] for p in paths for d in successors(oca, p[-1])]
    return out


def reference_witness_path(oca, trace, target, level):
    """``witness_path`` over frozenset levels: walk back through each
    level's configurations in sorted order, taking the first one with a
    transition to the current configuration."""
    if level >= len(trace.levels) or target not in rows_to_set(trace.levels[level]):
        return None
    path = []
    cur = target
    for lv in range(level, 0, -1):
        for cand in sorted(rows_to_set(trace.levels[lv - 1])):
            guard = ZERO if cand.counter == 0 else POS
            hit = next(
                (t for t in oca.outgoing(cand.state, guard)
                 if t.dst == cur.state and cand.counter + t.effect == cur.counter),
                None,
            )
            if hit is not None:
                path.append(hit)
                cur = cand
                break
        else:
            return None
    path.reverse()
    return path


class TestIterLevels:
    """The row steppers, pinned against naive ``successors``."""

    def test_step_rows_matches_successors(self, rng):
        for _ in range(40):
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            configs = {Configuration(rng.randrange(oca.n_states), rng.randint(0, 9))
                       for _ in range(rng.randint(0, 8))}
            want = set()
            for c in configs:
                want |= successors(oca, c)
            got = step_rows(oca, rows_of(configs, oca.n_states))
            assert rows_to_set(got) == want, (configs, oca)

    def test_pre_rows_matches_successors(self, rng):
        # the region mask of caps 0..5, and mask -1 with targets above any cap
        for _ in range(40):
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            cap = rng.randint(0, 5)
            targets = {Configuration(rng.randrange(oca.n_states), rng.randint(0, cap + 1))
                       for _ in range(rng.randint(0, 8))}
            region = [Configuration(s, v) for s in range(oca.n_states)
                      for v in range(cap + 1)]
            got = pre_rows(oca, rows_of(targets, oca.n_states), (2 << cap) - 1)
            assert rows_to_set(got) == {
                c for c in region if successors(oca, c) & targets}, (targets, oca)
            high = {Configuration(s, v + 70) for s, v in targets}
            sources = [Configuration(s, v) for s in range(oca.n_states)
                       for v in range(cap + 73)]
            got = pre_rows(oca, rows_of(high, oca.n_states), -1)
            assert rows_to_set(got) == {
                c for c in sources if successors(oca, c) & high}, (high, oca)

    def test_matches_level_sets_and_path_enumeration(self, rng):
        # caps 0..3 with origins below, at and above the cap; the truncation
        # flags come from the reference's paths that first exceed the cap
        flagged = set()
        for _ in range(12):
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            for counter_cap in range(4):
                for counter in sorted({0, 1, counter_cap, counter_cap + 1, counter_cap + 3}):
                    origin = Configuration(rng.randrange(oca.n_states), counter)
                    for level_cap in (0, 1, 5):
                        lazy = [(rows_to_set(rows), truncated) for rows, truncated
                                in iter_level_rows(oca, origin, level_cap, counter_cap)]
                        trace = level_sets(oca, origin, level_cap, counter_cap)
                        assert lazy == [(rows_to_set(lv), truncated) for lv, truncated
                                        in zip(trace.levels, trace.truncated)]
                        assert lazy == reference_levels(oca, origin, level_cap, counter_cap)
                        flagged.update(truncated for _, truncated in lazy)
        assert flagged == {False, True}

    def test_levels_are_built_on_demand(self, monkeypatch):
        steps = []

        def counting_step(oca, rows):
            steps.append(rows)
            return step_rows(oca, rows)

        monkeypatch.setattr(oca_module, "step_rows", counting_step)
        levels = iter_level_rows(COUNTDOWN, Configuration(0, 2), 10**6, 10)
        assert next(levels) == ((0b100, 0), False)
        assert next(levels) == ((0b10, 0), False)
        assert steps == [(0b100, 0)]

    def test_huge_counter_cap_allocates_no_cap_sized_mask(self):
        oca = random_total_oca(random.Random(5), n_states=3)
        tracemalloc.start()
        try:
            trace = level_sets(oca, Configuration(0, 3), 40, 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(trace.truncated)
        assert peak < 1 << 20, peak

    def test_witness_path_matches_frozenset_version(self, rng):
        for _ in range(30):
            oca = random_total_oca(rng, n_states=rng.randint(1, 4))
            origin = Configuration(rng.randrange(oca.n_states), rng.randint(0, 4))
            counter_cap = rng.choice((3, 6, 50))
            trace = level_sets(oca, origin, 7, counter_cap)
            for depth in (0, 1, 4, 7):
                targets = sorted(rows_to_set(trace.levels[depth]))
                targets += [Configuration(s, v) for s in range(oca.n_states)
                            for v in (0, 5, counter_cap + 1)]
                for target in targets:
                    assert witness_path(oca, trace, target, depth) == \
                        reference_witness_path(oca, trace, target, depth), (target, depth)


class TestFormats:
    def test_text_round_trip(self):
        for name in corpus.names():
            oca = corpus.load(name)
            assert parse_oca_text(oca_to_text(oca)) == oca

    def test_json_round_trip(self):
        for name in corpus.names():
            oca = corpus.load(name)
            assert parse_oca_json(json.loads(json.dumps(oca_to_json(oca)))) == oca

    def test_loads_dispatches_on_shape(self):
        oca = corpus.load("countdown")
        assert loads(oca_to_text(oca)) == oca
        assert loads(json.dumps(oca_to_json(oca))) == oca

    def test_duplicate_transitions_are_merged(self):
        text = corpus.text("countdown") + "s -[>0,-1]-> s\n"
        assert parse_oca_text(text) == COUNTDOWN

    def test_syntax_error_carries_position(self):
        with pytest.raises(OcaSyntaxError) as exc:
            parse_oca_text("states: s\nwhat is this\n")
        assert exc.value.line == 2

    def test_undeclared_state_rejected(self):
        with pytest.raises(OcaSyntaxError):
            parse_oca_text("states: s\ns -[=0,0]-> missing\n")

    def test_parse_configuration(self):
        assert parse_configuration(COUNTDOWN, "s,3") == Configuration(0, 3)
        with pytest.raises(KeyError):
            parse_configuration(COUNTDOWN, "nope,3")
        with pytest.raises(OcaSyntaxError):
            parse_configuration(COUNTDOWN, "s,-1")
        with pytest.raises(OcaSyntaxError, match="^expected 'state,counter', got 's'$"):
            parse_configuration(COUNTDOWN, "s")
