import dataclasses
import math
import random

import pytest

from ocasync import bignum, corpus, mc
from ocasync.errors import BudgetExceededError, InputError, StepCapExceededError, check_budget
from ocasync.formula import (
    TRUE, Kind, atom, au, eu, ex, land, lnot, parse_formula, subformulas, ua, ue,
)
from ocasync.mc import (
    Kripke, KripkeBuilder, Move, _label_mask, check_oca, check_ua_on_kripke,
    check_ue_on_kripke, counter_class, label_kripke, unfold_kripke,
)
from ocasync.oracle import BoundedEvaluator
from ocasync.oca import Configuration, row_bits, successors
from ocasync.periodicity import TpPair
from conftest import mask_of, random_total_oca

COUNTDOWN = corpus.load("countdown")


def label_tree(kripke, f):
    """Every subformula's satisfaction set, as a frozenset of nodes."""
    sat, _ = label_kripke(kripke, f, 0, 500)
    return {g: frozenset(row_bits(m)) for g, m in sat.items()}


class TestUnfold:
    def test_size_formula(self):
        two = corpus.load("asym-fork")
        assert unfold_kripke(two, 1, 1).n == two.n_states * 2
        assert unfold_kripke(COUNTDOWN, 3, 2).n == 10

    def test_wraparound_identifies_congruent_values(self):
        inc = corpus.load("increment-loop")
        k = unfold_kripke(inc, 2, 3)
        # value 4 steps to 5 = t + p, which is congruent to 2 in the window
        assert counter_class(5, 2, 3) == 2
        assert k.image(1 << 4) == 1 << 2

    def test_labels_inherited_from_states(self):
        k = unfold_kripke(COUNTDOWN, 2, 2)
        width = 4
        for name in COUNTDOWN.atoms:
            mask = k.atom_mask(name)
            for node in range(k.n):
                state = node // width
                assert bool(mask >> node & 1) == (name in COUNTDOWN.labels[state])

    def test_edges_commute_with_classing_off_seam(self, rng):
        # for every represented value, stepping then classing equals classing
        # then stepping -- except from the bottom seam class, where a single
        # node cannot imitate both its smallest member and the high ones
        for name in corpus.names():
            oca = corpus.load(name)
            for (t, p) in [(1, 1), (2, 3), (4, 2)]:
                k = unfold_kripke(oca, t, p)
                width = t + p
                for s in range(oca.n_states):
                    for v in range(t + 3 * p + 1):
                        if v >= width and v % p == t % p:
                            continue  # bottom seam
                        node = s * width + counter_class(v, t, p)
                        got = k.image(1 << node)
                        expected = mask_of(
                            d.state * width + counter_class(d.counter, t, p)
                            for d in successors(oca, Configuration(s, v))
                        )
                        assert got == expected, (name, t, p, s, v)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            unfold_kripke(COUNTDOWN, 0, 0)
        with pytest.raises(ValueError):
            unfold_kripke(COUNTDOWN, -1, 2)

    def test_automaton_that_can_block_is_rejected(self):
        from ocasync.oca import Oca, Transition

        def one_state(*transitions):
            return Oca(("s",), frozenset(), (frozenset(),), transitions)

        missing_positive = one_state(Transition(0, "=0", 1, 0))
        with pytest.raises(ValueError, match="total"):
            unfold_kripke(missing_positive, 1, 1)
        # a decrement at zero would leave counter 0 without a successor
        zero_decrement = one_state(Transition(0, "=0", -1, 0), Transition(0, ">0", 0, 0))
        with pytest.raises(ValueError):
            unfold_kripke(zero_decrement, 1, 1)


class TestHandBuilt:
    def test_node_without_successor_is_rejected(self):
        b = KripkeBuilder()
        b.node("a")
        b.node("b")
        b.edge("a", "b")
        with pytest.raises(ValueError, match="total"):
            b.build()

    def test_edge_to_out_of_range_node_is_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Kripke.from_successors(((0,), (2,)), (frozenset(), frozenset()))

    def test_one_label_set_per_node_required(self):
        with pytest.raises(ValueError, match="label"):
            Kripke.from_successors(((0,),), (frozenset(), frozenset()))

    def test_layout_and_names_checked(self):
        with pytest.raises(ValueError, match="need width >= 1"):
            Kripke(0, 0, (), ())
        b = KripkeBuilder()
        b.node("a")
        with pytest.raises(ValueError, match="duplicate node 'a'"):
            b.node("a")

    def test_edges_and_labels_read_back(self):
        k = Kripke.from_successors(((1, 2), (2,), (0, 2)), (
            frozenset({"p"}), frozenset(), frozenset({"p", "q"})))
        assert k.n == 3
        assert [k.image(1 << i) for i in range(3)] == [0b110, 0b100, 0b101]
        assert [k.preimage(1 << i) for i in range(3)] == [0b100, 0b001, 0b111]
        assert (k.atom_mask("p"), k.atom_mask("q"), k.atom_mask("r")) == (0b101, 0b100, 0)


KERNEL_PAIRS = [(0, 1), (1, 1), (7, 1), (0, 5), (2, 3), (4, 2), (12, 10)]


def kernel_automata(rng):
    autos = [corpus.load(name) for name in corpus.names()]
    autos += [random_total_oca(rng, n) for n in (1, 2, 3, 4) for _ in range(3)]
    return autos


def step_cap_error(step_cap):
    return StepCapExceededError(
        "level iteration exceeded its step cap undecided",
        partial_horizon=step_cap, budget=step_cap)


def ue_reference(k, init, sat1, sat2, step_cap):
    """Synchronized UE as it was decided before the distance sequence was
    shared: every call rebuilds its own level and distance sequences, finds
    their first repeated pair in a dict of pairs, and re-tests every earlier
    level at each sat2 hit."""
    levels = [1 << init]
    dist = [sat2]
    seen = {(levels[0], dist[0]): 0}
    scan_until = None
    k_step = 0
    while True:
        if levels[k_step] & sat2:
            if all(levels[j] & sat1 & dist[k_step - j] for j in range(k_step)):
                return (True, k_step, k_step + 1)
        if scan_until is not None and k_step >= scan_until:
            return (False, None, k_step + 1)
        if k_step + 1 > step_cap:
            raise step_cap_error(step_cap)
        levels.append(image_per_move(k, levels[k_step]))
        dist.append(k.preimage(dist[k_step]))
        k_step += 1
        key = (levels[k_step], dist[k_step])
        if scan_until is None:
            if key in seen:
                base = seen[key]
                scan_until = 2 * base + (k_step - base) - 1
            else:
                seen[key] = k_step


def ua_reference(k, init, sat1, sat2, step_cap=None, level=None):
    """Synchronized UA as it was decided before answers were shared: one
    orbit walk per start node, failing on the first revisited level set.
    An answer that needs more than ``step_cap + 1`` iterations raises.
    ``level`` replaces the start level ``1 << init`` when given."""
    if level is None:
        level = 1 << init
    seen = set()
    k_step = 0
    while True:
        if level & ~sat2 == 0:
            res = (True, k_step, k_step + 1)
            break
        if level & ~sat1 or level in seen:
            res = (False, None, k_step + 1)
            break
        seen.add(level)
        level = image_per_move(k, level)
        k_step += 1
    if step_cap is not None and res[2] > step_cap + 1:
        raise step_cap_error(step_cap)
    return res


def image_per_move(k, mask):
    """``Kripke.image`` as it was before the moves were grouped by source
    row: every move extracts its own source row from the whole mask."""
    width, top, wrap = k.width, 1 << k.width, 1 << k.t
    out = 0
    for src, dst, guard, effect in k.moves:
        row = (mask >> src * width) & guard
        if not row:
            continue
        if effect == 1:
            row <<= 1
            if row & top:
                row ^= top
                row |= wrap
        elif effect == -1:
            row >>= 1
        out |= row << dst * width
    return out


def scan_outcome(check, *args):
    """A synchronized check's whole answer, or its step-cap error's fields."""
    try:
        return tuple(check(*args))
    except StepCapExceededError as exc:
        return ("step cap", str(exc), exc.partial_horizon, exc.budget)


def orbit_shape(x, step):
    """(base, period) of the orbit of ``x`` under ``step``."""
    first = {}
    while x not in first:
        first[x] = len(first)
        x = step(x)
    return first[x], len(first) - first[x]


def two_cycles(level_tail, dist_tail):
    """Two structures, all nodes labelled ``p``: a chain of ``level_tail``
    nodes into a 2-cycle with one ``mark`` node, and a chain of
    ``dist_tail`` nodes into a 3-cycle with one ``goal`` node.  From the
    head of the first chain the levels have base ``level_tail`` and period
    2; the distance sets of the goal have base ``dist_tail - 2`` (at least
    0) and period 3.  The second structure adds an edge from the 2-cycle
    into the 3-cycle's chain."""
    def build(link):
        b = KripkeBuilder()
        chains = (("u", level_tail, "a", 2, "mark"), ("t", dist_tail, "b", 3, "goal"))
        for tail, length, cycle, period, mark in chains:
            for i in range(length):
                b.node(f"{tail}{i}", "p")
            for i in range(period):
                b.node(f"{cycle}{i}", "p", *([mark] if i == 0 else []))
        for tail, length, cycle, period, _ in chains:
            path = [f"{tail}{i}" for i in range(length)] + [f"{cycle}0"]
            for src, dst in zip(path, path[1:]):
                b.edge(src, dst)
            for i in range(period):
                b.edge(f"{cycle}{i}", f"{cycle}{(i + 1) % period}")
        if link:
            b.edge("a1", f"t{dist_tail - 1}" if dist_tail else "b0")
        return b.build()
    return build(False), build(True)


def preimage_per_move(k, mask):
    """``Kripke.preimage`` as it was before it read the moves grouped by
    source row: every move extracts its own target row from the whole mask."""
    width, t = k.width, k.t
    row_mask = (1 << width) - 1
    out = 0
    for src, dst, guard, effect in k.moves:
        d = (mask >> dst * width) & row_mask
        if effect == 1:
            d = (d >> 1) | ((d >> t & 1) << (width - 1))
        elif effect == -1:
            d <<= 1
        out |= (d & guard) << src * width
    return out


def grouped_kernel_cases(rng):
    """(structure, masks) pairs for the shift groups: unfoldings, among them
    the benchmark's widest windows, width-1 structures with parallel edges,
    and edges that never fire (guard 0); each mask has every row empty, full
    or random."""
    structures = [unfold_kripke(oca, t, p) for oca in kernel_automata(rng)
                  for t, p in KERNEL_PAIRS + [(42, 40), (62, 60)]]
    structures += [random_kripke(rng, rng.randint(1, 12), parallel=True) for _ in range(20)]
    structures.append(Kripke(1, 0, (
        Move(0, 1, 1, 0), Move(0, 1, 1, 0), Move(0, 2, 0, 0), Move(1, 1, 1, 0),
        Move(1, 0, 0, 0), Move(2, 0, 1, 0), Move(2, 0, 1, 0), Move(2, 2, 1, 0),
    ), (frozenset(),) * 3))
    for k in structures:
        rows, width = len(k.labels), k.width
        full_row = (1 << width) - 1
        masks = [0, k.full_mask] + [1 << i for i in range(k.n)]
        for _ in range(20):
            masks.append(sum(
                rng.choice((0, full_row, rng.getrandbits(width))) << r * width
                for r in range(rows)))
        yield k, masks


def random_kripke(rng, n, parallel=False):
    """A total structure of n nodes with one to three successors each and
    atom ``p`` on about 40% of them; with ``parallel`` a successor may be
    listed twice, which gives parallel edges."""
    pick = rng.choices if parallel else rng.sample
    succ = tuple(
        tuple(sorted(pick(range(n), k=rng.randint(1, min(3, n)))))
        for _ in range(n)
    )
    labels = tuple(frozenset(a for a in ("p",) if rng.random() < 0.4) for _ in range(n))
    return Kripke.from_successors(succ, labels)


def au_reference(k, sat1, sat2):
    """Least fixpoint of A sat1 U sat2, one node at a time."""
    x = sat2
    while True:
        grow = 0
        for i in row_bits(sat1 & ~x):
            if k.image(1 << i) & ~x == 0:
                grow |= 1 << i
        if not grow:
            return x
        x |= grow


def eu_reference(k, sat1, sat2):
    """Least fixpoint of E sat1 U sat2, one node at a time."""
    x = sat2
    while True:
        grow = 0
        for i in row_bits(sat1 & ~x):
            if k.image(1 << i) & x:
                grow |= 1 << i
        if not grow:
            return x
        x |= grow


def naive_successor_masks(oca, t, p):
    """Successor mask of every unfolding node, from ``oca.successors`` of the
    counter value the node's class stands for (class c is value c)."""
    width = t + p
    return [
        mask_of(d.state * width + counter_class(d.counter, t, p)
                for d in successors(oca, Configuration(s, c)))
        for s in range(oca.n_states) for c in range(width)
    ]


def late_witness():
    """A structure, found by random search, where ``p UE goal`` holds at
    nodes 5 and 6 only after their levels have repeated: level bases 3 and
    4 with period 2, distance base 5 with period 2, witnesses 6 and 7."""
    succ = ((2,), (3, 6), (3, 4), (1,), (1, 5), (0, 6), (5,), (6,), (0,))
    p, goal = {0, 1, 4, 5, 6, 8}, {1, 7, 8}
    labels = tuple(frozenset(name for name, nodes in (("p", p), ("goal", goal)) if i in nodes)
                   for i in range(len(succ)))
    return Kripke.from_successors(succ, labels)


def scan_structures(rng):
    """Structures for the synchronized scans: the two trees,
    ``late_witness``, unfoldings, random hand-built structures and
    ``two_cycles`` in both transient orders."""
    structures = [corpus.tree_synchronized()[0], corpus.tree_staggered()[0], late_witness()]
    structures += [unfold_kripke(oca, t, p) for oca in kernel_automata(rng)
                   for t, p in [(0, 1), (2, 3), (4, 2)]]
    structures += [random_kripke(rng, rng.randint(1, 10)) for _ in range(30)]
    for tails in [(0, 0), (4, 1), (1, 4), (3, 3), (0, 5), (5, 0)]:
        structures += two_cycles(*tails)
    return structures


def scan_operands(rng, k):
    """(sat1, sat2) pairs: a random goal under true and under a random
    sat1, and the goal atom under true and under ``p`` where the structure
    has one."""
    pairs = [(sat1, rng.getrandbits(k.n) & rng.getrandbits(k.n))
             for sat1 in (k.full_mask, rng.getrandbits(k.n) | rng.getrandbits(k.n))]
    goal = k.atom_mask("goal")
    if goal:
        pairs += [(k.full_mask, goal), (k.atom_mask("p"), goal)]
    return pairs


class TestUnfoldingKernels:
    def test_kernels_match_successor_lists(self, rng):
        for oca in kernel_automata(rng):
            for t, p in KERNEL_PAIRS:
                k = unfold_kripke(oca, t, p)
                succ = naive_successor_masks(oca, t, p)
                assert len(succ) == k.n
                masks = [0, k.full_mask] + [1 << i for i in range(k.n)]
                masks += [rng.getrandbits(k.n) for _ in range(20)]
                for m in masks:
                    image = 0
                    for i in row_bits(m):
                        image |= succ[i]
                    preimage = mask_of(i for i in range(k.n) if succ[i] & m)
                    assert k.image(m) == image, (oca, t, p, m)
                    assert k.preimage(m) == preimage, (oca, t, p, m)

    def test_grouped_image_matches_the_per_move_loop(self, rng):
        for k, masks in grouped_kernel_cases(rng):
            assert "_shift_groups" not in k.__dict__  # not built before the first call
            for m in masks:
                assert k.image(m) == image_per_move(k, m), (k, m)

    def test_grouped_preimage_matches_the_per_move_loop(self, rng):
        for k, masks in grouped_kernel_cases(rng):
            assert "_shift_groups" not in k.__dict__  # not built before the first call
            for m in masks:
                assert k.preimage(m) == preimage_per_move(k, m), (k, m)

    def test_shared_distance_sequence_matches_reference(self, rng):
        # whole answers or step-cap errors, start nodes in shuffled order, the
        # structure's distance sequence, distance index and image cache shared
        # by every call; a call on a copy shares nothing
        shapes = set()
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                dist_shape = orbit_shape(sat2, k.preimage)
                expect = [ue_reference(k, node, sat1, sat2, full_cap) for node in range(k.n)]
                order = list(range(k.n))
                rng.shuffle(order)
                for node in order:
                    # a cap below the answer's last bound raises, one at it does not
                    last = expect[node][2] - 1
                    for step_cap in (full_cap, max(1, last), max(1, last - 1)):
                        got = scan_outcome(check_ue_on_kripke, k, node, sat1, sat2, step_cap)
                        assert got == scan_outcome(
                            ue_reference, k, node, sat1, sat2, step_cap), (k, node, step_cap)
                    alone = check_ue_on_kripke(dataclasses.replace(k), node, sat1, sat2, full_cap)
                    assert tuple(alone) == expect[node], (k, node)
                    if not expect[node][0]:  # the scan ran to its repeat rule
                        level_shape = orbit_shape(1 << node, k.image)
                        shapes.add((
                            (level_shape[0] > dist_shape[0]) - (level_shape[0] < dist_shape[0]),
                            math.lcm(level_shape[1], dist_shape[1]) > max(
                                level_shape[1], dist_shape[1]),
                        ))
        # level transient longer, distance transient longer, equal; and
        # periods whose lcm is more than their max
        assert {base for base, _ in shapes} == {1, -1, 0}
        assert (1, True) in shapes and (-1, True) in shapes

    def test_shared_ua_memo_matches_reference(self, rng):
        revisits = 0
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                expect = [ua_reference(k, node, sat1, sat2) for node in range(k.n)]
                order = list(range(k.n))
                rng.shuffle(order)
                for node in order:
                    # a cap below the answer's iterations less one raises
                    it = expect[node][2]
                    for step_cap in (full_cap, it - 1, max(0, it - 2)):
                        got = scan_outcome(check_ua_on_kripke, k, node, sat1, sat2, step_cap)
                        assert got == scan_outcome(
                            ua_reference, k, node, sat1, sat2, step_cap), (k, node, step_cap)
                    alone = check_ua_on_kripke(dataclasses.replace(k), node, sat1, sat2)
                    assert tuple(alone) == expect[node]
                for node, (holds, _, it) in enumerate(expect):
                    # a failure whose last level lies inside sat1 is a revisit
                    level = 1 << node
                    for _ in range(it - 1):
                        level = k.image(level)
                    revisits += not holds and level & ~sat1 == 0
        assert revisits > 0

    def test_ua_memo_survives_a_step_cap_error_mid_walk(self, rng):
        # a first call per start node at a cap below its answer raises, most
        # of them while walking levels the memo has not seen; the structure's
        # memo must come out holding answers only, and full-cap calls must be
        # exact
        raised = 0
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                order = list(range(k.n))
                rng.shuffle(order)
                memo = k._ua_memos.setdefault((sat1, sat2), {})  # the dict the calls fill
                for node in order:
                    expect = ua_reference(k, node, sat1, sat2)
                    if expect[2] >= 2:
                        before = dict(memo)
                        step_cap = expect[2] - 2
                        with pytest.raises(StepCapExceededError) as exc:
                            check_ua_on_kripke(k, node, sat1, sat2, step_cap)
                        assert exc.value.partial_horizon == step_cap
                        # what the memo held is kept, and what it gained is
                        # answers, stored as iterations << 1 | holds
                        assert memo.items() >= before.items(), (k, node)
                        for level, got in memo.items():
                            holds, _, it = ua_reference(k, None, sat1, sat2, level=level)
                            assert got == it << 1 | holds, (k, node, level)
                        raised += 1
                    got = check_ua_on_kripke(k, node, sat1, sat2, full_cap)
                    assert tuple(got) == expect, (k, node)
        assert raised > 100

    def test_ue_outside_sat1_stops_at_the_repeat(self, rng):
        # start nodes in neither sat1 nor sat2: the answer is fixed once both
        # orbits have repeated, so the scan ends there, and the structure's
        # distance sequence grows no further than its repeat and the levels'
        checked = shorter = 0
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                dist_base, dist_period = orbit_shape(sat2, k.preimage)
                # the list the calls extend
                dist, _ = k._ue_distances.setdefault(sat2, ([sat2], {sat2: 0}))
                order = list(range(k.n))
                rng.shuffle(order)
                for node in order:
                    if (sat1 | sat2) >> node & 1:
                        continue
                    level_base, level_period = orbit_shape(1 << node, k.image)
                    base = max(level_base, dist_base)
                    period = math.lcm(level_period, dist_period)
                    stop = max(base + period, 2 * base + period - 1)
                    need = max(level_base + level_period, dist_base + dist_period) + 1
                    grown = max(len(dist), need)
                    for step_cap in (full_cap, stop, max(1, stop - 1)):
                        got = scan_outcome(check_ue_on_kripke, k, node, sat1, sat2, step_cap)
                        assert got == scan_outcome(
                            ue_reference, k, node, sat1, sat2, step_cap), (k, node, step_cap)
                        if step_cap == full_cap:
                            assert got == (False, None, stop + 1), (k, node)
                        assert len(dist) <= grown, (k, node, step_cap)
                    checked += 1
                    shorter += need < stop + 1
        assert checked > 100 and shorter > 10

    def test_au_labeling_matches_reference(self, rng):
        structures = [corpus.tree_synchronized()[0], corpus.tree_staggered()[0]]
        structures += [unfold_kripke(oca, t, p) for oca in kernel_automata(rng)
                       for t, p in [(0, 1), (2, 3), (12, 10)]]
        # E-until and A-until share one loop in ``_label_mask``; each is
        # pinned against its own node-at-a-time reference
        until = [(au(atom("a"), atom("b")), au_reference),
                 (eu(atom("a"), atom("b")), eu_reference)]
        grew = {Kind.AU: 0, Kind.EU: 0}
        for k in structures:
            for _ in range(10):
                sat1, sat2 = rng.getrandbits(k.n), rng.getrandbits(k.n)
                sub = {atom("a"): sat1, atom("b"): sat2}
                for f, reference in until:
                    got = _label_mask(k, f, sub)
                    assert got == reference(k, sat1, sat2), (k, f.kind)
                    grew[f.kind] += got != sat2
        assert min(grew.values()) > 100, grew


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of ``Kripke.image`` and ``Kripke.preimage`` calls."""
    calls = {"image": 0, "preimage": 0}
    for name in calls:
        def counted(self, mask, real=getattr(Kripke, name), name=name):
            calls[name] += 1
            return real(self, mask)
        monkeypatch.setattr(Kripke, name, counted)
    return calls


class TestStructureCaches:
    def test_a_repeated_check_reads_the_structure(self, rng, kernel_calls):
        # a second round of calls on one structure makes no image or
        # preimage call and returns the whole answer of a call on a copy
        made = 0
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                for check in (check_ua_on_kripke, check_ue_on_kripke):
                    alone = [check(dataclasses.replace(k), node, sat1, sat2, full_cap)
                             for node in range(k.n)]
                    before = dict(kernel_calls)
                    first = [check(k, node, sat1, sat2, full_cap) for node in range(k.n)]
                    made += kernel_calls != before
                    before = dict(kernel_calls)
                    again = [check(k, node, sat1, sat2, full_cap) for node in range(k.n)]
                    assert kernel_calls == before, (k, check)
                    assert first == again == alone, (k, check)
        assert made > 100

    def test_a_second_operator_with_the_same_operands_reads_the_structure(
        self, rng, kernel_calls
    ):
        # ``!!a`` has a's mask, so the second operator of each formula asks
        # what the first has answered
        pairs = 0
        for k in scan_structures(rng):
            step_cap = 4 * k.n * k.n + 64
            atoms = [TRUE, *map(atom, sorted(set().union(*k.labels)))]
            for op in (ua, ue):
                a, b = rng.choice(atoms), rng.choice(atoms)
                one = op(a, b)
                copy = dataclasses.replace(k)
                before = dict(kernel_calls)
                sat, _ = label_kripke(copy, one, 0, step_cap)
                alone = {name: kernel_calls[name] - before[name] for name in before}
                two = land(one, op(lnot(lnot(a)), b))
                before = dict(kernel_calls)
                got, _ = label_kripke(k, two, 0, step_cap)
                assert {name: kernel_calls[name] - before[name] for name in before} == alone
                assert got[two] == got[one] == sat[one], (k, two)
                pairs += alone["image"] > 0
        assert pairs > 50

    def test_an_error_mid_walk_leaves_answers_only(self, rng, monkeypatch):
        # ``image`` raises after a random number of calls; the structure's UA
        # memo keeps answers only, and later calls on it are exact
        real = Kripke.image
        left = None  # image calls to allow before raising; None allows all

        def failing(self, mask):
            nonlocal left
            if left is not None:
                if not left:
                    raise RuntimeError("injected")
                left -= 1
            return real(self, mask)

        monkeypatch.setattr(Kripke, "image", failing)
        raised = dict.fromkeys((check_ua_on_kripke, check_ue_on_kripke), 0)
        for k in scan_structures(rng):
            full_cap = 4 * k.n * k.n + 64
            for sat1, sat2 in scan_operands(rng, k):
                order = list(range(k.n))
                rng.shuffle(order)
                for node in order:
                    ua_expect = ua_reference(k, node, sat1, sat2)
                    ue_expect = ue_reference(k, node, sat1, sat2, full_cap)
                    for check, expect in ((check_ua_on_kripke, ua_expect),
                                          (check_ue_on_kripke, ue_expect)):
                        left = rng.randrange(expect[2])
                        try:
                            check(k, node, sat1, sat2, full_cap)
                        except RuntimeError:
                            raised[check] += 1
                        left = None
                    for level, got in k._ua_memos[sat1, sat2].items():
                        holds, _, it = ua_reference(k, None, sat1, sat2, level=level)
                        assert got == it << 1 | holds, (k, node, level)
                    assert tuple(check_ua_on_kripke(k, node, sat1, sat2, full_cap)) == ua_expect
                    assert tuple(check_ue_on_kripke(k, node, sat1, sat2, full_cap)) == ue_expect
        assert min(raised.values()) > 100


def label_reference(k, f, root, step_cap):
    """``label_kripke`` with every synchronized check made alone, each on a
    fresh copy of ``k``: no memo, distance sequence or image cache is shared
    between start nodes."""
    sat, witness_k = {}, None
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            check = check_ua_on_kripke if g.kind is Kind.UA else check_ue_on_kripke
            res = [check(dataclasses.replace(k), node, sat[g.children[0]], sat[g.children[1]],
                         step_cap)
                   for node in range(k.n)]
            sat[g] = mask_of(node for node, r in enumerate(res) if r.holds)
            if g == f:
                witness_k = res[root].witness_k
        else:
            sat[g] = _label_mask(k, g, sat)
    return sat, witness_k


def random_sync_formula(rng, atoms, depth):
    """A random formula over ``atoms`` whose top operator is synchronized."""
    def sub(d):
        if d == 0 or rng.random() < 0.25:
            return rng.choice((TRUE, *map(atom, atoms)))
        op = rng.choice((lnot, ex, land, eu, au, ua, ue))
        if op in (lnot, ex):
            return op(sub(d - 1))
        return op(sub(d - 1), sub(d - 1))

    return rng.choice((ua, ue))(sub(depth - 1), sub(depth - 1))


class TestLabelKripke:
    def test_matches_unshared_per_node_checks(self, rng):
        structures = [corpus.tree_synchronized(), corpus.tree_staggered()]
        for oca in kernel_automata(rng):
            for t, p in [(0, 1), (2, 3), (4, 2)]:
                k = unfold_kripke(oca, t, p)
                structures.append((k, rng.randrange(k.n)))
        decided = set()
        for k, root in structures:
            atoms = sorted(set().union(*k.labels))
            step_cap = 4 * k.n * k.n + 64
            for _ in range(6):
                f = random_sync_formula(rng, atoms, 3)
                got = label_kripke(k, f, root, step_cap)
                assert got == label_reference(k, f, root, step_cap), (k, f, root)
                decided.add((f.kind, got[1] is not None))
        assert decided == {(Kind.UA, True), (Kind.UA, False), (Kind.UE, True), (Kind.UE, False)}

    def test_each_ue_operator_keeps_its_own_distance_sequence(self, monkeypatch):
        # two UE operators on one structure whose distance sequences have
        # periods 3 and 2; every start node's whole answer, iterations
        # included, is what a call that shares nothing returns
        answers = []

        def recorded(k, init, sat1, sat2, step_cap):
            res = check_ue_on_kripke(k, init, sat1, sat2, step_cap)
            answers.append((k, init, sat1, sat2, step_cap, tuple(res)))
            return res

        monkeypatch.setattr(mc, "check_ue_on_kripke", recorded)
        f = land(ue(TRUE, atom("goal")), ue(TRUE, atom("mark")))
        structures = two_cycles(4, 1) + two_cycles(1, 4)
        for k in structures:
            label_kripke(k, f, 0, 4 * k.n * k.n + 64)
        assert len(answers) == 2 * sum(k.n for k in structures)
        for k, init, sat1, sat2, step_cap, got in answers:
            assert got == ue_reference(k, init, sat1, sat2, step_cap), (k, init, sat2)

    def test_witness_only_for_a_synchronized_top(self):
        k, root = corpus.tree_synchronized()
        sat, witness_k = label_kripke(k, parse_formula("A true U black"), root, 500)
        assert sat[parse_formula("A true U black")] >> root & 1
        assert witness_k is None


class TestLabelCtl:
    def test_ex_true_is_everything(self):
        k, _ = corpus.tree_synchronized()
        from ocasync.formula import ex

        sat = label_tree(k, ex(TRUE))
        assert sat[ex(TRUE)] == frozenset(range(k.n))

    def test_au_on_both_trees(self):
        f = parse_formula("A true U black")
        for builder in (corpus.tree_synchronized, corpus.tree_staggered):
            k, root = builder()
            assert root in label_tree(k, f)[f]

    def test_eu_separates_the_trees(self):
        f = parse_formula("E white U stripes")
        k, root = corpus.tree_synchronized()
        assert root in label_tree(k, f)[f]
        k2, root2 = corpus.tree_staggered()
        assert root2 not in label_tree(k2, f)[f]

    def test_booleans(self):
        k, _ = corpus.tree_synchronized()
        f = parse_formula("white & !stripes")
        sat = label_tree(k, f)[f]
        for node in range(k.n):
            expect = "white" in k.labels[node] and "stripes" not in k.labels[node]
            assert (node in sat) == expect


class TestSyncChecks:
    def test_synchronized_tree_has_uniform_bound_three(self):
        k, root = corpus.tree_synchronized()
        sat = label_tree(k, TRUE)
        res = check_ua_on_kripke(k, root, k.full_mask, k.atom_mask("black"))
        assert res.holds and res.witness_k == 3

    def test_staggered_tree_never_synchronizes(self):
        k, root = corpus.tree_staggered()
        res = check_ua_on_kripke(k, root, k.full_mask, k.atom_mask("black"))
        assert not res.holds

    def test_init_in_goal_gives_bound_zero(self):
        k, root = corpus.tree_synchronized()
        everything = k.full_mask
        res = check_ua_on_kripke(k, root, everything, everything)
        assert res.holds and res.witness_k == 0
        res2 = check_ue_on_kripke(k, root, everything, everything, 50)
        assert res2.holds and res2.witness_k == 0

    def test_staggered_tree_level_witnesses_at_six(self):
        k, root = corpus.tree_staggered()
        res = check_ue_on_kripke(k, root, k.atom_mask("white"), k.atom_mask("stripes"), 200)
        assert res.holds and res.witness_k == 6

    def test_empty_goal_is_false_for_ue(self):
        k, root = corpus.tree_staggered()
        res = check_ue_on_kripke(k, root, k.full_mask, 0, 200)
        assert not res.holds

    def test_step_cap_below_its_range_rejected(self):
        k, root = corpus.tree_staggered()
        with pytest.raises(ValueError, match="step cap must be at least 1"):
            check_ue_on_kripke(k, root, k.full_mask, 0, 0)
        with pytest.raises(ValueError, match="step cap must be non-negative"):
            check_ua_on_kripke(k, root, k.full_mask, 0, -1)

    def test_step_cap_raises_undecided(self):
        k, root = corpus.tree_staggered()
        with pytest.raises(StepCapExceededError) as exc:
            check_ue_on_kripke(k, root, k.atom_mask("white"), k.atom_mask("stripes"), 3)
        assert exc.value.partial_horizon == 3

    def test_ua_step_cap_raises_undecided(self):
        k, root = corpus.tree_synchronized()
        black = k.atom_mask("black")
        assert check_ua_on_kripke(k, root, k.full_mask, black, 3).witness_k == 3
        with pytest.raises(StepCapExceededError) as exc:
            check_ua_on_kripke(k, root, k.full_mask, black, 2)
        assert exc.value.partial_horizon == 2

    def test_ua_step_cap_counts_through_memo_hits(self):
        k, root = corpus.tree_synchronized()
        black = k.atom_mask("black")
        assert check_ua_on_kripke(k, root, k.full_mask, black).witness_k == 3
        # the root's answer is now a hit in the structure's memo, and its
        # bound of 3 still needs more than two steps
        assert k._ua_memos[k.full_mask, black][1 << root] == 4 << 1 | 1
        with pytest.raises(StepCapExceededError) as exc:
            check_ua_on_kripke(k, root, k.full_mask, black, 2)
        assert exc.value.partial_horizon == 2

    def test_ua_termination_without_cap_on_fuzzed_structures(self, rng):
        for _ in range(60):
            n = rng.randint(1, 10)
            k = random_kripke(rng, n)
            res = check_ua_on_kripke(k, rng.randrange(n), k.full_mask, k.atom_mask("p"))
            assert res.iterations <= 2**n + 1

    def test_sync_implies_plain_until_on_trees(self):
        for builder in (corpus.tree_synchronized, corpus.tree_staggered):
            k, _ = builder()
            for a, b in [(TRUE, atom("black")), (atom("white"), atom("stripes"))]:
                sat = label_tree(k, au(a, b))
                sat.update(label_tree(k, ua(a, b)))
                sat.update(label_tree(k, eu(a, b)))
                sat.update(label_tree(k, ue(a, b)))
                assert sat[ua(a, b)] <= sat[au(a, b)]
                assert sat[eu(a, b)] <= sat[ue(a, b)]


class TestCheckOca:
    def test_countdown_synchronized_eventually(self):
        res = check_oca(COUNTDOWN, parse_formula("FA p"), Configuration(0, 2))
        assert res.holds and res.witness_k == 3
        assert res.caveats  # empirical mode always carries one

    def test_true_yields_full_satisfaction_sets(self):
        res = check_oca(COUNTDOWN, TRUE, Configuration(0, 0))
        assert res.holds
        for u in res.per_state.values():
            assert all(u.member(v) for v in range(40))

    def test_asymmetric_fork_separates_until_flavors(self):
        af = corpus.load("asym-fork")
        init = Configuration(0, 1)
        assert check_oca(af, parse_formula("A true U p"), init).holds
        assert not check_oca(af, parse_formula("FA p"), init).holds

    def test_supplied_mode_uses_given_pair(self):
        res = check_oca(
            COUNTDOWN, parse_formula("EX p"), Configuration(0, 1),
            "supplied", supplied=TpPair(1, 1),
        )
        assert not res.holds
        assert res.constants_used["t"] == 1 and res.constants_used["p"] == 1
        res0 = check_oca(
            COUNTDOWN, parse_formula("EX p"), Configuration(0, 0),
            "supplied", supplied=TpPair(1, 1),
        )
        assert res0.holds

    def test_paper_mode_ctl_formula(self):
        res = check_oca(COUNTDOWN, parse_formula("EX p"), Configuration(0, 0), "paper")
        assert res.holds
        assert res.constants_used["p"] == 2  # K = lcm(1,2)

    def test_paper_mode_ua_exceeds_any_reasonable_budget(self):
        af = corpus.load("asym-fork")
        with pytest.raises(BudgetExceededError) as exc:
            check_oca(af, parse_formula("FA p"), Configuration(0, 0), "paper")
        assert exc.value.required is not None

    def test_paper_mode_rejects_ue(self):
        af = corpus.load("asym-fork")
        with pytest.raises(ValueError):
            check_oca(af, parse_formula("true UE p"), Configuration(0, 0), "paper")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_oca(COUNTDOWN, TRUE, Configuration(0, 0), "psychic")

    def test_invalid_automaton_rejected(self):
        from ocasync.oca import Oca, Transition

        broken = Oca(("s",), frozenset({"p"}), (frozenset(),),
                     (Transition(0, "=0", 0, 0),))
        with pytest.raises(ValueError):
            check_oca(broken, TRUE, Configuration(0, 0))

    def test_unbound_atoms_rejected(self):
        with pytest.raises(ValueError):
            check_oca(COUNTDOWN, atom("nosuch"), Configuration(0, 0))

    def test_deterministic_results(self):
        a = check_oca(COUNTDOWN, parse_formula("FA p"), Configuration(0, 2))
        b = check_oca(COUNTDOWN, parse_formula("FA p"), Configuration(0, 2))
        assert a.to_json() == b.to_json()

    def test_per_state_sets_match_init_verdicts(self):
        fork = corpus.load("fork")
        f = parse_formula("E true U p")
        res = check_oca(fork, f, Configuration(0, 0))
        for v in range(10):
            again = check_oca(fork, f, Configuration(0, v))
            assert again.holds == res.per_state["s"].member(v)


class TestCheckBudget:
    def test_default_budget_comes_from_the_environment(self, monkeypatch):
        monkeypatch.delenv("OCASYNC_BUDGET", raising=False)
        check_budget("x needs", 10**6, "units")
        with pytest.raises(BudgetExceededError) as exc:
            check_budget("x needs", 10**6 + 1, "units")
        assert (exc.value.required, exc.value.budget) == (10**6 + 1, 10**6)
        monkeypatch.setenv("OCASYNC_BUDGET", "10")
        check_budget("x needs", 10, "units")
        with pytest.raises(BudgetExceededError) as exc:
            check_budget("x needs", 11, "units")
        assert str(exc.value) == "x needs 11 units, over the budget of 10"
        assert (exc.value.required, exc.value.budget) == (11, 10)

    @pytest.mark.parametrize("value", ["abc", "1e6", "10.5", "-5"])
    def test_malformed_environment_budget_is_an_input_error(self, monkeypatch, value):
        monkeypatch.setenv("OCASYNC_BUDGET", value)
        with pytest.raises(InputError) as exc:
            check_budget("x needs", 1, "units")
        assert str(exc.value) == f"OCASYNC_BUDGET must be a non-negative integer, not {value!r}"
        check_budget("x needs", 1, "units", 1)  # an explicit budget never reads it

    def test_explicit_budget_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("OCASYNC_BUDGET", "5")
        check_budget("x needs", 8, "units", 8)
        with pytest.raises(BudgetExceededError) as exc:
            check_budget("x needs", 8, "units", 7)
        assert (exc.value.required, exc.value.budget) == (8, 7)

    def test_symbolic_requirement_is_always_over(self):
        huge = bignum.lcm_range(bignum.MATERIALIZE_LIMIT + 1)
        assert bignum.is_symbolic(huge)
        with pytest.raises(BudgetExceededError) as exc:
            check_budget("unfolding needs", huge, "nodes", 10**9)
        assert exc.value.required == huge.to_json()

    def test_oracle_region_over_256_bits_reports_a_bigint_summary(self, monkeypatch):
        # two states at counter cap 2^256: 2^257 + 2 configurations
        monkeypatch.delenv("OCASYNC_BUDGET", raising=False)
        with pytest.raises(BudgetExceededError) as exc:
            BoundedEvaluator(COUNTDOWN, 2**256, 1)
        required = 2**257 + 2
        summary = {"kind": "bigint", "bits": 258, "decimal_prefix": str(required)[:24]}
        assert exc.value.required == summary
        assert str(exc.value) == (
            f"oracle region needs {summary} configurations, over the budget of 1000000"
        )


class TestWitnessReporting:
    def test_wrapped_initial_counter_suppresses_witness(self):
        res = check_oca(COUNTDOWN, parse_formula("FA p"), Configuration(0, 9))
        assert res.holds
        assert res.witness_k is None
        assert any("wrapped" in c for c in res.caveats)

    def test_exact_initial_counters_report_true_bounds(self):
        # within the exact window the quotient's levels track the real ones
        for v in (0, 1, 2):
            res = check_oca(COUNTDOWN, parse_formula("FA p"), Configuration(0, v))
            assert res.holds and res.witness_k == v + 1
