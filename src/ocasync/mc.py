"""Finite-structure model checking and the counter-automaton reduction.

The pipeline: compute a threshold/period pair for every subformula (from the
constant recursion, a user-supplied pair, or oracle mining), unfold the
automaton into a finite Kripke structure that keeps low counters exact and
wraps high ones onto residue classes, label plain operators by fixpoints
(E-until and A-until are one least-fixpoint loop, over the existential or
the universal predecessor), decide the synchronized operators by level-set
iteration, and read the per-state satisfaction sets back as ultimately
periodic sets.
``cross_check`` runs that procedure against the bounded oracle, which
imports nothing from this module.

``label_kripke`` labels unfoldings and hand-built structures alike.  Its
synchronized checks run once per start node but share their level-set work
through three caches that the ``Kripke`` structure keeps, keyed by what their
answers depend on: UA answers per level set, under ``(sat1, sat2)``; UE's
distance sequence up to its repeat, with each node's first position in it,
under ``sat2``; and the shapes (tail and period) of level orbits, under the
level set.  Every call on the structure reads and extends them, standalone
calls too, and they live as long as the structure.  Along a walked path the
two level-set caches keep one level in ``_STRIDE``, besides cycle levels
(and UA's decided ones), so they hold about one mask per ``_STRIDE`` levels
walked, and a walk that merges into an older orbit re-walks fewer than
``_STRIDE`` levels before it meets an entry.  UE answers a start node in
sat1 at its first position in the distance sequence when that bound holds,
which it always does when sat1 is every node; otherwise it reads where the
(level, distance) pair repeats off the two sequences' shapes (base = max of
the bases, period = lcm of the periods) and scans on to the stop.  From a
start node outside sat1 and sat2 no bound past 0 can hold, so UE answers
from the shapes alone.

Every ``Kripke`` structure, unfolded or hand-built, is one layout: rows of
``width`` counter classes, with a row's edges given by ``Move``s that act on
the whole row at once.  A move therefore shifts every node its guard admits
by one fixed amount (a +1 step from the top class, which wraps, by
another), and ``image`` and ``preimage`` read the moves grouped by amount,
built once per structure on the first call of either:
``image`` is the OR of each group's nodes of a set shifted by its amount,
and ``preimage`` the OR of the set shifted back, on each group's nodes.
Node sets are bitmasks over that layout throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import bignum, errors, oracle, upset
from .errors import BudgetExceededError, InputError, StepCapExceededError, UncoveredOperatorError
from .formula import Formula, Kind, formula_atoms, pretty, subformulas
from .oca import Configuration, Oca, ZERO, require_valid
from .oracle import DEFAULT_CAPS, BoundedEvaluator, Verdict
from .periodicity import ConstantBundle, TpPair, ctl_constants, ua_constants, uniform_pair
from .upset import UpSet


class SyncCheck(NamedTuple):
    holds: bool
    witness_k: int | None
    iterations: int


class Move(NamedTuple):
    """One edge family acting on whole rows: from row ``src`` to row ``dst``,
    the classes in ``guard_mask`` step by ``effect``.

    In an unfolding each automaton transition is one move, with guard bit 0
    for ``=0`` and bits 1..width-1 for ``>0``.  At width 1 a row is a single
    node, so guard 1 is a plain edge and guard 0 an edge that never fires.
    """

    src: int
    dst: int
    guard_mask: int
    effect: int


@dataclass(frozen=True)
class Kripke:
    """Finite total transition structure laid out in rows of counter classes.

    Node ``r * width + c`` is row ``r`` at class ``c``; in an unfolding a row
    is an automaton state and a class a counter value, and counter ``width``
    wraps back to class ``t``.  Every node of a row carries the row's labels.
    Hand-built structures (``from_successors``) have one node per row.
    """

    width: int
    t: int
    moves: tuple[Move, ...]
    labels: tuple[frozenset[str], ...]  # one label set per row

    def __post_init__(self):
        rows, width = len(self.labels), self.width
        if width < 1 or not 0 <= self.t < width:
            raise ValueError("need width >= 1 and 0 <= t < width")
        row_mask = (1 << width) - 1
        covered = [0] * rows
        for m in self.moves:
            if not (0 <= m.src < rows and 0 <= m.dst < rows):
                raise ValueError(f"{m} references an out-of-range row")
            if m.guard_mask & ~row_mask or m.effect not in (-1, 0, 1) or (
                m.effect == -1 and m.guard_mask & 1
            ):
                raise ValueError(f"{m} leaves its row")
            covered[m.src] |= m.guard_mask
        for r, guards in enumerate(covered):
            if guards != row_mask:
                raise ValueError(f"row {r} has a node with no successor; structure must be total")

    @classmethod
    def from_successors(cls, successors, labels) -> Kripke:
        """Hand-built structure: node ``i`` has atoms ``labels[i]`` and an
        edge to each node of ``successors[i]``."""
        if len(successors) != len(labels):
            raise ValueError("one label set per node required")
        moves = tuple(Move(i, j, 1, 0) for i, succ in enumerate(successors) for j in succ)
        return cls(1, 0, moves, tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels) * self.width

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def atom_mask(self, name: str) -> int:
        width = self.width
        row_mask = (1 << width) - 1
        m = 0
        for r, lab in enumerate(self.labels):
            if name in lab:
                m |= row_mask << r * width
        return m

    @cached_property
    def _shift_groups(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """What ``image`` and ``preimage`` read, built on the first call of
        either.  A move shifts every node its guard admits by one fixed
        amount, ``(dst - src) * width + effect``, except that a +1 step from
        the top class wraps to class ``t``, a shift of ``(dst - src) * width
        - (width - 1) + t``.  The guards, over the whole structure, of all
        moves with one amount are ORed, and the groups are split into
        ``(guard, amount)`` pairs for left shifts and for right shifts."""
        width, t = self.width, self.t
        top = 1 << (width - 1)
        groups: dict[int, int] = {}
        for src, dst, guard, effect in self.moves:
            shift = (dst - src) * width + effect
            if effect == 1 and guard & top:
                wrap = shift - width + t
                groups[wrap] = groups.get(wrap, 0) | top << src * width
                guard ^= top
            if guard:
                groups[shift] = groups.get(shift, 0) | guard << src * width
        return (tuple((g, d) for d, g in groups.items() if d >= 0),
                tuple((g, -d) for d, g in groups.items() if d < 0))

    @cached_property
    def _level_shapes(self) -> dict[int, int]:
        """The shape of the level orbit from a mask, keyed by the mask and
        packed as ``tail * _PERIODS + period``; UE stores it for every cycle
        mask and for every tail mask whose tail is a multiple of
        ``_STRIDE``."""
        return {}

    @cached_property
    def _ue_distances(self) -> dict[int, _Distances]:
        """UE's exact-distance sequence, keyed by ``sat2``."""
        return {}

    @cached_property
    def _ua_memos(self) -> dict[tuple[int, int], dict[int, int]]:
        """UA's answer per level mask, keyed by ``(sat1, sat2)``."""
        return {}

    def image(self, mask: int) -> int:
        """Nodes with a predecessor in ``mask``: each group's nodes of
        ``mask``, shifted by the group's amount.  Level sets are mostly
        sparse, so a group that keeps no node is not shifted."""
        left, right = self._shift_groups
        out = 0
        for guard, d in left:
            r = mask & guard
            if r:
                out |= r << d
        for guard, d in right:
            r = mask & guard
            if r:
                out |= r >> d
        return out

    def preimage(self, mask: int) -> int:
        """Nodes with a successor in ``mask``: ``mask`` shifted back by each
        group's amount, on the nodes its guard admits."""
        left, right = self._shift_groups
        out = 0
        for guard, d in left:
            out |= mask >> d & guard
        for guard, d in right:
            out |= mask << d & guard
        return out


class KripkeBuilder:
    """Convenience builder for hand-made structures."""

    def __init__(self):
        self._succ: list[list[int]] = []
        self._labels: list[frozenset[str]] = []
        self._names: dict[str, int] = {}

    def node(self, name: str, *atoms: str) -> int:
        if name in self._names:
            raise ValueError(f"duplicate node {name!r}")
        self._names[name] = len(self._succ)
        self._succ.append([])
        self._labels.append(frozenset(atoms))
        return self._names[name]

    def edge(self, src: str, dst: str) -> None:
        self._succ[self._names[src]].append(self._names[dst])

    def build(self) -> Kripke:
        return Kripke.from_successors(self._succ, self._labels)

    def __getitem__(self, name: str) -> int:
        return self._names[name]


# ---------------------------------------------------------------------------
# Unfolding

def counter_class(v: int, t: int, p: int) -> int:
    """Identify high counters with their congruent representative in [t, t+p)."""
    return v if v < t + p else t + ((v - t) % p)


def unfold_kripke(oca: Oca, t: int, p: int) -> Kripke:
    """Finite quotient with |states| * (t + p) nodes: counters below t + p are
    kept exact and the step out of the top of the window wraps back to t.
    Raises ``ValueError`` if some configuration of the automaton has no
    successor."""
    if p < 1 or t < 0:
        raise ValueError("need t >= 0 and p >= 1")
    width = t + p
    row_mask = (1 << width) - 1
    moves = tuple(
        Move(tr.src, tr.dst, 1 if tr.guard == ZERO else row_mask ^ 1, tr.effect)
        for tr in oca.transitions
    )
    return Kripke(width, t, moves, oca.labels)


# ---------------------------------------------------------------------------
# Plain-operator labeling

def _label_mask(k: Kripke, f: Formula, sub: dict[Formula, int]) -> int:
    full = k.full_mask
    if f.kind is Kind.TRUE:
        return full
    if f.kind is Kind.ATOM:
        return k.atom_mask(f.name)
    if f.kind is Kind.NOT:
        return full & ~sub[f.children[0]]
    if f.kind is Kind.AND:
        return sub[f.children[0]] & sub[f.children[1]]
    if f.kind is Kind.EX:
        return k.preimage(sub[f.children[0]])
    if f.kind in (Kind.EU, Kind.AU):
        # one least fixpoint, over the existential or the universal predecessor
        sat1, x = sub[f.children[0]], sub[f.children[1]]
        while True:
            pre = k.preimage(x) if f.kind is Kind.EU else ~k.preimage(full & ~x)
            nxt = x | (sat1 & pre)
            if nxt == x:
                return x
            x = nxt
    raise ValueError(f"{f.kind} is not labeled by fixpoints")


# ---------------------------------------------------------------------------
# Synchronized operators

_STRIDE = 8  # a walked path keeps one level-set cache entry per this many levels
_PERIODS = 1 << 64  # a packed orbit shape is tail * _PERIODS + period


def _step_cap_exceeded(step_cap: int) -> StepCapExceededError:
    """The error for a level iteration whose answer needs more than
    ``step_cap + 1`` iterations: it stays undecided at horizon ``step_cap``."""
    return StepCapExceededError(
        "level iteration exceeded its step cap undecided",
        partial_horizon=step_cap, budget=step_cap,
    )


def check_ua_on_kripke(
    k: Kripke, init: int, sat1: int, sat2: int, step_cap: int | None = None
) -> SyncCheck:
    """Does some single bound make every path of that length end in sat2 with
    sat1 everywhere before?  Exact on total structures; terminates without a
    step cap because the level-set orbit must repeat.

    The answer from a level set depends on the set alone: bound 0 inside
    sat2, failure outside sat1 or on a revisited set, else the answer at its
    image one step later.  ``k`` keeps one memo per ``(sat1, sat2)`` that
    maps level masks to their answers, each stored as ``iterations << 1 |
    holds`` (a bound that holds is always ``iterations - 1``).  A call walks
    until a memo hit or a decided level, keeping the walk's positions to
    itself.  It then records the answer of every cycle level and decided
    level it met, and of every walked level whose iteration count is a
    multiple of ``_STRIDE``: along a walked path the counts fall by one per
    level down to a recorded answer, so a later walk that merges into it
    meets a recorded level within ``_STRIDE`` levels.  An answer that needs
    more than ``step_cap + 1`` iterations raises ``StepCapExceededError``,
    whether walked or read from the memo; a walk that the cap cuts short
    records nothing, so every recorded answer is exact.
    """
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be non-negative")
    memo = k._ua_memos.setdefault((sat1, sat2), {})
    path: list[int] = []  # walked levels without an answer yet, in orbit order
    on_path: dict[int, int] = {}  # each walked level's position in path
    full = k.full_mask
    not_sat1, not_sat2 = full & ~sat1, full & ~sat2
    level = 1 << init
    while True:
        res = memo.get(level)
        if res is not None:
            break
        pos = len(path)
        first = on_path.setdefault(level, pos)
        if first < pos:
            # the levels from the first visit on form a cycle of length c,
            # and each fails after c + 1 iterations
            res = (pos - first + 1) << 1
            for lv in path[first:]:
                memo[lv] = res
            del path[first:]
            break
        if not level & not_sat2:
            res = memo[level] = 1 << 1 | 1
            break
        if level & not_sat1:
            res = memo[level] = 1 << 1
            break
        if step_cap is not None and pos + 1 > step_cap:
            raise _step_cap_exceeded(step_cap)
        path.append(level)
        level = k.image(level)
    for lv in reversed(path):
        res += 2  # one more iteration
        if not (res >> 1) % _STRIDE:
            memo[lv] = res
    iterations = res >> 1
    if step_cap is not None and iterations > step_cap + 1:
        raise _step_cap_exceeded(step_cap)
    if res & 1:
        return SyncCheck(True, iterations - 1, iterations)
    return SyncCheck(False, None, iterations)


class _Distances:
    """UE's exact-distance sequence for one ``sat2``: ``masks[d]`` holds the
    nodes that reach sat2 in exactly d steps, listed up to the sequence's
    repeat and no further, ``repeat`` is its ``(base, period)`` once seen,
    and ``first`` maps each node to its least position d >= 1 in it."""

    def __init__(self, sat2: int):
        self.masks = [sat2]
        self.index = {sat2: 0}  # each mask's position
        self.first: dict[int, int] = {}
        self.seen = 0  # the nodes in ``first``
        self.repeat: tuple[int, int] | None = None

    def extend(self, k: Kripke, last: int) -> None:
        """Grow the sequence to its repeat, or to position ``last`` if the
        repeat lies further."""
        masks = self.masks
        while self.repeat is None and len(masks) <= last:
            d = k.preimage(masks[-1])
            pos = self.index.setdefault(d, len(masks))
            if pos < len(masks):
                self.repeat = (pos, len(masks) - pos)
                return
            masks.append(d)
            new = d & ~self.seen
            self.seen |= d
            while new:
                low = new & -new
                self.first[low.bit_length() - 1] = pos
                new ^= low

    def at(self, d: int) -> int:
        """The nodes that reach sat2 in exactly ``d`` steps; ``d`` lies
        inside the list or the repeat is known."""
        masks = self.masks
        if d < len(masks):
            return masks[d]
        base, period = self.repeat
        return masks[base + (d - base) % period]


def _level_shape(k: Kripke, level: int, step_cap: int) -> tuple[int, int] | None:
    """``(tail, period)`` of the level orbit from ``level``, or None if it
    repeats only after ``step_cap + 1`` levels.

    The walk stops at the first mask with a stored shape or at a revisit on
    its own path, and then stores the shape of every cycle mask it found and
    of every walked mask whose tail is a multiple of ``_STRIDE``.  Tails
    fall by one per level down to the cycle, so a later walk that merges
    into this orbit meets a stored mask within ``_STRIDE`` levels."""
    shapes = k._level_shapes
    path: list[int] = []  # walked masks without a shape yet, in orbit order
    on_path: dict[int, int] = {}  # each walked mask's position in path
    while True:
        shape = shapes.get(level)
        if shape is not None:
            tail, period = divmod(shape, _PERIODS)
            break
        pos = len(path)
        first = on_path.setdefault(level, pos)
        if first < pos:
            tail, period = 0, pos - first
            for lv in path[first:]:
                shapes[lv] = period
            del path[first:]
            break
        if pos >= step_cap:
            return None
        path.append(level)
        level = k.image(level)
    for lv in reversed(path):
        tail += 1
        if not tail % _STRIDE:
            shapes[lv] = tail * _PERIODS + period
    return tail, period


def check_ue_on_kripke(
    k: Kripke, init: int, sat1: int, sat2: int, step_cap: int
) -> SyncCheck:
    """Does some single bound admit, for every earlier level, a sat1 node of
    that level from which sat2 is reachable in exactly the remaining steps?

    Bound K holds iff every level j < K meets ``sat1 & dist[K - j]``, where
    ``dist[d]`` holds the nodes reaching sat2 in exactly d steps.  The start
    level (j = 0) is tested first, and the other levels only for a bound
    that passes it.  Level K is not tested against sat2: a start node in
    ``dist[K]`` has a path of exactly K steps into sat2, and that path ends
    in level K.

    So no bound lies below the start node's first hit, its least position
    K >= 1 in ``dist``, and that bound is tested first.  When sat1 is the
    full mask it holds: the path of K steps into sat2 passes through every
    level j at a node of ``dist[K - j]``.  The first hit also lies before
    the scan's stop (below): ``dist`` repeats with some base and period, so
    a node outside sat2 that has a hit has one below their sum.  Only when
    the first hit fails does the call read the level orbit's shape and scan
    on to the stop.

    The levels and the exact-distance sets are orbits of deterministic maps
    (``k.image`` and ``k.preimage``): each runs through a tail into a cycle.
    The pair of them first repeats at base = max(level tail, distance base)
    with period = lcm(level period, distance period), since both must be on
    their cycles and a shift must be a multiple of both periods.  From the
    repeat on the predicate is determined by the cycle, so the scan stops at
    twice the base plus one period less one, or at the repeat if that is
    later.  From a start node outside sat1 no bound past 0 can hold, so that
    answer is read off the two shapes.  An orbit that repeats only after
    ``step_cap + 1`` levels puts the stop past the cap.

    What does not depend on ``init`` is kept on ``k``: per ``sat2`` the
    distance sequence with its repeat and first-hit index (``_Distances``),
    and per level mask the shapes ``_level_shape`` stores.  The levels that
    test a bound are walked by ``k.image`` for this call alone.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    level = 1 << init
    if level & sat2:
        return SyncCheck(True, 0, 1)
    dist = k._ue_distances.get(sat2)
    if dist is None:
        dist = k._ue_distances[sat2] = _Distances(sat2)
    dist.extend(k, step_cap)
    hit = dist.first.get(init) if level & sat1 else None
    levels = [level]

    def holds(bound: int) -> bool:
        if not level & dist.at(bound):
            return False
        while len(levels) < bound:
            levels.append(k.image(levels[-1]))
        return all(levels[j] & sat1 & dist.at(bound - j) for j in range(1, bound))

    if hit is not None:
        if hit > step_cap:
            raise _step_cap_exceeded(step_cap)
        if sat1 == k.full_mask or holds(hit):
            return SyncCheck(True, hit, hit + 1)
    shape = _level_shape(k, level, step_cap)
    stop = math.inf
    if shape is not None and dist.repeat is not None:
        (level_base, level_period), (dist_base, dist_period) = shape, dist.repeat
        base = max(level_base, dist_base)
        period = math.lcm(level_period, dist_period)
        stop = max(base + period, 2 * base + period - 1)
    if hit is not None:
        for bound in range(hit + 1, min(stop, step_cap) + 1):
            if holds(bound):
                return SyncCheck(True, bound, bound + 1)
    if stop > step_cap:
        raise _step_cap_exceeded(step_cap)
    return SyncCheck(False, None, stop + 1)


def label_kripke(
    k: Kripke, f: Formula, root: int, step_cap: int
) -> tuple[dict[Formula, int], int | None]:
    """The satisfaction mask of every subformula of ``f``, and the shared
    bound of ``f`` at node ``root`` (None unless ``f`` is synchronized and
    holds there); each synchronized check is capped at ``step_cap`` steps.
    The checks of one operator share their level-set work through what
    ``k`` keeps, so this builds no cache of its own."""
    sat: dict[Formula, int] = {}
    witness_k = None
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            check = check_ua_on_kripke if g.kind is Kind.UA else check_ue_on_kripke
            sat1, sat2 = sat[g.children[0]], sat[g.children[1]]
            mask = 0
            for node in range(k.n):
                res = check(k, node, sat1, sat2, step_cap)
                if res.holds:
                    mask |= 1 << node
                if node == root and g == f:
                    witness_k = res.witness_k
            sat[g] = mask
        else:
            sat[g] = _label_mask(k, g, sat)
    return sat, witness_k


# ---------------------------------------------------------------------------
# End-to-end check

@dataclass
class CheckResult:
    holds: bool
    witness_k: int | None
    per_state: dict[str, UpSet]
    constants_used: dict
    caveats: list[str]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witnessK": self.witness_k,
            "perState": {s: u.to_json() for s, u in sorted(self.per_state.items())},
            "constantsUsed": self.constants_used,
            "caveats": self.caveats,
        }


def paper_pairs(
    oca: Oca, f: Formula, b_override: int | None
) -> tuple[dict[Formula, TpPair], ConstantBundle | None]:
    """Threshold/period pairs of every subformula from the constant
    recursion, in subformula order, and the bundle of the last UA
    subformula (None if there is none).  The recursion has no UE case."""
    pairs: dict[Formula, TpPair] = {}
    bundle = None
    for g in subformulas(f):
        if g.kind is Kind.UE:
            raise UncoveredOperatorError(
                "the constant recursion covers only the all-paths synchronized "
                "operator; use supplied or empirical mode for UE"
            )
        if g.kind is Kind.UA:
            prev = uniform_pair(pairs[c] for c in g.children)
            bundle = ua_constants(
                oca.n_states, prev_t=prev.t, prev_p=prev.p, b_override=b_override
            )
            pairs[g] = bundle.pair
        else:
            pairs[g] = ctl_constants(g.kind, [pairs[c] for c in g.children], oca.n_states)
    return pairs, bundle


def _mined_pairs(
    oca: Oca, f: Formula, caps: tuple[int, int], mine_v_cap: int | None,
    evaluator: BoundedEvaluator | None = None,
) -> tuple[dict[Formula, TpPair], list[str]]:
    counter_cap, level_cap = caps
    v_cap = mine_v_cap if mine_v_cap is not None else counter_cap // 2
    if evaluator is None or evaluator.oca is not oca or (
        evaluator.counter_cap, evaluator.level_cap
    ) != (counter_cap, level_cap):
        evaluator = BoundedEvaluator(oca, counter_cap, level_cap)
    pairs: dict[Formula, TpPair] = {}
    caveats = [f"constants mined empirically on counters 0..{v_cap}; no derived soundness"]
    for g in subformulas(f):
        per_state = []
        for s in range(oca.n_states):
            pair, _table = oracle.mine_period(oca, g, s, v_cap, caps, evaluator=evaluator,
                                               full_row=False)
            if pair is None:
                raise BudgetExceededError(
                    f"no periodic pattern certified for {pretty(g)!r} at state "
                    f"{oca.state_names[s]} within counters 0..{v_cap}; "
                    "raise the caps or supply a pair",
                    required=None, budget=v_cap,
                )
            per_state.append(pair)
        pairs[g] = uniform_pair(per_state)
    return pairs, caveats


def require_atoms(oca: Oca, f: Formula) -> None:
    """Raise ``InputError`` if ``f`` uses an atom ``oca`` does not declare."""
    unbound = formula_atoms(f) - oca.atoms
    if unbound:
        raise InputError(f"formula uses undeclared atoms {sorted(unbound)}")


def check_oca(
    oca: Oca,
    f: Formula,
    init: Configuration,
    mode: str = "empirical",
    *,
    supplied: TpPair | None = None,
    caps: tuple[int, int] = DEFAULT_CAPS,
    b_override: int | None = None,
    node_budget: int | None = None,
    mine_v_cap: int | None = None,
    evaluator: BoundedEvaluator | None = None,
) -> CheckResult:
    """Decide the formula at an initial configuration by reduction to a finite
    structure, and report the per-state satisfaction sets.

    Modes: ``paper`` derives threshold/period pairs from the constant
    recursion (exact, usually astronomically large); ``supplied`` trusts a
    user pair; ``empirical`` mines pairs with the bounded oracle and carries a
    caveat, since sampled periodicity proves nothing beyond the sample.
    Empirical mining reuses ``evaluator`` (a ``BoundedEvaluator``) when it
    was built for this automaton at these caps.
    """
    require_valid(oca)
    require_atoms(oca, f)
    caveats: list[str] = []
    if mode == "paper":
        pairs, _ = paper_pairs(oca, f, b_override)
    elif mode == "supplied":
        if supplied is None:
            raise InputError("supplied mode needs a threshold/period pair")
        if supplied.p < 1 or supplied.t < 0:
            raise InputError("supplied pair must have t >= 0 and p >= 1")
        pairs = {g: supplied for g in subformulas(f)}
        caveats.append("threshold/period pair supplied by caller; not validated here")
    elif mode == "empirical":
        pairs, caveats = _mined_pairs(oca, f, caps, mine_v_cap, evaluator)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # uniformize across subformulas, then pad the threshold so the bottom of
    # the residue window sits strictly inside the periodic region
    t_uniform, p_uniform = uniform_pair(pairs.values())
    t_eff = t_uniform + 2
    errors.check_budget("unfolding needs", oca.n_states * (t_eff + p_uniform), "nodes", node_budget)

    kripke = unfold_kripke(oca, t_eff, p_uniform)
    width = t_eff + p_uniform
    init_node = init.state * width + counter_class(init.counter, t_eff, p_uniform)
    sat, witness_k = label_kripke(kripke, f, init_node, 4 * kripke.n * kripke.n + 64)

    per_state: dict[str, UpSet] = {}
    top = sat[f]
    row_mask = (1 << width) - 1
    for s in range(oca.n_states):
        row = top >> s * width & row_mask
        base = frozenset(c for c in range(t_eff) if row >> c & 1)
        residues = frozenset(c % p_uniform for c in range(t_eff, width) if row >> c & 1)
        per_state[oca.state_names[s]] = upset.normalize(
            UpSet(t_eff, p_uniform, base, residues)
        )

    holds = bool(top >> init_node & 1)
    if witness_k is not None and init.counter >= width:
        # the level sequence of the class representative matches the concrete
        # one in satisfaction but not in step counts, so its bound is not a
        # bound for the wrapped initial counter
        caveats.append(
            f"initial counter {init.counter} wrapped onto representative "
            f"{counter_class(init.counter, t_eff, p_uniform)}; its shared-bound "
            f"witness {witness_k} is not reported as the concrete bound"
        )
        witness_k = None
    constants = {
        "mode": mode,
        "t": bignum.to_jsonable(t_uniform),
        "p": bignum.to_jsonable(p_uniform),
        "unfoldThreshold": bignum.to_jsonable(t_eff),
        "kripkeNodes": kripke.n,
        "perSubformula": [
            {"formula": pretty(g), "t": bignum.to_jsonable(pair.t),
             "p": bignum.to_jsonable(pair.p)}
            for g, pair in pairs.items()
        ],
    }
    return CheckResult(holds, witness_k, per_state, constants, caveats)


# ---------------------------------------------------------------------------
# Differential testing

AGREE = "AGREE"
DISAGREE = "DISAGREE"
ORACLE_UNKNOWN = "ORACLE-UNKNOWN"
CHECKER_UNKNOWN = "CHECKER-UNKNOWN"


@dataclass
class CrossRow:
    init: Configuration
    oracle: Verdict
    checker: bool | None
    status: str


@dataclass
class CrossReport:
    formula: Formula
    mode: str
    rows: list[CrossRow]
    checker_error: str | None = None

    @property
    def disagreements(self) -> list[CrossRow]:
        return [r for r in self.rows if r.status == DISAGREE]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json(self, oca: Oca) -> dict:
        return {
            "formula": pretty(self.formula),
            "mode": self.mode,
            "counts": self.counts(),
            "checkerError": self.checker_error,
            "rows": [
                {
                    "init": f"{oca.state_names[r.init.state]},{r.init.counter}",
                    "oracle": r.oracle.value,
                    "checker": r.checker,
                    "status": r.status,
                }
                for r in self.rows
            ],
        }


def cross_check(
    oca: Oca,
    f: Formula,
    inits: list[Configuration],
    mode: str = "empirical",
    caps: tuple[int, int] = DEFAULT_CAPS,
    *,
    evaluator: BoundedEvaluator | None = None,
    supplied: TpPair | None = None,
    b_override: int | None = None,
    node_budget: int | None = None,
    mine_v_cap: int | None = None,
) -> CrossReport:
    """Run the reduction-based checker against the bounded oracle per init.

    A DISAGREE row (both sides definite, different answers) is always a bug
    in one of them; ORACLE-UNKNOWN rows carry no evidence either way.  The
    oracle's verdicts come from ``evaluator`` (built at ``caps`` if None),
    which the checker's mining then reuses; the other keyword options go to
    ``check_oca``.
    """
    ev = evaluator or BoundedEvaluator(oca, *caps)
    verdicts = [ev.verdict(f, c) for c in inits]
    result = None
    error = None
    if any(v.definite for v in verdicts):
        try:
            result = check_oca(oca, f, inits[0], mode, supplied=supplied, caps=caps,
                               b_override=b_override, node_budget=node_budget,
                               mine_v_cap=mine_v_cap, evaluator=ev)
        except BudgetExceededError as exc:
            error = str(exc)
    rows = []
    for c, v in zip(inits, verdicts):
        if not v.definite:
            rows.append(CrossRow(c, v, None, ORACLE_UNKNOWN))
        elif result is None:
            rows.append(CrossRow(c, v, None, CHECKER_UNKNOWN))
        else:
            holds = result.per_state[oca.state_names[c.state]].member(c.counter)
            agree = holds == (v is Verdict.TRUE)
            rows.append(CrossRow(c, v, holds, AGREE if agree else DISAGREE))
    return CrossReport(f, mode, rows, error)
