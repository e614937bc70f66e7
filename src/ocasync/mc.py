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
distance sequence and that sequence's index of first positions, under
``sat2``; and the images of the level sets UE has stepped from, under the
level set.  Every call on the structure reads and extends them, standalone
calls too (UE's distance sequence by one preimage per step, also past its
repeat), and they live as long as the structure.  A UE level step does
constant work unless its bound passes the start-level test, which UE makes
before testing any other level; and UE finds where the (level, distance)
pair repeats from the two sequences' own repeats (base = max of the bases,
period = lcm of the periods) instead of keying a table by pairs.  From a
start node outside sat1 and sat2 no bound past 0 can hold, so UE answers as
soon as both repeats are known.

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
    def _level_images(self) -> dict[int, int]:
        """``image`` of each level mask UE has stepped from, keyed by mask."""
        return {}

    @cached_property
    def _ue_distances(self) -> dict[int, tuple[list[int], dict[int, int]]]:
        """UE's exact-distance sequence and its index, keyed by ``sat2``."""
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
    itself, and then records an answer for every level it walked, so merging
    orbits are walked once.  An answer that needs more than ``step_cap + 1``
    iterations raises ``StepCapExceededError``, whether walked or read from
    the memo; a call that raises records nothing.
    """
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be non-negative")
    memo = k._ua_memos.setdefault((sat1, sat2), {})
    path: list[int] = []  # walked levels without an answer yet, in orbit order
    on_path: dict[int, int] = {}  # each walked level's position in path
    not_sat1, not_sat2 = ~sat1, ~sat2
    level = 1 << init
    while True:
        res = memo.get(level)
        if res is not None:
            break
        first = on_path.get(level)
        if first is not None:
            # the levels from the first visit on form a cycle of length c,
            # and each fails after c + 1 iterations
            res = (len(path) - first + 1) << 1
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
        if step_cap is not None and len(path) + 1 > step_cap:
            raise _step_cap_exceeded(step_cap)
        on_path[level] = len(path)
        path.append(level)
        level = k.image(level)
    for lv in reversed(path):
        res += 2  # one more iteration
        memo[lv] = res
    iterations = res >> 1
    if step_cap is not None and iterations > step_cap + 1:
        raise _step_cap_exceeded(step_cap)
    if res & 1:
        return SyncCheck(True, iterations - 1, iterations)
    return SyncCheck(False, None, iterations)


def check_ue_on_kripke(
    k: Kripke, init: int, sat1: int, sat2: int, step_cap: int
) -> SyncCheck:
    """Does some single bound admit, for every earlier level, a sat1 node of
    that level from which sat2 is reachable in exactly the remaining steps?

    Bound K holds iff level K meets sat2 and every level j < K meets
    ``sat1 & dist[K - j]``.  The start level (j = 0) is tested first, and
    the other levels only for a bound that passes it.  Level K is not
    tested against sat2: a start node in ``dist[K]`` has a path of exactly
    K steps into sat2, and that path ends in level K.

    The levels and the exact-distance sets are orbits of deterministic maps
    (``k.image`` and ``k.preimage``): each runs through a transient into a
    cycle.  The pair of them first repeats at base = max(level base,
    distance base) with period = lcm(level period, distance period), since
    both must be on their cycles and a shift must be a multiple of both
    periods.  From the repeat on the predicate is determined by the cycle,
    so the scan stops at twice the base plus one period less one, or at the
    repeat if that is later.  From a start node outside sat1 no bound past
    0 can hold, so that answer is known, and returned, once both sequences
    have repeated.

    What does not depend on ``init`` is kept on ``k``: each level mask's
    image, keyed by mask, and per ``sat2`` the list ``dist``, where
    ``dist[d]`` holds the nodes reaching sat2 in exactly d steps, with its
    index of each distinct mask's first position.  Each call extends them as
    far as it scans.  Once ``dist`` is longer than its index, the sequence
    has repeated at position ``len(dist_index)``, and its base and period
    are known.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    level = 1 << init
    if level & sat2:
        return SyncCheck(True, 0, 1)
    images = k._level_images
    dist, dist_index = k._ue_distances.setdefault(sat2, ([sat2], {sat2: 0}))
    start = level & sat1  # bound K >= 1 needs start & dist[K]
    levels = [level]
    first = {level: 0}  # each level's first position, until the levels repeat
    level_base = level_period = 0
    stop = None
    k_step = 0
    while True:
        # outside sat1 no bound past 0 can hold, so the scan would run to stop
        if stop is not None and (k_step >= stop or not start):
            if stop > step_cap:
                raise _step_cap_exceeded(step_cap)
            return SyncCheck(False, None, stop + 1)
        if k_step >= step_cap:
            raise _step_cap_exceeded(step_cap)
        nxt = images.get(level)
        if nxt is None:
            nxt = images[level] = k.image(level)
        level = nxt
        k_step += 1
        levels.append(level)
        if len(dist) == k_step:
            d = k.preimage(dist[-1])
            dist.append(d)
            dist_index.setdefault(d, k_step)
        if not level_period:
            level_base = first.setdefault(level, k_step)
            if level_base < k_step:
                level_period = k_step - level_base
        if stop is None and level_period and len(dist_index) < len(dist):
            rep = len(dist_index)
            dist_base = dist_index[dist[rep]]
            base = max(level_base, dist_base)
            period = math.lcm(level_period, rep - dist_base)
            stop = max(base + period, 2 * base + period - 1)
        if start & dist[k_step]:
            for j in range(1, k_step):
                if not levels[j] & sat1 & dist[k_step - j]:
                    break
            else:
                return SyncCheck(True, k_step, k_step + 1)


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
