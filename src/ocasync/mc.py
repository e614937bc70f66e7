"""Finite-structure model checking and the counter-automaton reduction.

The pipeline: compute a threshold/period pair for every subformula (from the
constant recursion, a user-supplied pair, or oracle mining), unfold the
automaton into a finite Kripke structure that keeps low counters exact and
wraps high ones onto residue classes, label plain operators by fixpoints,
decide the synchronized operators by level-set iteration, and read the
per-state satisfaction sets back as ultimately periodic sets.
``cross_check`` runs that procedure against the bounded oracle, which
imports nothing from this module.

``label_kripke`` labels unfoldings and hand-built structures alike.  Its
synchronized checks run once per start node but share their level-set work: a
UA answer depends on the level set alone, so each UA operator keeps one memo
of answers per level set, and every UE operator reads one cache of level-set
images plus its own distance sequence and that sequence's index of first
positions.  None of it outlives the call.  A UE level step does constant
work unless its bound passes the start-level test, which UE makes before
testing any other level; and UE finds where the (level, distance) pair
repeats from the two sequences' own repeats (base = max of the bases,
period = lcm of the periods) instead of keying a table by pairs.

Every ``Kripke`` structure, unfolded or hand-built, is one layout: rows of
``width`` counter classes, with a row's edges given by ``Move``s that act on
the whole row at once.  ``image`` and ``preimage`` read one move table, the
moves grouped by source row, built once per structure on the first call of
either: ``image`` extracts each non-empty source row of a set once, and
``preimage`` builds each source row from its moves' target rows.  Node sets
are bitmasks over that layout throughout this module.
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
from .oracle import BoundedEvaluator, Verdict
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
    def _move_table(self) -> tuple[int, int, tuple[tuple[int, tuple], ...]]:
        """What ``image`` and ``preimage`` read, built on the first call of
        either: the bit one past a row, the wrap target, and the moves
        grouped by source row as ``(source shift, ((target shift, guard,
        effect), ...))``, with the guards of a row's moves to the same row by
        the same effect ORed."""
        width = self.width
        by_row: dict[int, dict[tuple[int, int], int]] = {}
        for src, dst, guard, effect in self.moves:
            row = by_row.setdefault(src, {})
            row[dst, effect] = row.get((dst, effect), 0) | guard
        return 1 << width, 1 << self.t, tuple(
            (src * width, tuple((dst * width, guard, effect)
                                for (dst, effect), guard in row.items()))
            for src, row in by_row.items()
        )

    def image(self, mask: int) -> int:
        """Nodes with a predecessor in ``mask``.

        Each non-empty source row of ``mask`` is extracted once; each of its
        moves keeps the classes its guard admits and shifts them by its
        effect.  A +1 step from the top class ``width - 1`` lands on bit
        ``width``, which wraps back to class ``t``.
        """
        top, wrap, rows = self._move_table
        row_mask = top - 1
        out = 0
        for shift, moves in rows:
            row = mask >> shift & row_mask
            if not row:
                continue  # level sets are mostly sparse
            for dst_shift, guard, effect in moves:
                r = row & guard
                if not r:
                    continue
                if effect == 1:
                    r <<= 1
                    if r & top:
                        r = r ^ top | wrap
                elif effect == -1:
                    r >>= 1
                out |= r << dst_shift
        return out

    def preimage(self, mask: int) -> int:
        """Nodes with a successor in ``mask``.

        Each move of a source row inverts its shift on its target row ``d``
        and keeps the classes its guard admits: for effect +1 the source
        classes are ``d >> 1`` plus the top class ``width - 1`` when ``d``
        holds the wrap target ``t``; for effect -1 they are ``d << 1``.
        """
        top, wrap, rows = self._move_table
        row_mask, high = top - 1, top >> 1
        out = 0
        for shift, moves in rows:
            row = 0
            for dst_shift, guard, effect in moves:
                d = mask >> dst_shift & row_mask
                if not d:
                    continue
                if effect == 1:
                    d = d >> 1 | high if d & wrap else d >> 1
                elif effect == -1:
                    d <<= 1
                row |= d & guard
            out |= row << shift
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
    if f.kind is Kind.EU:
        sat1, sat2 = sub[f.children[0]], sub[f.children[1]]
        x = sat2
        while True:
            nxt = x | (sat1 & k.preimage(x))
            if nxt == x:
                return x
            x = nxt
    if f.kind is Kind.AU:
        sat1, sat2 = sub[f.children[0]], sub[f.children[1]]
        x = sat2
        while True:
            nxt = x | (sat1 & ~k.preimage(full & ~x))
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
    k: Kripke, init: int, sat1: int, sat2: int, step_cap: int | None = None,
    memo: dict[int, SyncCheck] | None = None,
) -> SyncCheck:
    """Does some single bound make every path of that length end in sat2 with
    sat1 everywhere before?  Exact on total structures; terminates without a
    step cap because the level-set orbit must repeat.

    The answer from a level set depends on the set alone: bound 0 inside
    sat2, failure outside sat1 or on a revisited set, else the answer at its
    image one step later.  ``memo`` maps level masks to their answers; callers
    checking many start nodes pass one dict, fixed to this structure, sat1 and
    sat2, to every call.  A call walks until a memo hit or a decided level and
    records every level it walked, so merging orbits are walked once.  An
    answer that needs more than ``step_cap + 1`` iterations raises
    ``StepCapExceededError``, whether walked or read from the memo.
    """
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be non-negative")
    if memo is None:
        memo = {}
    path: list[int] = []  # walked levels without an answer yet, in orbit order
    on_path: dict[int, int] = {}
    not_sat1, not_sat2 = ~sat1, ~sat2
    level = 1 << init
    while True:
        res = memo.get(level)
        if res is not None:
            break
        if not level & not_sat2:
            res = memo[level] = SyncCheck(True, 0, 1)
            break
        if level & not_sat1:
            res = memo[level] = SyncCheck(False, None, 1)
            break
        first = on_path.get(level)
        if first is not None:
            # the levels from the first visit on form a cycle of length c,
            # and each fails after c + 1 iterations
            res = SyncCheck(False, None, len(path) - first + 1)
            for lv in path[first:]:
                memo[lv] = res
            del path[first:]
            break
        if step_cap is not None and len(path) + 1 > step_cap:
            raise _step_cap_exceeded(step_cap)
        on_path[level] = len(path)
        path.append(level)
        level = k.image(level)
    holds, witness_k, iterations = res
    for shift, lv in enumerate(reversed(path), 1):
        res = memo[lv] = SyncCheck(
            holds, None if witness_k is None else witness_k + shift, iterations + shift
        )
    if step_cap is not None and res.iterations > step_cap + 1:
        raise _step_cap_exceeded(step_cap)
    return res


def check_ue_on_kripke(
    k: Kripke, init: int, sat1: int, sat2: int, step_cap: int,
    dist: list[int] | None = None, images: dict[int, int] | None = None,
    dist_index: dict[int, int] | None = None,
) -> SyncCheck:
    """Does some single bound admit, for every earlier level, a sat1 node of
    that level from which sat2 is reachable in exactly the remaining steps?

    Bound K holds iff level K meets sat2 and every level j < K meets
    ``sat1 & dist[K - j]``.  The start level (j = 0) is tested first, and
    the other levels only for a bound that passes it.

    The levels and the exact-distance sets are orbits of deterministic maps
    (``k.image`` and ``k.preimage``): each runs through a transient into a
    cycle.  The pair of them first repeats at base = max(level base,
    distance base) with period = lcm(level period, distance period), since
    both must be on their cycles and a shift must be a multiple of both
    periods.  From the repeat on the predicate is determined by the cycle,
    so the scan stops at twice the base plus one period less one, or at the
    repeat if that is later.

    ``dist[d]`` holds the nodes reaching sat2 in exactly d steps, and
    ``dist_index`` maps each distinct mask of ``dist`` to its first
    position.  Neither depends on ``init``: callers checking many start
    nodes pass one pair, starting ``[sat2]`` and ``{sat2: 0}``, to every
    call, and each call extends both in place as far as it scans.  Once
    ``dist`` is longer than ``dist_index``, the sequence has repeated at
    position ``len(dist_index)``; its base and period are then known, and
    later positions are copied rather than computed.  ``images`` maps a
    level mask to ``k.image`` of it; it depends on the structure alone, so
    callers share one dict per structure.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    if images is None:
        images = {}
    if dist is None:
        dist, dist_index = [sat2], {sat2: 0}
    elif not dist or dist[0] != sat2:
        raise ValueError("a shared distance sequence must start at sat2")
    elif dist_index is None:
        raise ValueError("a shared distance sequence needs its index")
    level = 1 << init
    if level & sat2:
        return SyncCheck(True, 0, 1)
    start = level & sat1  # bound K >= 1 needs start & dist[K]
    levels = [level]
    first = {level: 0}  # each level's first position, until the levels repeat
    level_base = level_period = 0
    stop = None
    k_step = 0
    while True:
        if stop is not None and k_step >= stop:
            return SyncCheck(False, None, k_step + 1)
        if k_step >= step_cap:
            raise _step_cap_exceeded(step_cap)
        if level_period:
            level = levels[k_step + 1 - level_period]
        else:
            nxt = images.get(level)
            if nxt is None:
                nxt = images[level] = k.image(level)
            level = nxt
        k_step += 1
        levels.append(level)
        if len(dist) == k_step:
            rep = len(dist_index)
            if rep < len(dist):  # dist repeats from position rep on
                dist.append(dist[k_step - rep + dist_index[dist[rep]]])
            else:
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
        if start & dist[k_step] and level & sat2:
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
    holds there); each synchronized check is capped at ``step_cap`` steps."""
    sat: dict[Formula, int] = {}
    witness_k = None
    images: dict[int, int] = {}  # level images depend on the structure alone
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            sat1, sat2 = sat[g.children[0]], sat[g.children[1]]
            # UA's answers per level set and UE's distance sequence are the
            # same for every start node of this operator
            memo: dict[int, SyncCheck] = {}
            dist, dist_index = [sat2], {sat2: 0}
            mask = 0
            for node in range(k.n):
                if g.kind is Kind.UA:
                    res = check_ua_on_kripke(k, node, sat1, sat2, step_cap, memo)
                else:
                    res = check_ue_on_kripke(
                        k, node, sat1, sat2, step_cap, dist, images, dist_index)
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
            pair, _table = oracle.mine_period(oca, g, s, v_cap, caps, evaluator=evaluator)
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
    caps: tuple[int, int] = (60, 200),
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
    for s in range(oca.n_states):
        base = frozenset(
            c for c in range(t_eff) if top >> (s * width + c) & 1
        )
        residues = frozenset(
            c % p_uniform
            for c in range(t_eff, width)
            if top >> (s * width + c) & 1
        )
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


# the keyword options ``check_oca`` takes, read before any caller can wrap it
_CHECK_OPTIONS = frozenset(check_oca.__kwdefaults__)


def cross_check(
    oca: Oca,
    f: Formula,
    inits: list[Configuration],
    mode: str = "empirical",
    caps: tuple[int, int] = (60, 200),
    *,
    evaluator: BoundedEvaluator | None = None,
    **options,
) -> CrossReport:
    """Run the reduction-based checker against the bounded oracle per init.

    A DISAGREE row (both sides definite, different answers) is always a bug
    in one of them; ORACLE-UNKNOWN rows carry no evidence either way.  The
    oracle's verdicts come from ``evaluator`` (built at ``caps`` if None),
    which the checker's mining then reuses; ``options`` go to ``check_oca``,
    and one it does not take is a ``TypeError`` before any verdict, even
    when no verdict is definite and the checker never runs.
    """
    unknown = options.keys() - _CHECK_OPTIONS
    if unknown:
        raise TypeError(f"check_oca() got an unexpected keyword argument {min(unknown)!r}")
    ev = evaluator or BoundedEvaluator(oca, *caps)
    verdicts = [ev.verdict(f, c) for c in inits]
    result = None
    error = None
    if any(v.definite for v in verdicts):
        try:
            result = check_oca(oca, f, inits[0], mode, caps=caps, evaluator=ev, **options)
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
