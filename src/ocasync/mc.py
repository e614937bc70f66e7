"""Finite-structure model checking and the counter-automaton reduction.

The pipeline: compute a threshold/period pair for every subformula (from the
constant recursion, a user-supplied pair, or oracle mining), unfold the
automaton into a finite Kripke structure that keeps low counters exact and
wraps high ones onto residue classes, label plain operators by fixpoints,
decide the synchronized operators by level-set iteration, and read the
per-state satisfaction sets back as ultimately periodic sets.

Node sets are manipulated as bitmasks throughout this module.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from . import bignum, upset
from .errors import BudgetExceededError, StepCapExceededError
from .formula import Formula, Kind, formula_atoms, pretty, subformulas
from .oca import Configuration, Oca, POS, ZERO, validate
from .periodicity import TpPair, ctl_constants, ua_constants
from .upset import UpSet

if TYPE_CHECKING:
    from .oracle import BoundedEvaluator

DEFAULT_NODE_BUDGET = 10**6
BUDGET_ENV_VAR = "OCASYNC_BUDGET"


class SyncCheck(NamedTuple):
    holds: bool
    witness_k: int | None
    iterations: int


@dataclass(frozen=True)
class Kripke:
    """Finite total transition structure with atom labels per node.

    ``provenance`` records, for unfoldings, which automaton state and counter
    class each node stands for.
    """

    successors: tuple[tuple[int, ...], ...]
    labels: tuple[frozenset[str], ...]
    provenance: tuple[tuple[int, int], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.successors)

    def __post_init__(self):
        if len(self.labels) != len(self.successors):
            raise ValueError("one label set per node required")
        for i, succ in enumerate(self.successors):
            if not succ:
                raise ValueError(f"node {i} has no successor; structure must be total")
            if any(not 0 <= j < self.n for j in succ):
                raise ValueError(f"node {i} has an out-of-range successor")

    @cached_property
    def succ_masks(self) -> tuple[int, ...]:
        out = []
        for succ in self.successors:
            m = 0
            for j in succ:
                m |= 1 << j
            out.append(m)
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def atom_mask(self, name: str) -> int:
        m = 0
        for i, lab in enumerate(self.labels):
            if name in lab:
                m |= 1 << i
        return m

    def image(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.succ_masks[i]
        return out

    def preimage(self, mask: int) -> int:
        out = 0
        for i in range(self.n):
            if self.succ_masks[i] & mask:
                out |= 1 << i
        return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(nodes) -> int:
    m = 0
    for i in nodes:
        m |= 1 << i
    return m


def nodes_of(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


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
        return Kripke(tuple(tuple(s) for s in self._succ), tuple(self._labels))

    def __getitem__(self, name: str) -> int:
        return self._names[name]


# ---------------------------------------------------------------------------
# Unfolding

def counter_class(v: int, t: int, p: int) -> int:
    """Identify high counters with their congruent representative in [t, t+p)."""
    return v if v < t + p else t + ((v - t) % p)


def unfold_kripke(oca: Oca, t: int, p: int) -> Kripke:
    """Finite quotient with |states| * (t + p) nodes: counters below t + p are
    kept exact and the step out of the top of the window wraps back to t."""
    if p < 1 or t < 0:
        raise ValueError("need t >= 0 and p >= 1")
    width = t + p
    succ: list[tuple[int, ...]] = []
    labels: list[frozenset[str]] = []
    prov: list[tuple[int, int]] = []
    for s in range(oca.n_states):
        for c in range(width):
            guard = ZERO if c == 0 else POS
            targets = sorted(
                {tr.dst * width + counter_class(c + tr.effect, t, p)
                 for tr in oca.outgoing(s, guard)}
            )
            succ.append(tuple(targets))
            labels.append(oca.labels[s])
            prov.append((s, c))
    return Kripke(tuple(succ), tuple(labels), tuple(prov))


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
            grow = 0
            for i in _bits(sat1 & ~x):
                if k.succ_masks[i] & ~x == 0:
                    grow |= 1 << i
            nxt = x | grow
            if nxt == x:
                return x
            x = nxt
    raise ValueError(f"{f.kind} is not labeled by fixpoints")


def label_ctl(k: Kripke, f: Formula, sub_sat: dict[Formula, frozenset[int]]) -> frozenset[int]:
    """Fixpoint labeling of one non-synchronized operator given its children's
    satisfaction sets."""
    sub = {g: mask_of(nodes) for g, nodes in sub_sat.items()}
    return nodes_of(_label_mask(k, f, sub))


# ---------------------------------------------------------------------------
# Synchronized operators

def check_ua_on_kripke(
    k: Kripke, init: int, sat1, sat2, step_cap: int | None = None
) -> SyncCheck:
    """Does some single bound make every path of that length end in sat2 with
    sat1 everywhere before?  Exact on total structures; terminates without a
    step cap because the level-set orbit must repeat.
    """
    sat1_m = sat1 if isinstance(sat1, int) else mask_of(sat1)
    sat2_m = sat2 if isinstance(sat2, int) else mask_of(sat2)
    level = 1 << init
    seen: dict[int, int] = {}
    k_step = 0
    while True:
        if level & ~sat2_m == 0:
            return SyncCheck(True, k_step, k_step + 1)
        if level & ~sat1_m:
            return SyncCheck(False, None, k_step + 1)
        if level in seen:
            return SyncCheck(False, None, k_step + 1)
        seen[level] = k_step
        if step_cap is not None and k_step + 1 > step_cap:
            raise StepCapExceededError(
                "level iteration exceeded its step cap undecided",
                partial_horizon=k_step, budget=step_cap,
            )
        level = k.image(level)
        k_step += 1


def check_ue_on_kripke(
    k: Kripke, init: int, sat1, sat2, step_cap: int
) -> SyncCheck:
    """Does some single bound admit, for every earlier level, a sat1 node of
    that level from which sat2 is reachable in exactly the remaining steps?

    Levels and exact-distance predecessor sets both evolve deterministically,
    so once the pair revisits an earlier value the predicate is determined by
    the cycle; scanning to twice the transient plus one period is sufficient.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    sat1_m = sat1 if isinstance(sat1, int) else mask_of(sat1)
    sat2_m = sat2 if isinstance(sat2, int) else mask_of(sat2)
    levels = [1 << init]
    dist = [sat2_m]  # dist[d]: nodes reaching sat2 in exactly d steps
    seen: dict[tuple[int, int], int] = {(levels[0], dist[0]): 0}
    scan_until: int | None = None
    k_step = 0
    while True:
        if levels[k_step] & sat2_m:
            if all(levels[j] & sat1_m & dist[k_step - j] for j in range(k_step)):
                return SyncCheck(True, k_step, k_step + 1)
        if scan_until is not None and k_step >= scan_until:
            return SyncCheck(False, None, k_step + 1)
        if k_step + 1 > step_cap:
            raise StepCapExceededError(
                "level iteration exceeded its step cap undecided",
                partial_horizon=k_step, budget=step_cap,
            )
        levels.append(k.image(levels[k_step]))
        dist.append(k.preimage(dist[k_step]))
        k_step += 1
        key = (levels[k_step], dist[k_step])
        if scan_until is None:
            if key in seen:
                base = seen[key]
                period = k_step - base
                scan_until = 2 * base + period - 1
            else:
                seen[key] = k_step


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


def _paper_pairs(oca: Oca, f: Formula, b_override: int | None) -> dict[Formula, TpPair]:
    pairs: dict[Formula, TpPair] = {}
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            if g.kind is Kind.UE:
                raise ValueError(
                    "the constant recursion covers only the all-paths synchronized "
                    "operator; use supplied or empirical mode for UE"
                )
            (t1, p1), (t2, p2) = (pairs[c] for c in g.children)
            bundle = ua_constants(
                oca.n_states,
                prev_t=bignum.maximum(t1, t2),
                prev_p=bignum.lcm(p1, p2),
                b_override=b_override,
            )
            pairs[g] = bundle.pair
        else:
            pairs[g] = ctl_constants(g.kind, [pairs[c] for c in g.children], oca.n_states)
    return pairs


def _mined_pairs(
    oca: Oca, f: Formula, caps: tuple[int, int], mine_v_cap: int | None,
    evaluator: BoundedEvaluator | None = None,
) -> tuple[dict[Formula, TpPair], list[str]]:
    from .oracle import BoundedEvaluator, mine_period  # local import to avoid a cycle

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
            pair, _table = mine_period(oca, g, s, v_cap, caps, evaluator=evaluator)
            if pair is None:
                raise BudgetExceededError(
                    f"no periodic pattern certified for {pretty(g)!r} at state "
                    f"{oca.state_names[s]} within counters 0..{v_cap}; "
                    "raise the caps or supply a pair",
                    required=None, budget=v_cap,
                )
            per_state.append(pair)
        pairs[g] = TpPair(
            max(p.t for p in per_state),
            math.lcm(*[p.p for p in per_state]),
        )
    return pairs, caveats


def node_budget_default() -> int:
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_NODE_BUDGET


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
    diags = validate(oca)
    if diags:
        raise ValueError("invalid automaton: " + "; ".join(diags))
    unbound = formula_atoms(f) - oca.atoms
    if unbound:
        raise ValueError(f"formula uses undeclared atoms {sorted(unbound)}")
    caveats: list[str] = []
    if mode == "paper":
        pairs = _paper_pairs(oca, f, b_override)
    elif mode == "supplied":
        if supplied is None:
            raise ValueError("supplied mode needs a threshold/period pair")
        if supplied.p < 1 or supplied.t < 0:
            raise ValueError("supplied pair must have t >= 0 and p >= 1")
        pairs = {g: supplied for g in subformulas(f)}
        caveats.append("threshold/period pair supplied by caller; not validated here")
    elif mode == "empirical":
        pairs, caveats = _mined_pairs(oca, f, caps, mine_v_cap, evaluator)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # uniformize across subformulas, then pad the threshold so the bottom of
    # the residue window sits strictly inside the periodic region
    t_uniform: bignum.Number = 0
    p_uniform: bignum.Number = 1
    for pair in pairs.values():
        t_uniform = bignum.maximum(t_uniform, pair.t)
        p_uniform = bignum.lcm(p_uniform, pair.p)
    t_eff = t_uniform + 2
    budget = node_budget if node_budget is not None else node_budget_default()
    required = oca.n_states * (t_eff + p_uniform)
    if bignum.is_symbolic(required) or required > budget:
        raise BudgetExceededError(
            f"unfolding needs {_describe(required)} nodes, over the budget of {budget}",
            required=_describe(required), budget=budget,
        )

    kripke = unfold_kripke(oca, t_eff, p_uniform)
    step_cap = 4 * kripke.n * kripke.n + 64
    sat: dict[Formula, int] = {}
    witnesses: dict[tuple[Formula, int], int | None] = {}
    for g in subformulas(f):
        if g.kind in (Kind.UA, Kind.UE):
            sat1, sat2 = sat[g.children[0]], sat[g.children[1]]
            mask = 0
            for node in range(kripke.n):
                if g.kind is Kind.UA:
                    res = check_ua_on_kripke(kripke, node, sat1, sat2, step_cap)
                else:
                    res = check_ue_on_kripke(kripke, node, sat1, sat2, step_cap)
                if res.holds:
                    mask |= 1 << node
                witnesses[(g, node)] = res.witness_k
            sat[g] = mask
        else:
            sat[g] = _label_mask(kripke, g, sat)

    width = t_eff + p_uniform
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

    init_node = init.state * width + counter_class(init.counter, t_eff, p_uniform)
    holds = bool(top >> init_node & 1)
    witness_k = witnesses.get((f, init_node))
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


def _describe(x) -> object:
    return bignum.to_jsonable(x)
