"""Brute-force ground truth under explicit resource caps.

Everything here evaluates the definitional semantics directly on the infinite
configuration graph, restricted by a counter cap and a level cap, and returns
three-valued verdicts: UNKNOWN absorbs every way the caps could hide the
answer.  Over the capped region a formula's verdicts are kept as one pair of
configuration sets, (TRUE, FALSE), with UNKNOWN everywhere else; the
plain-until fixpoints and the synchronized scans work on these pairs by set
algebra.  A synchronized UE formula is decided by one witness scan over a
per-formula exact-distance index, which can answer TRUE only, plus a FALSE
repeat rule for scans that found no witness on a cap-closed component.
Uses: differential testing of the finite-structure checker, mining empirical
threshold/period pairs, and auditing the segment/shift periodicity of level
sets at scaled-down constant bundles.  The region counts against the same
node budget as the checker's unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import mc
from .errors import BudgetExceededError
from .formula import Formula, Kind, pretty
from .lps import analyze_cycle_repetitions, compress_path_with_exponents
from .oca import (
    Configuration, Oca, OracleTrace, iter_levels, level_sets, successors, witness_path,
)
from .periodicity import ConstantBundle, TpPair, core_levels, segment_start, shift_map
from .upset import tp_class


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    @property
    def definite(self) -> bool:
        return self is not Verdict.UNKNOWN


def _neg(v: Verdict) -> Verdict:
    if v is Verdict.TRUE:
        return Verdict.FALSE
    if v is Verdict.FALSE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def _and(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.FALSE in (a, b):
        return Verdict.FALSE
    if Verdict.UNKNOWN in (a, b):
        return Verdict.UNKNOWN
    return Verdict.TRUE


# (TRUE, FALSE) configuration sets over the capped region; the rest is UNKNOWN
Split = tuple[frozenset[Configuration], frozenset[Configuration]]


def _check_budget(what: str, required: int, unit: str) -> None:
    """Raise ``BudgetExceededError`` before allocating ``required`` units
    over the node budget."""
    budget = mc.node_budget_default()
    if required > budget:
        raise BudgetExceededError(
            f"{what} {required} {unit}, over the budget of {budget}",
            required=required, budget=budget,
        )


class BoundedEvaluator:
    """Shared caches for evaluating formulas over one automaton at fixed caps.

    ``verdict`` is the one recursive definition; ``_split(f)`` is f's table
    over the region, the (TRUE, FALSE) pair of configuration sets.
    """

    def __init__(self, oca: Oca, counter_cap: int, level_cap: int):
        if counter_cap < 0 or level_cap < 0:
            raise ValueError("caps must be non-negative")
        _check_budget("oracle region needs", oca.n_states * (counter_cap + 1), "configurations")
        self.oca = oca
        self.counter_cap = counter_cap
        self.level_cap = level_cap
        self._region = [
            Configuration(s, v)
            for s in range(oca.n_states)
            for v in range(counter_cap + 1)
        ]
        self._succ: dict[Configuration, tuple[Configuration, ...]] = {}
        self._splits: dict[Formula, Split] = {}
        self._distances: dict[Formula, dict[Configuration, int]] = {}
        self._sync_memo: dict[tuple[Formula, Configuration], Verdict] = {}
        self._may_must: dict[Formula, tuple[frozenset[int], frozenset[int]]] = {}

    # -- configuration graph -------------------------------------------------

    def succ(self, c: Configuration) -> tuple[Configuration, ...]:
        cached = self._succ.get(c)
        if cached is None:
            cached = tuple(sorted(successors(self.oca, c)))
            self._succ[c] = cached
        return cached

    @cached_property
    def _region_index(
        self,
    ) -> tuple[dict[Configuration, list[Configuration]], frozenset[Configuration]]:
        """(preds, boundary): the in-region predecessors of every region
        configuration, and the region configurations with a successor above
        the counter cap."""
        preds: dict[Configuration, list[Configuration]] = {c: [] for c in self._region}
        boundary = set()
        for c in self._region:
            for d in self.succ(c):
                if d.counter > self.counter_cap:
                    boundary.add(c)
                else:
                    preds[d].append(c)
        return preds, frozenset(boundary)

    @cached_property
    def escaping(self) -> frozenset[Configuration]:
        """Configurations in the capped region from which some path can leave it."""
        return frozenset(self._lfp(self._region_index[1], lambda p, reached: True))

    # -- state-level approximations -------------------------------------------

    @cached_property
    def _state_step(self) -> dict[int, set[int]]:
        """The states one transition away from each state, under either guard."""
        return {s: {t.dst for t in self.oca.transitions if t.src == s}
                for s in range(self.oca.n_states)}

    def may_must_states(self, f: Formula) -> tuple[frozenset[int], frozenset[int]]:
        """(may, must): states where f could hold for some counter, and states
        where f certainly holds at every counter.  Sound, deliberately coarse."""
        cached = self._may_must.get(f)
        if cached is not None:
            return cached
        oca = self.oca
        every = frozenset(range(oca.n_states))
        kind = f.kind
        if kind is Kind.TRUE:
            out = (every, every)
        elif kind is Kind.ATOM:
            labeled = frozenset(s for s in every if f.name in oca.labels[s])
            out = (labeled, labeled)
        elif kind is Kind.NOT:
            may, must = self.may_must_states(f.children[0])
            out = (every - must, every - may)
        elif kind is Kind.AND:
            m1, u1 = self.may_must_states(f.children[0])
            m2, u2 = self.may_must_states(f.children[1])
            out = (m1 & m2, u1 & u2)
        elif kind is Kind.EX:
            may, must = self.may_must_states(f.children[0])
            step = self._state_step
            out = (
                frozenset(s for s in every if step[s] & may),
                frozenset(s for s in every if step[s] and step[s] <= must),
            )
        else:
            # until family: anything reaching a may-state of the goal might hold;
            # a goal that must hold everywhere holds immediately at bound zero
            may2, must2 = self.may_must_states(f.children[1])
            step = self._state_step
            reach = set(may2)
            changed = True
            while changed:
                changed = False
                for s in every:
                    if s not in reach and step[s] & reach:
                        reach.add(s)
                        changed = True
            out = (frozenset(reach), must2)
        self._may_must[f] = out
        return out

    # -- main dispatch ---------------------------------------------------------

    def verdict(self, f: Formula, c: Configuration) -> Verdict:
        kind = f.kind
        if kind is Kind.TRUE:
            return Verdict.TRUE
        if kind is Kind.ATOM:
            return Verdict.TRUE if f.name in self.oca.labels[c.state] else Verdict.FALSE
        if kind is Kind.NOT:
            return _neg(self.verdict(f.children[0], c))
        if kind is Kind.AND:
            return _and(self.verdict(f.children[0], c), self.verdict(f.children[1], c))
        if kind is Kind.EX:
            best = Verdict.FALSE
            for d in self.succ(c):
                v = self.verdict(f.children[0], d)
                if v is Verdict.TRUE:
                    return Verdict.TRUE
                if v is Verdict.UNKNOWN:
                    best = Verdict.UNKNOWN
            return best
        if kind in (Kind.EU, Kind.AU):
            if c.counter > self.counter_cap:
                return Verdict.UNKNOWN
            true, false = self._split(f)
            return Verdict.TRUE if c in true else Verdict.FALSE if c in false else Verdict.UNKNOWN
        if kind in (Kind.UA, Kind.UE):
            key = (f, c)
            cached = self._sync_memo.get(key)
            if cached is None:
                cached = self._sync_verdict(f, c)
                self._sync_memo[key] = cached
            return cached
        raise AssertionError(kind)

    # -- three-valued region tables -----------------------------------------------

    def _split(self, f: Formula) -> Split:
        """(true, false): the region configurations where f is TRUE and where
        it is FALSE; f is UNKNOWN on the rest of the region."""
        split = self._splits.get(f)
        if split is None:
            if f.kind is Kind.EU:
                split = self._eu_split(f)
            elif f.kind is Kind.AU:
                split = self._au_split(f)
            else:
                verdicts = [(c, self.verdict(f, c)) for c in self._region]
                split = (
                    frozenset(c for c, v in verdicts if v is Verdict.TRUE),
                    frozenset(c for c, v in verdicts if v is Verdict.FALSE),
                )
            self._splits[f] = split
        return split

    def _in_region_succ(self, c: Configuration):
        return [d for d in self.succ(c) if d.counter <= self.counter_cap]

    def _lfp(self, seed: set[Configuration], expand) -> set[Configuration]:
        """Close ``seed`` under in-region predecessors p with ``expand(p,
        reached)``; every such p has a successor in ``reached``."""
        reached = set(seed)
        frontier = list(seed)
        preds, _ = self._region_index
        while frontier:
            cur = frontier.pop()
            for p in preds[cur]:
                if p not in reached and expand(p, reached):
                    reached.add(p)
                    frontier.append(p)
        return reached

    def _eu_split(self, f: Formula) -> Split:
        true1, false1 = self._split(f.children[0])
        true2, false2 = self._split(f.children[1])
        may_f, _ = self.may_must_states(f)
        _, escape = self._region_index
        region = frozenset(self._region)
        sure = self._lfp(true2, lambda p, reached: p in true1)
        # a path may also continue past the cap, so escape points with a
        # possible first operand seed the may-hold set; states that cannot
        # even reach a possibly-satisfying goal state are definitely out
        maybe = self._lfp(
            (region - false2) | (escape - false1),
            lambda p, reached: p not in false1,
        )
        unknown = {c for c in maybe if c.state in may_f}
        return frozenset(sure), region - sure - unknown

    def _au_split(self, f: Formula) -> Split:
        true1, false1 = self._split(f.children[0])
        true2, false2 = self._split(f.children[1])
        _, escape = self._region_index
        sure = self._lfp(
            true2,
            lambda p, reached: p in true1
            and p not in escape
            and all(d in reached for d in self._in_region_succ(p)),
        )
        # an infinite all-not-goal path inside the region refutes universally
        lasso = set(false2)
        changed = True
        while changed:
            changed = False
            for c in list(lasso):
                if not any(d in lasso for d in self._in_region_succ(c)):
                    lasso.discard(c)
                    changed = True
        refuted = self._lfp(lasso | (false1 & false2), lambda p, reached: p in false2)
        assert not sure & refuted, "three-valued fixpoints disagree"
        # with no possibly-satisfying goal state reachable, every path
        # refutes the universal until
        may_f, _ = self.may_must_states(f)
        refuted.update(c for c in self._region if c.state not in may_f)
        return frozenset(sure), frozenset(refuted) - sure

    # -- synchronized operators --------------------------------------------------
    #
    # These are decided entirely within the oracle (definitional level
    # iteration over configuration sets), sharing no code with the
    # finite-structure checker that the cross-checks compare against.

    def _sync_verdict(self, f: Formula, c: Configuration) -> Verdict:
        may_f, _ = self.may_must_states(f)
        if c.state not in may_f:
            # no possibly-satisfying goal state is reachable, and levels are
            # never empty, so no level can meet the goal requirement
            return Verdict.FALSE
        if f.kind is Kind.UA:
            # the scan is complete on cap-closed components: exact levels
            # must repeat, and the repeat rule then decides negatively
            return self._scan_ua(f, c)
        v = self._scan_ue(f, c)
        if v is Verdict.UNKNOWN and self._ue_repeats(f, c):
            return Verdict.FALSE
        return v

    def _scan_ua(self, f: Formula, c: Configuration) -> Verdict:
        true1, false1 = self._split(f.children[0])
        true2, false2 = self._split(f.children[1])
        prefix_certified = True  # every earlier level untruncated and all-sat1
        prefix_violated = False  # some earlier level definitely breaks sat1
        all_failed = True        # every bound so far definitely fails
        seen: set[frozenset[Configuration]] = set()
        for level, truncated in iter_levels(c, self.succ, self.level_cap, self.counter_cap):
            if prefix_certified and not truncated and level and level <= true2:
                return Verdict.TRUE
            if not prefix_violated and level.isdisjoint(false2):
                all_failed = False
            if not truncated:
                # exact levels evolve deterministically: a repeat with every
                # bound so far refuted refutes every later bound as well
                if level in seen and all_failed:
                    return Verdict.FALSE
                seen.add(level)
            if not level.isdisjoint(false1):
                prefix_violated = True
            if truncated or not level <= true1:
                prefix_certified = False
            if prefix_violated and all_failed:
                # every later bound inherits the broken prefix
                return Verdict.FALSE
        return Verdict.UNKNOWN

    def _distance_masks(self, f: Formula) -> dict[Configuration, int]:
        """Exact-distance index of a UE formula's goal over the capped region.

        Bit m of a configuration's mask is set iff some path of exactly
        m <= level_cap steps, every configuration on it inside the region,
        leads from it to a configuration where the second operand is TRUE;
        configurations with no such path are absent.  The layers
        D_0 = goal, D_{m+1} = in-region predecessors of D_m are a
        deterministic sequence over a finite region, so once a layer repeats
        an earlier one, D_start, every later layer repeats the cycle
        D_start..D_{start+period-1}; building stops there and each mask's
        cycle bits are tiled out to the level cap.
        """
        masks = self._distances.get(f)
        if masks is not None:
            return masks
        preds, _ = self._region_index
        cap = self.level_cap
        layer = self._split(f.children[1])[0]
        first: dict[frozenset[Configuration], int] = {}
        masks = {}
        while True:
            m = first[layer] = len(first)
            for d in layer:
                masks[d] = masks.get(d, 0) | (1 << m)
            if m == cap:
                break
            layer = frozenset(p for d in layer for p in preds[d])
            start = first.get(layer)
            if start is not None:
                period = m + 1 - start
                reps = (cap - start) // period + 1
                tile = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
                full = (1 << (cap + 1)) - 1
                for d, mask in masks.items():
                    cycle = (mask >> start) & ((1 << period) - 1)
                    masks[d] = (mask | (cycle * tile) << start) & full
                break
        self._distances[f] = masks
        return masks

    def _scan_ue(self, f: Formula, c: Configuration) -> Verdict:
        """Bounded witness search: TRUE iff for some k <= level_cap, level k
        (in-region part) meets the goal and every earlier level j < k has a
        first-operand configuration on an in-region path to it.

        The configurations of level j with an in-region path of exactly k - j
        steps to a goal configuration of level k are ``levels[j] ∩ D_{k-j}``:
        such a path stays inside the region, so its configuration after i
        steps lies in level j + i.  So one pass suffices.  Leaving level j,
        ``alive`` keeps bit k > j iff every level up to j passed for bound k,
        that is iff offset k - j is in the OR of the distance masks of level
        j's first-operand configurations and bit k was already set.  Once
        ``alive`` is empty no later bound can succeed (the scan never
        answers FALSE).
        """
        true1, _ = self._split(f.children[0])
        masks = self._distance_masks(f)
        alive = -1
        for k, (level, _truncated) in enumerate(
            iter_levels(c, self.succ, self.level_cap, self.counter_cap)
        ):
            if (alive >> k) & 1 and any(masks.get(d, 0) & 1 for d in level):
                return Verdict.TRUE
            wanted = (alive >> (k + 1)) << 1  # offsets m >= 1 with bit k + m alive
            reach = 0
            for d in level:
                mask = masks.get(d, 0) & wanted
                if mask and d in true1:
                    reach |= mask
            alive &= reach << k
            if not alive:
                return Verdict.UNKNOWN
        return Verdict.UNKNOWN

    def _ue_repeats(self, f: Formula, c: Configuration) -> bool:
        """FALSE rule for a UE scan that found no witness: True iff no
        bound at all, below or above the level cap, has a witness from c.

        Applies when c is in the region, not escaping, and both operands are
        definite on c's component (everything reachable from c).  No path
        from c leaves the component, so its distance layers are the region's
        D_k (``_distance_masks``) cut to it, and the pair (level k,
        D_k ∩ component) evolves deterministically.  If it first repeats at
        steps base < k, a witness at any bound >= base + k shifts down by
        k - base, so the least witness is at most base + k - 1; when that
        fits under the level cap, the scan has already ruled it out.
        """
        if c.counter > self.counter_cap or c in self.escaping:
            return False
        component = {c}
        stack = [c]
        while stack:
            for d in self.succ(stack.pop()):
                if d not in component:
                    component.add(d)
                    stack.append(d)
        for g in f.children:
            true, false = self._split(g)
            if not all(d in true or d in false for d in component):
                return False
        masks = self._distance_masks(f)
        near = {d: masks[d] for d in component if d in masks}
        seen: dict[tuple, int] = {}
        for k, (level, _) in enumerate(
            iter_levels(c, self.succ, self.level_cap, self.counter_cap)
        ):
            layer = frozenset(d for d, mask in near.items() if mask >> k & 1)
            base = seen.setdefault((level, layer), k)
            if base < k:
                return base + k - 1 <= self.level_cap
        return False


def eval_bounded(
    oca: Oca, c: Configuration, f: Formula, counter_cap: int, level_cap: int
) -> Verdict:
    """Three-valued definitional evaluation under the given caps."""
    return BoundedEvaluator(oca, counter_cap, level_cap).verdict(f, c)


# ---------------------------------------------------------------------------
# Period mining

def mine_period(
    oca: Oca,
    f: Formula,
    state: int,
    v_cap: int,
    caps: tuple[int, int],
    evaluator: BoundedEvaluator | None = None,
) -> tuple[TpPair | None, list[Verdict]]:
    """Smallest (threshold, period) under which the sampled verdicts repeat.

    Samples verdicts at counters 0..v_cap, then returns the lexicographically
    least pair (t, p) with t + 2p <= v_cap such that no verdict at or above t
    is UNKNOWN and verdicts at congruent counters >= t agree.  The raw verdict
    row is always returned.  The v_cap + 1 samples are checked against the
    node budget before any is taken.
    """
    if v_cap < 2:
        raise ValueError("need at least counters 0..2 to mine a period")
    _check_budget("period mining samples", v_cap + 1, "counters")
    ev = evaluator or BoundedEvaluator(oca, *caps)
    row = [ev.verdict(f, Configuration(state, v)) for v in range(v_cap + 1)]
    for t in range(v_cap - 1):
        if any(not v.definite for v in row[t:]):
            continue
        for p in range(1, (v_cap - t) // 2 + 1):
            if all(row[v] == row[t + (v - t) % p] for v in range(t, v_cap + 1)):
                return TpPair(t, p), row
    return None, row


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
    caps: tuple[int, int] = (60, 200),
    *,
    supplied: TpPair | None = None,
    b_override: int | None = None,
    node_budget: int | None = None,
    mine_v_cap: int | None = None,
    evaluator: BoundedEvaluator | None = None,
) -> CrossReport:
    """Run the reduction-based checker against the bounded oracle per init.

    A DISAGREE row (both sides definite, different answers) is always a bug
    in one of them; ORACLE-UNKNOWN rows carry no evidence either way.  The
    keyword arguments other than ``evaluator`` go to ``mc.check_oca``.
    """
    ev = evaluator or BoundedEvaluator(oca, *caps)
    verdicts = [ev.verdict(f, c) for c in inits]
    result = None
    error = None
    if any(v.definite for v in verdicts):
        try:
            result = mc.check_oca(
                oca, f, inits[0], mode,
                supplied=supplied, caps=caps, b_override=b_override,
                node_budget=node_budget, mine_v_cap=mine_v_cap, evaluator=ev,
            )
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


# ---------------------------------------------------------------------------
# Scaled-constant audit of level-set periodicity

@dataclass
class AuditCase:
    state: int
    counter: int
    length: int
    implication: str  # "1a" | "1b" | "2a" | "2b"
    segment: int | None  # segment index for core levels, None outside the core
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    diagnostics: dict | None = None


@dataclass
class ShiftAuditReport:
    bundle: ConstantBundle
    cases: list[AuditCase]

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for case in self.cases:
            seg = "segment0" if case.segment == 0 else (
                "segment>=1" if case.segment is not None else "outside-core"
            )
            bucket = out.setdefault(f"{case.implication}/{seg}", {})
            bucket[case.status] = bucket.get(case.status, 0) + 1
        return out

    def failures(self) -> list[AuditCase]:
        return [c for c in self.cases if c.status == "fail"]

    def to_json(self, oca: Oca) -> dict:
        return {
            "bundle": self.bundle.to_json(),
            "summary": self.summary(),
            "failures": [
                {
                    "state": oca.state_names[c.state],
                    "counter": c.counter,
                    "length": c.length,
                    "implication": c.implication,
                    "segment": c.segment,
                    "detail": c.detail,
                    "diagnostics": c.diagnostics,
                }
                for c in self.failures()
            ],
            "cases": len(self.cases),
        }


def default_audit_counters(bundle: ConstantBundle, count: int = 3) -> list[int]:
    """Sample counters comfortably above the counter threshold, high enough
    that the core segments cannot overlap."""
    base = bundle.counter_threshold + bundle.period + bundle.prev_t + 1
    return [base + j for j in range(count)]


def _slope_diagnostics(
    oca: Oca, bundle: ConstantBundle, trace: OracleTrace,
    target: Configuration, level: int,
) -> dict | None:
    """Decompose one witness path into cycle repetitions per slope, for
    comparison against the expected many-repetitions thresholds."""
    path = witness_path(oca, trace, target, level)
    if path is None:
        return None
    index = {t: i for i, t in enumerate(oca.transitions)}
    idx_path = tuple(index[t] for t in path)
    scheme, exponents = compress_path_with_exponents(
        oca, trace.origin.state, idx_path
    )
    reps = analyze_cycle_repetitions(oca, scheme, list(exponents))
    threshold = bundle.b**4 * bundle.period
    return {
        "pathLength": len(path),
        "slopeRepetitions": {str(k): v for k, v in sorted(reps.items())},
        "manyRepetitionsThreshold": threshold,
    }


def _match(
    source: frozenset[Configuration], target: frozenset[Configuration],
    prev_t: int, prev_p: int,
) -> Configuration | None:
    """First source configuration, in sorted order, without an equivalent
    same-state partner in ``target``."""
    classes = {(s, tp_class(u, prev_t, prev_p)) for s, u in target}
    return min(
        (c for c in source if (c.state, tp_class(c.counter, prev_t, prev_p)) not in classes),
        default=None,
    )


def check_shift_periodicity(
    oca: Oca,
    bundle: ConstantBundle,
    *,
    counters: list[int] | None = None,
    lengths: list[int] | None = None,
    states: list[int] | None = None,
    level_cap: int | None = None,
    counter_cap: int | None = None,
) -> ShiftAuditReport:
    """Audit, on concrete level sets, the four level-shift implications:
    outside the core a level repeats the level one period earlier (both
    directions), and core levels of the tree at v correspond under the shift
    bijection to core levels of the tree at v + period (both directions).

    The bundle must be scaled down far enough that counters above its
    threshold fit under the exploration caps.  Results are reported, not
    asserted: scaled constants sit below the derivation's validity regime,
    so failures are informative rather than refutations.
    """
    period = bundle.period
    if not isinstance(period, int):
        raise ValueError("audit needs a materialized (scaled-down) bundle")
    vs = counters if counters is not None else default_audit_counters(bundle)
    for v in vs:
        if not v > bundle.counter_threshold:
            raise ValueError("audited counters must exceed the counter threshold")
    if level_cap is None:
        level_cap = max(
            max(vs) + 2 * period + 4,
            bundle.seg_threshold * (bundle.m + 1) + 2 * period,
        )
    if counter_cap is None:
        counter_cap = max(vs) + period + level_cap + 1
    _check_budget(
        "level-set audit traces", (level_cap + 1) * oca.n_states * (counter_cap + 1),
        "configurations",
    )
    state_list = states if states is not None else list(range(oca.n_states))
    cases: list[AuditCase] = []
    for s in state_list:
        for v in vs:
            trace_v = level_sets(oca, Configuration(s, v), level_cap, counter_cap)
            trace_vp = level_sets(oca, Configuration(s, v + period), level_cap, counter_cap)
            core = core_levels(v, bundle)
            core_set = set(core)
            seg_of = {}
            for i in range(bundle.m + 1):
                start = segment_start(i, v, bundle)
                for lv in range(start, start + bundle.seg_threshold):
                    seg_of.setdefault(lv, i)
            probe = lengths if lengths is not None else sorted(
                set(core) | {lv for lv in range(period, level_cap + 1)}
            )
            for lv in probe:
                if lv in core_set:
                    shifted = shift_map(lv, v, bundle)
                    seg = seg_of[lv]
                    if shifted > level_cap or lv > level_cap:
                        continue
                    exact = not trace_vp.truncated[shifted] and not trace_v.truncated[lv]
                    checks = (("2a", trace_vp, shifted, trace_v, lv),
                              ("2b", trace_v, lv, trace_vp, shifted))
                elif period <= lv <= level_cap:
                    seg = None
                    exact = not trace_v.truncated[lv]
                    checks = (("1a", trace_v, lv, trace_v, lv - period),
                              ("1b", trace_v, lv - period, trace_v, lv))
                else:
                    continue
                for imp, src_trace, src_lv, dst_trace, dst_lv in checks:
                    if not exact:
                        cases.append(AuditCase(s, v, lv, imp, seg, "skipped",
                                               "truncated levels"))
                        continue
                    missing = _match(
                        src_trace.levels[src_lv], dst_trace.levels[dst_lv],
                        bundle.prev_t, bundle.prev_p,
                    )
                    if missing is None:
                        cases.append(AuditCase(s, v, lv, imp, seg, "pass"))
                    else:
                        cases.append(AuditCase(
                            s, v, lv, imp, seg, "fail",
                            f"no equivalent of {missing} at level {dst_lv}",
                            _slope_diagnostics(oca, bundle, src_trace, missing, src_lv),
                        ))
    return ShiftAuditReport(bundle, cases)
