"""Brute-force ground truth under explicit resource caps.

Everything here evaluates the definitional semantics directly on the infinite
configuration graph, restricted by a counter cap and a level cap, and returns
three-valued verdicts: UNKNOWN absorbs every way the caps could hide the
answer.  Uses: differential testing of the finite-structure checker, mining
empirical threshold/period pairs, and auditing the segment/shift periodicity
of level sets at scaled-down constant bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import mc
from .errors import BudgetExceededError
from .formula import Formula, Kind, pretty
from .lps import analyze_cycle_repetitions, compress_path_with_exponents
from .oca import Configuration, Oca, OracleTrace, level_sets, successors, witness_path
from .periodicity import ConstantBundle, TpPair, core_levels, segment_start, shift_map
from .upset import tp_equivalent


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


class BoundedEvaluator:
    """Shared caches for evaluating formulas over one automaton at fixed caps."""

    def __init__(self, oca: Oca, counter_cap: int, level_cap: int):
        if counter_cap < 0 or level_cap < 0:
            raise ValueError("caps must be non-negative")
        self.oca = oca
        self.counter_cap = counter_cap
        self.level_cap = level_cap
        self._region = [
            Configuration(s, v)
            for s in range(oca.n_states)
            for v in range(counter_cap + 1)
        ]
        self._succ: dict[Configuration, tuple[Configuration, ...]] = {}
        self._tables: dict[Formula, dict[Configuration, Verdict]] = {}
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
            step = {s: {t.dst for g in ("=0", ">0") for t in oca.outgoing(s, g)} for s in every}
            out = (
                frozenset(s for s in every if step[s] & may),
                frozenset(s for s in every if step[s] and step[s] <= must),
            )
        else:
            # until family: anything reaching a may-state of the goal might hold;
            # a goal that must hold everywhere holds immediately at bound zero
            may2, must2 = self.may_must_states(f.children[1])
            step = {s: {t.dst for g in ("=0", ">0") for t in oca.outgoing(s, g)} for s in every}
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
            return self._table(f)[c]
        if kind in (Kind.UA, Kind.UE):
            key = (f, c)
            cached = self._sync_memo.get(key)
            if cached is None:
                cached = self._sync_verdict(f, c)
                self._sync_memo[key] = cached
            return cached
        raise AssertionError(kind)

    # -- fixpoint tables for the plain until operators --------------------------

    def _table(self, f: Formula) -> dict[Configuration, Verdict]:
        table = self._tables.get(f)
        if table is None:
            table = self._eu_table(f) if f.kind is Kind.EU else self._au_table(f)
            self._tables[f] = table
        return table

    def _child_rows(self, f: Formula):
        v1 = {c: self.verdict(f.children[0], c) for c in self._region}
        v2 = {c: self.verdict(f.children[1], c) for c in self._region}
        return v1, v2

    def _in_region_succ(self, c: Configuration):
        return [d for d in self.succ(c) if d.counter <= self.counter_cap]

    def _lfp(self, seed: set[Configuration], expand) -> set[Configuration]:
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

    def _eu_table(self, f: Formula) -> dict[Configuration, Verdict]:
        v1, v2 = self._child_rows(f)
        may_f, _ = self.may_must_states(f)
        _, escape = self._region_index
        sure = self._lfp(
            {c for c in self._region if v2[c] is Verdict.TRUE},
            lambda p, reached: v1[p] is Verdict.TRUE
            and any(d in reached for d in self._in_region_succ(p)),
        )
        # a path may also continue past the cap, so escape points with a
        # possible first operand seed the may-hold set; states that cannot
        # even reach a possibly-satisfying goal state are definitely out
        maybe = self._lfp(
            {c for c in self._region if v2[c] is not Verdict.FALSE}
            | {c for c in escape if v1[c] is not Verdict.FALSE},
            lambda p, reached: v1[p] is not Verdict.FALSE
            and any(d in reached for d in self._in_region_succ(p)),
        )
        out = {}
        for c in self._region:
            out[c] = (
                Verdict.TRUE if c in sure
                else Verdict.UNKNOWN if c in maybe and c.state in may_f
                else Verdict.FALSE
            )
        return out

    def _au_table(self, f: Formula) -> dict[Configuration, Verdict]:
        v1, v2 = self._child_rows(f)
        _, escape = self._region_index
        sure = self._lfp(
            {c for c in self._region if v2[c] is Verdict.TRUE},
            lambda p, reached: v1[p] is Verdict.TRUE
            and p not in escape
            and all(d in reached for d in self._in_region_succ(p)),
        )
        # an infinite all-not-goal path inside the region refutes universally
        lasso = {c for c in self._region if v2[c] is Verdict.FALSE}
        changed = True
        while changed:
            changed = False
            for c in list(lasso):
                if not any(d in lasso for d in self._in_region_succ(c)):
                    lasso.discard(c)
                    changed = True
        bad = lasso | {
            c for c in self._region
            if v1[c] is Verdict.FALSE and v2[c] is Verdict.FALSE
        }
        refuted = self._lfp(
            bad,
            lambda p, reached: v2[p] is Verdict.FALSE
            and any(d in reached for d in self._in_region_succ(p)),
        )
        may_f, _ = self.may_must_states(f)
        out = {}
        for c in self._region:
            if c in sure:
                assert c not in refuted, "three-valued fixpoints disagree"
                out[c] = Verdict.TRUE
            elif c in refuted or c.state not in may_f:
                # with no possibly-satisfying goal state reachable, every
                # path refutes the universal until
                out[c] = Verdict.FALSE
            else:
                out[c] = Verdict.UNKNOWN
        return out

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
        if c.counter <= self.counter_cap and c not in self.escaping:
            v = self._exact_ue(f, c)
            if v is not None:
                return v
        return self._scan_ue(f, c)

    def _exact_ue(self, f: Formula, c: Configuration) -> Verdict | None:
        """Exact per-level witness check on a cap-closed component.

        Both the level sequence and the exact-distance goal predecessors
        evolve deterministically over the finite component, so once that pair
        revisits an earlier value, scanning on to twice the transient plus
        one period settles the answer.  None if some child verdict on the
        component is indefinite.
        """
        component = {c}
        stack = [c]
        while stack:
            for d in self.succ(stack.pop()):
                if d not in component:
                    component.add(d)
                    stack.append(d)
        sat1 = set()
        sat2 = set()
        for d in component:
            for child, bucket in ((f.children[0], sat1), (f.children[1], sat2)):
                v = self.verdict(child, d)
                if not v.definite:
                    return None
                if v is Verdict.TRUE:
                    bucket.add(d)
        preds, _ = self._region_index
        levels = [frozenset({c})]
        dist = [frozenset(sat2)]
        seen = {(levels[0], dist[0]): 0}
        scan_until = None
        k = 0
        while True:
            if levels[k] & dist[0]:
                if all(levels[j] & sat1 & dist[k - j] for j in range(k)):
                    return Verdict.TRUE
            if scan_until is not None and k >= scan_until:
                return Verdict.FALSE
            if k + 1 > self.level_cap:
                return Verdict.UNKNOWN
            nxt = set()
            for d in levels[k]:
                nxt.update(self.succ(d))
            levels.append(frozenset(nxt))
            dist.append(frozenset(
                d for e in dist[k] for d in preds[e] if d in component
            ))
            k += 1
            key = (levels[k], dist[k])
            if scan_until is None:
                if key in seen:
                    base = seen[key]
                    scan_until = 2 * base + (k - base) - 1
                else:
                    seen[key] = k

    def _iter_levels(self, c: Configuration):
        """Lazy (level, truncated) pairs; avoids materializing deep traces
        when a scan decides early."""
        frontier = {c} if c.counter <= self.counter_cap else set()
        dropped = not frontier
        yield frozenset(frontier), dropped
        for _ in range(self.level_cap):
            nxt: set[Configuration] = set()
            for cur in frontier:
                nxt.update(self.succ(cur))
            kept = {d for d in nxt if d.counter <= self.counter_cap}
            dropped = dropped or len(kept) != len(nxt)
            frontier = kept
            yield frozenset(frontier), dropped

    def _scan_ua(self, f: Formula, c: Configuration) -> Verdict:
        sat1, sat2 = f.children
        prefix_certified = True  # every earlier level untruncated and all-sat1
        prefix_violated = False  # some earlier level definitely breaks sat1
        all_failed = True        # every bound so far definitely fails
        seen: set[frozenset[Configuration]] = set()
        for k, (level, truncated) in enumerate(self._iter_levels(c)):
            rows2 = [self.verdict(sat2, d) for d in level]
            if (
                prefix_certified and not truncated and level
                and all(v is Verdict.TRUE for v in rows2)
            ):
                return Verdict.TRUE
            if not (prefix_violated or any(v is Verdict.FALSE for v in rows2)):
                all_failed = False
            if not truncated:
                # exact levels evolve deterministically: a repeat with every
                # bound so far refuted refutes every later bound as well
                if level in seen and all_failed:
                    return Verdict.FALSE
                seen.add(level)
            rows1 = [self.verdict(sat1, d) for d in level]
            if any(v is Verdict.FALSE for v in rows1):
                prefix_violated = True
            if truncated or any(not v.definite for v in rows1):
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
        goal = f.children[1]
        layer = frozenset(c for c in self._region if self.verdict(goal, c) is Verdict.TRUE)
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
        sat1 = f.children[0]
        masks = self._distance_masks(f)
        alive = -1
        for k, (level, _truncated) in enumerate(self._iter_levels(c)):
            if (alive >> k) & 1 and any(masks.get(d, 0) & 1 for d in level):
                return Verdict.TRUE
            wanted = (alive >> (k + 1)) << 1  # offsets m >= 1 with bit k + m alive
            reach = 0
            for d in level:
                mask = masks.get(d, 0) & wanted
                if mask and self.verdict(sat1, d) is Verdict.TRUE:
                    reach |= mask
            alive &= reach << k
            if not alive:
                return Verdict.UNKNOWN
        return Verdict.UNKNOWN


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
    row is always returned.
    """
    if v_cap < 2:
        raise ValueError("need at least counters 0..2 to mine a period")
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
    mine_v_cap: int | None = None,
    evaluator: BoundedEvaluator | None = None,
) -> CrossReport:
    """Run the reduction-based checker against the bounded oracle per init.

    A DISAGREE row (both sides definite, different answers) is always a bug
    in one of them; ORACLE-UNKNOWN rows carry no evidence either way.
    """
    ev = evaluator or BoundedEvaluator(oca, *caps)
    verdicts = [ev.verdict(f, c) for c in inits]
    result = None
    error = None
    if any(v.definite for v in verdicts):
        try:
            result = mc.check_oca(
                oca, f, inits[0], mode,
                supplied=supplied, caps=caps, mine_v_cap=mine_v_cap, evaluator=ev,
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
    """First source configuration without an equivalent same-state partner."""
    for (e, u) in sorted(source):
        if not any(
            e2 == e and tp_equivalent(u, u2, prev_t, prev_p)
            for (e2, u2) in target
        ):
            return Configuration(e, u)
    return None


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
                    ok_a = not trace_vp.truncated[shifted] and not trace_v.truncated[lv]
                    for imp, src_trace, src_lv, dst_trace, dst_lv in (
                        ("2a", trace_vp, shifted, trace_v, lv),
                        ("2b", trace_v, lv, trace_vp, shifted),
                    ):
                        if not ok_a:
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
                else:
                    if lv < period or lv > level_cap:
                        continue
                    exact = not trace_v.truncated[lv]
                    for imp, src_lv, dst_lv in (("1a", lv, lv - period),
                                                ("1b", lv - period, lv)):
                        if not exact:
                            cases.append(AuditCase(s, v, lv, imp, None, "skipped",
                                                   "truncated levels"))
                            continue
                        missing = _match(
                            trace_v.levels[src_lv], trace_v.levels[dst_lv],
                            bundle.prev_t, bundle.prev_p,
                        )
                        if missing is None:
                            cases.append(AuditCase(s, v, lv, imp, None, "pass"))
                        else:
                            cases.append(AuditCase(
                                s, v, lv, imp, None, "fail",
                                f"no equivalent of {missing} at level {dst_lv}",
                                _slope_diagnostics(oca, bundle, trace_v, missing, src_lv),
                            ))
    return ShiftAuditReport(bundle, cases)
