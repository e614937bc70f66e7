"""Brute-force ground truth under explicit resource caps.

Everything here evaluates the definitional semantics directly on the infinite
configuration graph, restricted by a counter cap and a level cap, and returns
three-valued verdicts: UNKNOWN absorbs every way the caps could hide the
answer.  Every configuration set is kept in ``oca``'s counter-bitset layout:
one Python int per state, its row, whose bit v is the configuration
(state, v).  Over the capped region a formula's verdicts are one pair of row
tuples, (TRUE, FALSE), with UNKNOWN everywhere else; the plain-until
fixpoints iterate ``oca.pre_rows`` in the region, and the synchronized scans
test the levels of ``oca.iter_level_rows`` against these rows with a few
ANDs per level.  A synchronized UE formula is decided by one witness scan,
which can answer TRUE only, plus a FALSE repeat rule for scans that found no
witness on a cap-closed component; both read a per-formula exact-distance
index kept as the distance layers' rows.
Uses: differential testing of the finite-structure checker, which imports
this module and never the reverse, mining empirical threshold/period pairs,
and auditing the segment/shift periodicity of level sets at scaled-down
constant bundles.  The region, the mining samples and the audit traces go
through ``errors.check_budget``, as the unfolding does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import InputError, check_budget
from .formula import Formula, Kind, pretty
from .lps import analyze_cycle_repetitions, compress_path_with_exponents
from .oca import (
    Configuration, Oca, OracleTrace, Rows, iter_level_rows, level_sets, pre_rows,
    step_rows, successors, witness_path,
)
from .periodicity import ConstantBundle, TpPair, segment_start, shift_map


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


# (TRUE, FALSE) row tuples over the capped region; the rest is UNKNOWN
Split = tuple[Rows, Rows]


def _meets(a: Rows, b: Rows) -> bool:
    """True iff the two row tuples share a configuration."""
    return any(map(int.__and__, a, b))


class _Distances(NamedTuple):
    """A UE goal's exact-distance index (``BoundedEvaluator._distances``)."""

    layers: list[Rows]  # D_0, D_1, ... until the first repeat or the cap
    support: Rows       # the OR of the layers: configurations at some distance
    start: int          # D_m for m >= len(layers) is D_{start + (m - start) % period}

    def layer(self, m: int) -> Rows:
        n = len(self.layers)
        if m >= n:
            m = self.start + (m - self.start) % (n - self.start)
        return self.layers[m]


class BoundedEvaluator:
    """Shared caches for evaluating formulas over one automaton at fixed caps.

    ``verdict`` is the one recursive definition; ``_split(f)`` is f's table
    over the region, the (TRUE, FALSE) pair of row tuples (``oca.Rows``:
    bit v of row s is configuration (s, v)).
    """

    def __init__(self, oca: Oca, counter_cap: int, level_cap: int):
        if counter_cap < 0 or level_cap < 0:
            raise InputError("caps must be non-negative")
        check_budget("oracle region needs", oca.n_states * (counter_cap + 1), "configurations")
        self.oca = oca
        self.counter_cap = counter_cap
        self.level_cap = level_cap
        self._full = (1 << (counter_cap + 1)) - 1
        self._splits: dict[Formula, Split] = {}
        self._distance_index: dict[Formula, _Distances] = {}
        self._sync_memo: dict[tuple[Formula, Configuration], Verdict] = {}
        self._may_must: dict[Formula, tuple[frozenset[int], frozenset[int]]] = {}

    # -- configuration graph -------------------------------------------------

    def _levels(self, c: Configuration):
        return iter_level_rows(self.oca, c, self.level_cap, self.counter_cap)

    @cached_property
    def _boundary(self) -> Rows:
        """The region configurations with a successor above the counter cap,
        which can only be one just above it."""
        above = (2 << self.counter_cap,) * self.oca.n_states
        return pre_rows(self.oca, above, self._full)

    @cached_property
    def escaping(self) -> Rows:
        """Configurations in the capped region from which some path can leave it."""
        return self._lfp(self._boundary, (self._full,) * self.oca.n_states)

    # -- state-level approximations -------------------------------------------

    @cached_property
    def _state_step(self) -> dict[int, set[int]]:
        """The states one transition away from each state, under either guard."""
        return {s: {d for dsts in steps for d in dsts}
                for s, steps in enumerate(self.oca.row_steps)}

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
            for d in successors(self.oca, c):
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
            s, v = c
            return (Verdict.TRUE if (true[s] >> v) & 1
                    else Verdict.FALSE if (false[s] >> v) & 1 else Verdict.UNKNOWN)
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
        """(true, false): the region rows where f is TRUE and where it is
        FALSE; f is UNKNOWN on the rest of the region."""
        split = self._splits.get(f)
        if split is None:
            kind = f.kind
            full = self._full
            if kind is Kind.TRUE:
                split = ((full,) * self.oca.n_states, (0,) * self.oca.n_states)
            elif kind is Kind.ATOM:
                true = tuple(full if f.name in lab else 0 for lab in self.oca.labels)
                split = (true, tuple(full ^ row for row in true))
            elif kind is Kind.NOT:
                true, false = self._split(f.children[0])
                split = (false, true)
            elif kind is Kind.AND:
                true1, false1 = self._split(f.children[0])
                true2, false2 = self._split(f.children[1])
                split = (tuple(map(int.__and__, true1, true2)),
                         tuple(map(int.__or__, false1, false2)))
            elif kind is Kind.EU:
                split = self._eu_split(f)
            elif kind is Kind.AU:
                split = self._au_split(f)
            else:
                # EX children and synchronized scans may look above the cap,
                # so these go through ``verdict`` one configuration at a time
                true, false = [], []
                for s in range(self.oca.n_states):
                    t = u = 0
                    for v in range(self.counter_cap + 1):
                        r = self.verdict(f, Configuration(s, v))
                        if r is Verdict.TRUE:
                            t |= 1 << v
                        elif r is Verdict.FALSE:
                            u |= 1 << v
                    true.append(t)
                    false.append(u)
                split = (tuple(true), tuple(false))
            self._splits[f] = split
        return split

    def _lfp(self, seed: Rows, allowed: Rows) -> Rows:
        """Close ``seed`` under in-region predecessors inside ``allowed``:
        the least R with R = seed | (pre(R) & allowed)."""
        reached = frontier = seed
        while any(frontier):
            pre = pre_rows(self.oca, frontier, self._full)
            frontier = tuple(p & a & ~r for p, a, r in zip(pre, allowed, reached))
            reached = tuple(map(int.__or__, reached, frontier))
        return reached

    def _states_outside(self, states: frozenset[int]) -> Rows:
        """Full rows for the states not in ``states``, empty rows for the rest."""
        return tuple(0 if s in states else self._full for s in range(self.oca.n_states))

    def _eu_split(self, f: Formula) -> Split:
        true1, false1 = self._split(f.children[0])
        true2, false2 = self._split(f.children[1])
        may_f, _ = self.may_must_states(f)
        full = self._full
        sure = self._lfp(true2, true1)
        # a path may also continue past the cap, so escape points with a
        # possible first operand seed the may-hold set; states that cannot
        # even reach a possibly-satisfying goal state are definitely out
        maybe = self._lfp(
            tuple((full ^ f2) | (e & ~f1)
                  for f2, e, f1 in zip(false2, self._boundary, false1)),
            tuple(full ^ f1 for f1 in false1),
        )
        outside = self._states_outside(may_f)
        return sure, tuple(
            full & ~r & ~(m & ~o) for r, m, o in zip(sure, maybe, outside)
        )

    def _au_split(self, f: Formula) -> Split:
        true1, false1 = self._split(f.children[0])
        true2, false2 = self._split(f.children[1])
        full = self._full
        # p joins once it is TRUE for the first operand, has no successor
        # above the cap, and has every successor in the set already
        ok = tuple(t1 & ~e for t1, e in zip(true1, self._boundary))
        sure = true2
        while True:
            blocked = pre_rows(self.oca, tuple(full ^ r for r in sure), full)
            new = tuple(o & ~b & ~r for o, b, r in zip(ok, blocked, sure))
            if not any(new):
                break
            sure = tuple(map(int.__or__, sure, new))
        # an infinite all-not-goal path inside the region refutes universally
        lasso = false2
        while True:
            kept = tuple(map(int.__and__, lasso, pre_rows(self.oca, lasso, full)))
            if kept == lasso:
                break
            lasso = kept
        refuted = self._lfp(
            tuple(lr | (f1 & f2) for lr, f1, f2 in zip(lasso, false1, false2)), false2
        )
        assert not _meets(sure, refuted), "three-valued fixpoints disagree"
        # with no possibly-satisfying goal state reachable, every path
        # refutes the universal until
        may_f, _ = self.may_must_states(f)
        outside = self._states_outside(may_f)
        return sure, tuple((r | o) & ~t for r, o, t in zip(refuted, outside, sure))

    # -- synchronized operators --------------------------------------------------
    #
    # These are decided entirely within the oracle (definitional level
    # iteration over configuration sets), sharing no code with the
    # finite-structure checker that the cross-checks compare against; the
    # row stepper they share with ``oca.level_sets`` is pinned against
    # ``oca.successors``.

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
        not_true1 = tuple(~row for row in true1)
        not_true2 = tuple(~row for row in true2)
        meet = int.__and__  # any(map(meet, a, b)): rows a and b intersect
        prefix_certified = True  # every earlier level untruncated and all-sat1
        prefix_violated = False  # some earlier level definitely breaks sat1
        all_failed = True        # every bound so far definitely fails
        seen: set[Rows] = set()
        for level, truncated in self._levels(c):
            if prefix_certified and not truncated and any(level) and not any(
                map(meet, level, not_true2)
            ):
                return Verdict.TRUE
            if all_failed:
                if not prefix_violated and not any(map(meet, level, false2)):
                    all_failed = False
                elif not truncated:
                    # exact levels evolve deterministically: a repeat with
                    # every bound so far refuted refutes every later bound;
                    # the size test hashes each level once
                    n = len(seen)
                    seen.add(level)
                    if len(seen) == n:
                        return Verdict.FALSE
                if not prefix_violated and any(map(meet, level, false1)):
                    prefix_violated = True
            if prefix_certified and (truncated or any(map(meet, level, not_true1))):
                prefix_certified = False
            if all_failed and prefix_violated:
                # every later bound inherits the broken prefix
                return Verdict.FALSE
            if not (all_failed or prefix_certified):
                # neither answer can come from a later level
                return Verdict.UNKNOWN
        return Verdict.UNKNOWN

    def _distances(self, f: Formula) -> _Distances:
        """Exact-distance index of a UE formula's goal over the capped region.

        D_m holds the configurations with a path of exactly m <= level_cap
        steps, every configuration on it inside the region, to one where the
        second operand is TRUE.  The layers D_0 = goal, D_{m+1} = in-region
        predecessors of D_m are a deterministic sequence over a finite
        region, so once a layer repeats an earlier one, D_start, every later
        layer repeats the cycle D_start..D_{start+period-1}; building stops
        there or at the level cap.  Each distance is stored once, in its
        layer's rows, and a later offset reads through the cycle, as in
        ``layer``; ``support`` is the OR of the layers.
        """
        index = self._distance_index.get(f)
        if index is not None:
            return index
        cap = self.level_cap
        layer = self._split(f.children[1])[0]
        first: dict[Rows, int] = {}
        layers: list[Rows] = []
        support = layer
        start = 0
        while True:
            m = first[layer] = len(layers)
            layers.append(layer)
            support = tuple(map(int.__or__, support, layer))
            if m == cap:
                break
            layer = pre_rows(self.oca, layer, self._full)
            if layer in first:
                start = first[layer]
                break
        index = self._distance_index[f] = _Distances(layers, support, start)
        return index

    def _scan_ue(self, f: Formula, c: Configuration) -> Verdict:
        """Bounded witness search: TRUE iff for some k <= level_cap, level k
        (in-region part) meets the goal and every earlier level j < k has a
        first-operand configuration on an in-region path to it.

        The configurations of level j with an in-region path of exactly k - j
        steps to a goal configuration of level k are ``levels[j] ∩ D_{k-j}``:
        such a path stays inside the region, so its configuration after i
        steps lies in level j + i.  So one pass suffices.  ``alive`` is a
        window over the index's offsets: at level j, bit i < len(layers) is
        set unless bound j + i failed a tested level before j.  Level j is
        read as ``useful``, its part in the index's support, and ``firsts``,
        the first-operand part of that.  With no ``firsts`` no later bound
        can pass, and the scan ends.  With ``firsts == useful`` nothing is
        tested: a goal configuration at level k has an in-region path back
        to ``useful``, so bound k's goal test implies this level's.
        Otherwise offset i stays iff ``firsts`` meets D_i.  Then ``alive``
        shifts down one, and bound j + len(layers) enters at the top: from
        level j and every earlier level its offset is on the cycle, one
        period above that of bound j + start, so it takes bit ``start``.
        Bounds past ``level_cap`` never enter, so once ``alive`` is empty no
        bound can succeed (the scan never answers FALSE).
        """
        true1, _ = self._split(f.children[0])
        goal = self._split(f.children[1])[0]
        layers, support, start = self._distances(f)
        top = len(layers) - 1
        wrap_until = self.level_cap - top
        alive = (2 << top) - 1
        for k, (level, _truncated) in enumerate(self._levels(c)):
            if alive & 1 and _meets(level, goal):
                return Verdict.TRUE
            useful = tuple(map(int.__and__, level, support))
            firsts = tuple(map(int.__and__, useful, true1))
            if not any(firsts):
                break
            if firsts != useful:
                rest = alive
                while rest:
                    i = rest.bit_length() - 1
                    rest ^= 1 << i
                    if not _meets(firsts, layers[i]):
                        alive ^= 1 << i
            enter = (alive >> start & 1) << top if k < wrap_until else 0
            alive = alive >> 1 | enter
            if not alive:
                break
        return Verdict.UNKNOWN

    def _ue_repeats(self, f: Formula, c: Configuration) -> bool:
        """FALSE rule for a UE scan that found no witness: True iff no
        bound at all, below or above the level cap, has a witness from c.

        Applies when c is in the region, not escaping, and both operands are
        definite on c's component (everything reachable from c).  No path
        from c leaves the component, so its distance layers are the region's
        D_k (``_distances``) cut to it, and the pair (level k,
        D_k ∩ component) evolves deterministically.  If it first repeats at
        steps base < k, a witness at any bound >= base + k shifts down by
        k - base, so the least witness is at most base + k - 1; when that
        fits under the level cap, the scan has already ruled it out.
        """
        if c.counter > self.counter_cap or (self.escaping[c.state] >> c.counter) & 1:
            return False
        component = frontier = tuple(
            1 << c.counter if s == c.state else 0 for s in range(self.oca.n_states)
        )
        while any(frontier):
            frontier = tuple(
                d & ~r for d, r in zip(step_rows(self.oca, frontier), component)
            )
            component = tuple(map(int.__or__, component, frontier))
        for g in f.children:
            true, false = self._split(g)
            if any(r & ~(t | u) for r, t, u in zip(component, true, false)):
                return False
        dist = self._distances(f)
        seen: dict[tuple[Rows, Rows], int] = {}
        for k, (level, _) in enumerate(self._levels(c)):
            layer = tuple(map(int.__and__, dist.layer(k), component))
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
        raise InputError("need at least counters 0..2 to mine a period")
    check_budget("period mining samples", v_cap + 1, "counters")
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


def default_audit_counters(bundle: ConstantBundle) -> list[int]:
    """Sample counters comfortably above the counter threshold, high enough
    that the core segments cannot overlap."""
    base = bundle.counter_threshold + bundle.period + bundle.prev_t + 1
    return [base, base + 1, base + 2]


def _slope_diagnostics(
    oca: Oca, bundle: ConstantBundle, trace: OracleTrace,
    target: Configuration, level: int,
) -> dict:
    """Decompose one witness path into cycle repetitions per slope, for
    comparison against the expected many-repetitions thresholds.  ``target``
    is read off the trace's own level, so a path to it exists."""
    path = witness_path(oca, trace, target, level)
    idx_path = tuple(map(oca.transitions.index, path))
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


def _fold(row: int, width: int) -> int:
    """OR of the ``width``-bit chunks of ``row``."""
    if row.bit_length() <= width:
        return row
    shift = width
    while shift < row.bit_length():
        row |= row >> shift
        shift *= 2
    return row & ((1 << width) - 1)


def _tile(chunk: int, width: int, length: int) -> int:
    """``chunk`` (``width`` bits) repeated over at least ``length`` bits."""
    while width < length:
        chunk |= chunk << width
        width *= 2
    return chunk


def _match(source: Rows, target: Rows, prev_t: int, prev_p: int) -> Configuration | None:
    """First source configuration, in (state, counter) order, without an
    equivalent same-state partner in ``target``.  Two counters are equivalent
    when they are equal, or when both are at least ``prev_t`` and congruent
    modulo ``prev_p``."""
    for s, (src, dst) in enumerate(zip(source, target)):
        t = min(prev_t, src.bit_length())  # no mask wider than the row
        missing = src & ((1 << t) - 1) & ~dst
        high = src >> t << t
        if high:
            residues = _fold(dst >> t << t, prev_p)
            missing |= high & ~_tile(residues, prev_p, high.bit_length())
        if missing:
            return Configuration(s, (missing & -missing).bit_length() - 1)
    return None


def check_shift_periodicity(
    oca: Oca,
    bundle: ConstantBundle,
    *,
    counters: list[int] | None = None,
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
        raise InputError("audit needs a materialized (scaled-down) bundle")
    vs = counters if counters is not None else default_audit_counters(bundle)
    for v in vs:
        if not v > bundle.counter_threshold:
            raise InputError("audited counters must exceed the counter threshold")
    if level_cap is None:
        level_cap = max(
            max(vs) + 2 * period + 4,
            bundle.seg_threshold * (bundle.m + 1) + 2 * period,
        )
    if counter_cap is None:
        counter_cap = max(vs) + period + level_cap + 1
    check_budget(
        "level-set audit traces", (level_cap + 1) * oca.n_states * (counter_cap + 1),
        "configurations",
    )
    # per audited counter: the segment of each core level (the first one
    # wins where segments overlap), and the levels to audit in order; a
    # segment whose floored start lies below level 0 contributes only its
    # levels from 0 on
    plans = {}
    for v in vs:
        seg_of: dict[int, int] = {}
        for i in range(bundle.m + 1):
            start = segment_start(i, v, bundle)
            for lv in range(max(start, 0), start + bundle.seg_threshold):
                seg_of.setdefault(lv, i)
        plans[v] = seg_of, sorted(seg_of.keys() | range(period, level_cap + 1))
    cases: list[AuditCase] = []
    for s in range(oca.n_states):
        # trace_vp at v is trace_v at v + period whenever both are audited
        traces: dict[int, OracleTrace] = {}
        for v in vs:
            for u in (v, v + period):
                if u not in traces:
                    traces[u] = level_sets(oca, Configuration(s, u), level_cap, counter_cap)
            trace_v, trace_vp = traces[v], traces[v + period]
            seg_of, levels = plans[v]
            for lv in levels:
                seg = seg_of.get(lv)
                if seg is not None:
                    shifted = shift_map(lv, v, bundle)
                    if shifted > level_cap or lv > level_cap:
                        continue
                    exact = not trace_vp.truncated[shifted] and not trace_v.truncated[lv]
                    checks = (("2a", trace_vp, shifted, trace_v, lv),
                              ("2b", trace_v, lv, trace_vp, shifted))
                else:  # outside the core, so in range(period, level_cap + 1)
                    exact = not trace_v.truncated[lv]
                    checks = (("1a", trace_v, lv, trace_v, lv - period),
                              ("1b", trace_v, lv - period, trace_v, lv))
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
