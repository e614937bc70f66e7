"""Linear path schemes and cycle arithmetic.

A scheme is an expression ``a0 b1* a1 ... bk* ak`` over the transitions of an
automaton, where the ``a`` pieces are plain transition sequences and each
``b`` piece is a cycle.  A concrete path is shaped by the scheme if it
instantiates every star with a concrete repetition count.  Each piece is
read once, as counter arithmetic (``Piece``: its effect, and the counters its
guards allow it to start from): ``enumerate_lps`` reads a scheme while it
builds it, one step per transition.  The shaped search steps plain int
counters and solves for the last star's exponent.  Asked for a reach,
``enumerate_lps`` also carries one frontier per star down its depth-first
tree, (counter, length left) -> least exponent prefix, so each scheme's
shaped reach is read off the frontier of its last star; the single-scheme
search remains for any other scheme.  No search is a closure
that refers to itself, so a finished or dropped search leaves no cyclic
garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import InputError, check_budget, environment_budget
from .oca import Configuration, Oca, Transition, ZERO


@dataclass(frozen=True)
class CycleStats:
    """Effect and length of a cycle; the slope is their ratio."""

    effect: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("cycle length must be positive")
        if abs(self.effect) > self.length:
            raise ValueError("effect cannot exceed length (steps are -1/0/+1)")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.effect, self.length)


class Piece(NamedTuple):
    """A transition sequence as counter arithmetic: walkable from counter v
    iff ``lo <= v <= hi``, then at ``dst`` with counter ``v + delta``."""

    length: int
    dst: int
    delta: int
    lo: int
    hi: float


def _empty_piece(state: int) -> Piece:
    return Piece(0, state, 0, 0, math.inf)


def _extend(piece: Piece, t: Transition) -> Piece:
    """``piece`` followed by ``t``, which leaves ``piece.dst``.  With o the
    offset before the step, ``=0`` needs v + o == 0 and ``>0`` needs
    v + o >= 1; no decrement is zero-guarded on a valid automaton, so
    ``lo >= 0`` keeps every counter non-negative."""
    o = piece.delta
    if t.guard == ZERO:
        return Piece(piece.length + 1, t.dst, o + t.effect, max(piece.lo, -o), min(piece.hi, -o))
    return Piece(piece.length + 1, t.dst, o + t.effect, max(piece.lo, 1 - o), piece.hi)


def _piece(oca: Oca, state: int, seq: tuple[int, ...]) -> Piece:
    """``seq`` read from ``state``: ``_extend`` folded over the empty piece."""
    piece = _empty_piece(state)
    for idx in seq:
        t = oca.transitions[idx]
        if t.src != piece.dst:
            raise ValueError(f"transition {idx} breaks the state chain")
        piece = _extend(piece, t)
    return piece


SegmentPieces = tuple[tuple[Piece, Piece], ...]
# (start, target length, exponent cap) of a shaped search
Reach = tuple[Configuration, int, int]
# end configuration -> least exponent vector, in ascending vector order
ReachTable = dict[Configuration, tuple[int, ...]]


@dataclass(frozen=True)
class Lps:
    """``alpha0`` then ``segments`` of (cycle, following path), all state-chained.

    ``built`` is ``(oca, alpha0 piece, segment pieces, reach, table)`` when
    ``enumerate_lps`` read the scheme while building it; ``table`` is the
    scheme's shaped reach from ``reach`` (both None when none was asked for).
    It takes no part in equality, hashing or repr."""

    start_state: int
    alpha0: tuple[int, ...]
    segments: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    built: tuple[Oca, Piece, SegmentPieces, Reach | None, ReachTable | None] | None = field(
        default=None, compare=False, repr=False)

    @property
    def flat_length(self) -> int:
        return len(self.alpha0) + sum(len(b) + len(a) for b, a in self.segments)

    @property
    def size(self) -> int:
        return len(self.segments)

    def pieces(self, oca: Oca) -> tuple[Piece, SegmentPieces]:
        """The ``alpha0`` piece and one (cycle, tail) pair per segment; raises
        ``ValueError`` on a broken state chain, an empty or an open cycle.
        Pieces built by ``enumerate_lps`` for this same ``oca`` are reused."""
        if self.built is not None and self.built[0] is oca:
            return self.built[1], self.built[2]
        first = _piece(oca, self.start_state, self.alpha0)
        state = first.dst
        segments = []
        for beta, alpha in self.segments:
            cycle = _piece(oca, state, beta)
            if not beta or cycle.dst != state:
                raise ValueError("a cycle must be non-empty and return to its start state")
            tail = _piece(oca, state, alpha)
            segments.append((cycle, tail))
            state = tail.dst
        return first, tuple(segments)

    def cycle_stats(self, oca: Oca) -> list[CycleStats]:
        return [CycleStats(c.delta, c.length) for c, _ in self.pieces(oca)[1]]


def basic_slopes(b: int) -> list[Fraction]:
    """All distinct ratios x/y with |x| <= y <= b, ascending."""
    if b < 1:
        raise ValueError("b must be at least 1")
    values = {Fraction(x, y) for y in range(1, b + 1) for x in range(-y, y + 1)}
    return sorted(values)


def negative_basic_slopes(b: int) -> list[Fraction]:
    return [s for s in basic_slopes(b) if s < 0]


def combine_cycles_ratio(
    c1: CycleStats, c2: CycleStats, c3: CycleStats
) -> tuple[int, int]:
    """Repetition counts (k1, k3) of the outer cycles whose combined
    effect/length ratio equals the middle cycle's slope.

    Requires slope(c1) <= slope(c2) <= slope(c3); the result is reduced by the
    gcd and never both zero.
    """
    if not (c1.slope <= c2.slope <= c3.slope):
        raise ValueError("cycle slopes must be ordered")
    if c1.slope == c2.slope:
        return (1, 0)
    if c3.slope == c2.slope:
        return (0, 1)
    k1 = c2.length * c3.effect - c3.length * c2.effect
    k3 = c1.length * c2.effect - c2.length * c1.effect
    g = math.gcd(k1, k3)
    return (k1 // g, k3 // g)


def adjust_length(
    c1: CycleStats, c2: CycleStats, x: int, b: int | None = None
) -> tuple[int, int]:
    """Signed repetition deltas (k1, k2) that change a path's length by
    exactly ``x`` while keeping its net effect unchanged.

    Positive entries add copies, negative remove.  Requires strictly ordered
    slopes.  When ``b`` is given, enforces the stronger divisibility
    x = 0 mod lcm[1..2b^2] (which guarantees integrality); otherwise
    integrality itself is checked.
    """
    if not c1.slope < c2.slope:
        raise ValueError("cycle slopes must be strictly ordered")
    det = c2.effect * c1.length - c1.effect * c2.length
    assert det > 0
    if b is not None:
        if max(c1.length, c2.length) > b:
            raise ValueError("cycle longer than the configured bound")
        modulus = math.lcm(*range(1, 2 * b * b + 1))
        if x % modulus:
            raise ValueError(f"length delta must be divisible by lcm[1..{2 * b * b}]")
    if (x * c2.effect) % det or (x * c1.effect) % det:
        raise ValueError("length delta not divisible by the cycle determinant")
    k1 = x * c2.effect // det
    k2 = -x * c1.effect // det
    return (k1, k2)


class _SchemeSearch:
    """One ``enumerate_lps`` search.  The depth-first walk keeps the scheme
    on two stacks: ``words`` holds ``alpha0``, then the cycle and the path of
    each segment, and ``pieces`` holds each word read as a ``Piece``.  The
    last entry of both is the path being extended, one ``_extend`` per
    appended transition.

    With ``reach`` given, a third stack holds one frontier per star:
    ``frontiers[k - 1]`` maps (counter, length left) at the entry of star k
    to the least exponent prefix that gets there, in ascending prefix order.
    Two prefixes with the same key have the same continuations, so only the
    least one is kept.  Frontier k + 1 is frontier k stepped through cycle k
    and then tail k, built once when cycle k + 1 is pushed; a yielded
    scheme of size k reads its reach off frontier k with ``_last_star``."""

    def __init__(self, oca: Oca, start_state: int, end_state: int, flat_len_bound: int,
                 reach: Reach | None = None):
        self.oca = oca
        self.start_state = start_state
        self.end_state = end_state
        self.flat_len_bound = flat_len_bound
        self.by_src: dict[int, list[int]] = {}
        for i, t in enumerate(oca.transitions):
            self.by_src.setdefault(t.src, []).append(i)
        # fewest transitions from each state to ``end_state``: a node with
        # less flat length left than that yields no scheme
        self.steps_to_end = [math.inf] * oca.n_states
        self.steps_to_end[end_state] = 0
        for k in range(1, oca.n_states):
            for t in oca.transitions:
                if self.steps_to_end[t.dst] == k - 1 and self.steps_to_end[t.src] > k:
                    self.steps_to_end[t.src] = k
        self.cycles: dict[int, list[tuple[tuple[int, ...], Piece]]] = {}
        self.words: list = [[]]
        self.pieces: list[Piece] = [_empty_piece(start_state)]
        self.reach = reach
        self.frontiers: list[dict[tuple[int, int], tuple[int, ...]]] = []
        self.live = 0  # entries on the frontier stack
        self.budget = environment_budget() if reach is not None else 0

    def schemes(self, state: int, flat_left: int, size_left: int) -> Iterator[Lps]:
        """The schemes that extend the stacks from ``state``, in the order
        ``enumerate_lps`` promises; a child whose state cannot reach
        ``end_state`` within the flat length it would have is skipped."""
        words, pieces, steps_to_end = self.words, self.pieces, self.steps_to_end
        if state == self.end_state:
            yield Lps(
                self.start_state,
                tuple(words[0]),
                tuple(zip(words[1::2], map(tuple, words[2::2]))),
                (self.oca, pieces[0], tuple(zip(pieces[1::2], pieces[2::2])), self.reach,
                 None if self.reach is None else self.table()),
            )
        if flat_left > 0:
            tail, piece = words[-1], pieces[-1]
            transitions = self.oca.transitions
            for idx in self.by_src.get(state, ()):
                t = transitions[idx]
                if steps_to_end[t.dst] < flat_left:
                    tail.append(idx)
                    pieces[-1] = _extend(piece, t)
                    yield from self.schemes(t.dst, flat_left - 1, size_left)
                    tail.pop()
            pieces[-1] = piece
        if size_left > 0:
            frontiers = self.frontiers
            for beta, cycle in self.cycles_at(state):
                left = flat_left - len(beta)
                if steps_to_end[state] <= left:
                    if self.reach is not None:
                        frontier = self.next_frontier()
                        self.live += len(frontier)
                        frontiers.append(frontier)
                    words += (beta, [])
                    pieces += (cycle, _empty_piece(state))
                    yield from self.schemes(state, left, size_left - 1)
                    del words[-2:], pieces[-2:]
                    if self.reach is not None:
                        self.live -= len(frontiers.pop())

    def next_frontier(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The frontier at the entry of the star about to be pushed: the start
        read through ``alpha0``, or the top frontier stepped through e =
        0..exp_cap repetitions of the top cycle and then the path after it.
        Raises ``BudgetExceededError`` once the stack would hold more entries
        than ``OCASYNC_BUDGET``; the count is taken after each entry of the
        top frontier is stepped."""
        start, target_length, exp_cap = self.reach
        tail = self.pieces[-1]
        if not self.frontiers:
            if (start.state != self.start_state or tail.length > target_length
                    or not tail.lo <= start.counter <= tail.hi):
                return {}
            return {(start.counter + tail.delta, target_length - tail.length): ()}
        cycle = self.pieces[-2]
        c_len, c_delta, c_lo, c_hi = cycle.length, cycle.delta, cycle.lo, cycle.hi
        t_len, t_delta, t_lo, t_hi = tail.length, tail.delta, tail.lo, tail.hi
        room = self.budget - self.live
        frontier: dict[tuple[int, int], tuple[int, ...]] = {}
        for (v, left), exps in self.frontiers[-1].items():
            left -= t_len  # the length left after e = 0 cycles and the tail
            if left < 0:
                continue
            e = 0
            while True:
                if t_lo <= v <= t_hi:
                    key = (v + t_delta, left)
                    if key not in frontier:
                        frontier[key] = (*exps, e)
                if e >= exp_cap or left < c_len or not c_lo <= v <= c_hi:
                    break
                v += c_delta
                left -= c_len
                e += 1
            if len(frontier) > room:
                check_budget("lps frontier needs", self.live + len(frontier), "entries",
                             self.budget)
        return frontier

    def table(self) -> ReachTable:
        """The shaped reach of the scheme on the stacks: end configuration ->
        least exponent vector, first hit first."""
        start, target_length, exp_cap = self.reach
        table: ReachTable = {}
        if not self.frontiers:
            first = self.pieces[0]
            if (start.state == self.start_state and first.length == target_length
                    and first.lo <= start.counter <= first.hi):
                table[Configuration(first.dst, start.counter + first.delta)] = ()
            return table
        cycle, tail = self.pieces[-2], self.pieces[-1]
        end_state = self.end_state
        for (v, left), exps in self.frontiers[-1].items():
            hit = _last_star(cycle, tail, v, left, exp_cap)
            if hit is not None:
                end = Configuration(end_state, hit[1])
                if end not in table:
                    table[end] = (*exps, hit[0])
        return table

    def cycles_at(self, state: int) -> list[tuple[tuple[int, ...], Piece]]:
        """Each simple cycle at ``state`` (no repeated intermediate state) of
        at most ``flat_len_bound`` transitions with its piece, depth first
        over transition indices, searched once per state.  The search stops
        at depth ``flat_len_bound``, so a node with less flat length left
        skipping the longer cycles sees the cycles, in the same order, that
        a search bounded there would find."""
        if state not in self.cycles:
            self.cycles[state] = [
                (beta, _piece(self.oca, state, beta))
                for beta in self._cycle_words(state, state, [], {state})
            ]
        return self.cycles[state]

    def _cycle_words(
        self, home: int, current: int, path: list[int], visited: set[int],
    ) -> Iterator[tuple[int, ...]]:
        if len(path) >= self.flat_len_bound:
            return
        for idx in self.by_src.get(current, ()):
            dst = self.oca.transitions[idx].dst
            if dst == home:
                yield tuple(path + [idx])
            elif dst not in visited:
                visited.add(dst)
                yield from self._cycle_words(home, dst, path + [idx], visited)
                visited.remove(dst)


def enumerate_lps(
    oca: Oca,
    start_state: int,
    end_state: int,
    flat_len_bound: int,
    size_bound: int,
    reach: Reach | None = None,
) -> Iterator[Lps]:
    """Every scheme from start to end within both bounds, exactly once,
    in a deterministic depth-first order over transition indices.  Each
    scheme carries its pieces, so ``Lps.pieces(oca)`` reads it for free.
    With ``reach=(start, target_length, exp_cap)`` each scheme also carries
    its shaped reach from there, and ``shaped_reach`` and
    ``shaped_witness_exponents`` with those arguments read it for free."""
    search = _SchemeSearch(oca, start_state, end_state, flat_len_bound, reach)
    if search.steps_to_end[start_state] <= flat_len_bound:
        yield from search.schemes(start_state, flat_len_bound, size_bound)


def _shaped_paths(
    oca: Oca,
    scheme: Lps,
    start: Configuration,
    target_length: int,
    exp_cap: int,
) -> Iterator[tuple[Configuration, tuple[int, ...]]]:
    """(end configuration, exponent vector) of every valid shaped path of
    exactly ``target_length``, every star instantiated at most ``exp_cap``
    times; depth-first, so exponent vectors come in ascending lexicographic
    order.  Raises ``ValueError`` where ``Lps.pieces`` does."""
    first, segments = scheme.pieces(oca)
    if (scheme.start_state != start.state or first.length > target_length
            or not first.lo <= start.counter <= first.hi):
        return
    v, remaining = start.counter + first.delta, target_length - first.length
    if len(segments) > 1:
        yield from _StarSearch(segments, exp_cap).paths(0, v, remaining)
    elif segments:
        hit = _last_star(*segments[0], v, remaining, exp_cap)
        if hit is not None:
            yield Configuration(segments[0][1].dst, hit[1]), (hit[0],)
    elif remaining == 0:
        yield Configuration(first.dst, v), ()


def _last_star(
    cycle: Piece, tail: Piece, v: int, remaining: int, exp_cap: int,
) -> tuple[int, int] | None:
    """(e, end counter) for the one exponent e with which the last star and
    its tail, entered at counter v, use up ``remaining`` exactly; None if e
    is not an integer in [0, exp_cap] or the path is not walkable.  The
    cycle starts from the counters v, v + delta, ..., v + (e - 1) * delta,
    so it is walkable e times iff it is from both ends of that run."""
    e, rest = divmod(remaining - tail.length, cycle.length)
    if rest or not 0 <= e <= exp_cap:
        return None
    if e and not (cycle.lo <= v <= cycle.hi
                  and cycle.lo <= v + (e - 1) * cycle.delta <= cycle.hi):
        return None
    v += e * cycle.delta
    if not tail.lo <= v <= tail.hi:
        return None
    return e, v + tail.delta


class _StarSearch:
    """The exponent search of ``_shaped_paths`` over two or more stars: one
    loop per star but the last, whose exponent ``_last_star`` solves for."""

    def __init__(self, segments: SegmentPieces, exp_cap: int):
        self.segments = segments
        self.exp_cap = exp_cap
        self.end_state = segments[-1][1].dst
        # need[j]: the flat length that the tails of segments j.. take up
        self.need = need = [0] * (len(segments) + 1)
        for j in range(len(segments) - 1, -1, -1):
            need[j] = need[j + 1] + segments[j][1].length
        self.exps: list[int] = []

    def paths(self, j: int, v: int, remaining: int) -> Iterator[tuple[Configuration, tuple[int, ...]]]:
        """The paths through stars j.., for j before the last star."""
        cycle, tail = self.segments[j]
        # the length the stars j.. may take; past it the tails to come cannot fit
        room = remaining - self.need[j]
        if room < 0:
            return
        exps, exp_cap = self.exps, self.exp_cap
        next_is_last = j + 2 == len(self.segments)
        e = 0
        while True:
            if tail.lo <= v <= tail.hi:
                left = remaining - e * cycle.length - tail.length
                if next_is_last:
                    hit = _last_star(*self.segments[j + 1], v + tail.delta, left, exp_cap)
                    if hit is not None:
                        yield Configuration(self.end_state, hit[1]), (*exps, e, hit[0])
                else:
                    exps.append(e)
                    yield from self.paths(j + 1, v + tail.delta, left)
                    exps.pop()
            if e >= exp_cap or (e + 1) * cycle.length > room or not cycle.lo <= v <= cycle.hi:
                return
            v += cycle.delta
            e += 1


def _built_table(
    oca: Oca, scheme: Lps, start: Configuration, target_length: int, exp_cap: int,
) -> ReachTable | None:
    """The reach table ``enumerate_lps`` built for this ``oca`` and these
    arguments, or None."""
    built = scheme.built
    if built is not None and built[0] is oca and built[3] == (start, target_length, exp_cap):
        return built[4]
    return None


def shaped_reach(
    oca: Oca,
    scheme: Lps,
    start: Configuration,
    target_length: int,
    exp_cap: int,
) -> set[Configuration]:
    """End configurations of valid shaped paths of exactly ``target_length``,
    with every star instantiated at most ``exp_cap`` times."""
    if target_length < 0:
        raise InputError("target length must be non-negative")
    table = _built_table(oca, scheme, start, target_length, exp_cap)
    if table is not None:
        return set(table)
    return {end for end, _ in _shaped_paths(oca, scheme, start, target_length, exp_cap)}


def shaped_witness_exponents(
    oca: Oca,
    scheme: Lps,
    start: Configuration,
    target: Configuration,
    target_length: int,
    exp_cap: int,
) -> tuple[int, ...] | None:
    """The least exponent vector whose shaped path reaches ``target``; None if none."""
    table = _built_table(oca, scheme, start, target_length, exp_cap)
    if table is not None:
        return table.get(target)
    for end, exps in _shaped_paths(oca, scheme, start, target_length, exp_cap):
        if end == target:
            return exps
    return None


def analyze_cycle_repetitions(
    oca: Oca, scheme: Lps, exponents: list[int]
) -> dict[Fraction, int]:
    """Aggregate star instantiation counts per cycle slope."""
    if len(exponents) != scheme.size:
        raise ValueError("one exponent per cycle required")
    totals: dict[Fraction, int] = {}
    for stats, e in zip(scheme.cycle_stats(oca), exponents):
        totals[stats.slope] = totals.get(stats.slope, 0) + e
    return totals


def compress_path_with_exponents(
    oca: Oca, start_state: int, path: tuple[int, ...]
) -> tuple[Lps, tuple[int, ...]]:
    """Fold maximal runs of immediately repeated cycles into stars.

    Returns the scheme together with the observed repetition count per star;
    instantiating the stars with those exponents reproduces the path, and the
    scheme's flat length is usually much smaller than the path's.
    """
    states = [start_state]
    for idx in path:
        states.append(oca.transitions[idx].dst)
    alpha0: list[int] = []
    segments: list[tuple[tuple[int, ...], list[int]]] = []
    exponents: list[int] = []
    tail = alpha0
    i = 0
    n = len(path)
    while i < n:
        folded = False
        for length in range(1, (n - i) // 2 + 1):
            if states[i] != states[i + length]:
                continue
            block = path[i : i + length]
            reps = 1
            while (
                i + (reps + 1) * length <= n
                and path[i + reps * length : i + (reps + 1) * length] == block
            ):
                reps += 1
            if reps >= 2:
                segments.append((block, []))
                exponents.append(reps)
                tail = segments[-1][1]
                i += reps * length
                folded = True
                break
        if not folded:
            tail.append(path[i])
            i += 1
    scheme = Lps(start_state, tuple(alpha0), tuple((b, tuple(a)) for b, a in segments))
    return scheme, tuple(exponents)

