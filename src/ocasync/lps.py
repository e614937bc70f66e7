"""Linear path schemes and cycle arithmetic.

A scheme is an expression ``a0 b1* a1 ... bk* ak`` over the transitions of an
automaton, where the ``a`` pieces are plain transition sequences and each
``b`` piece is a cycle.  A concrete path is shaped by the scheme if it
instantiates every star with a concrete repetition count.  Each piece is
read once, as counter arithmetic (``Piece``: its effect, and the counters its
guards allow it to start from): ``enumerate_lps`` reads a scheme while it
builds it, one step per transition.  It is one depth-first loop over an
explicit stack of tuples.  Each node carries its finished prefix
(``alpha0``, the finished segments and their pieces), built once when a
node pushes its stars and shared by every scheme below them, so a yielded
scheme appends its last segment and piece pair to it and reads nothing
else.  Shaped reach is one frontier fold, (counter, length left) -> least
exponent prefix, stepped through each star and its tail in turn, with the
last star's exponent solved for.  Asked for a reach, ``enumerate_lps`` runs
the fold incrementally: each node also carries its own frontier, the one at
the entry of its last star, so no stack is shared between siblings.
``shaped_reach`` and ``shaped_witness_exponents`` run the fold whole for
any other scheme.  Nothing refers to itself, so a finished or dropped
search leaves no cyclic garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import InputError, check_budget, environment_budget
from .oca import Configuration, Oca, Transition, ZERO, steps_to


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
# (counter, length left) at the entry of a star -> least exponent prefix that
# gets there, in ascending prefix order
Frontier = dict[tuple[int, int], tuple[int, ...]]


@dataclass(unsafe_hash=True, slots=True)
class Lps:
    """``alpha0`` then ``segments`` of (cycle, following path), all state-chained.

    ``built`` is ``(oca, alpha0 piece, segment pieces, reach, table)`` when
    ``enumerate_lps`` read the scheme while building it; ``table`` is the
    scheme's shaped reach from ``reach``, the frontier fold that the
    enumeration ran as it pushed each star (both None when no reach was
    asked for).  It takes no part in equality, hashing or repr.

    A scheme is treated as immutable: it is hashed by value.  It is not
    frozen, because a frozen dataclass pays an ``object.__setattr__`` per
    field for each of the many schemes an enumeration builds."""

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


def _first_frontier(first: Piece, start_state: int, reach: Reach) -> Frontier:
    """The frontier at the entry of the first star: the start of ``reach``
    read through ``alpha0``, whose piece ``first`` starts at ``start_state``."""
    start, target_length, _ = reach
    if (start.state != start_state or first.length > target_length
            or not first.lo <= start.counter <= first.hi):
        return {}
    return {(start.counter + first.delta, target_length - first.length): ()}


def _next_frontier(frontier: Frontier, cycle: Piece, tail: Piece, exp_cap: int,
                   live: int, budget: int) -> Frontier:
    """``frontier`` stepped through e = 0..exp_cap repetitions of ``cycle``
    and then ``tail``, the first prefix per key kept.  Raises
    ``BudgetExceededError`` once ``live`` entries already held and the new
    frontier would pass ``budget``; the count is taken after each entry of
    ``frontier`` is stepped."""
    c_len, c_delta, c_lo, c_hi = cycle.length, cycle.delta, cycle.lo, cycle.hi
    t_len, t_delta, t_lo, t_hi = tail.length, tail.delta, tail.lo, tail.hi
    room = budget - live
    stepped: Frontier = {}
    for (v, left), exps in frontier.items():
        left -= t_len  # the length left after e = 0 cycles and the tail
        if left < 0:
            continue
        e = 0
        while True:
            if t_lo <= v <= t_hi:
                key = (v + t_delta, left)
                if key not in stepped:
                    stepped[key] = (*exps, e)
            if e >= exp_cap or left < c_len or not c_lo <= v <= c_hi:
                break
            v += c_delta
            left -= c_len
            e += 1
        if len(stepped) > room:
            check_budget("lps frontier needs", live + len(stepped), "entries", budget)
    return stepped


def _ends(frontier: Frontier, cycle: Piece | None, tail: Piece, exp_cap: int) -> ReachTable:
    """The shaped reach read off the frontier at the entry of the last star:
    end configuration -> least exponent vector, first hit first.  With a
    last star ``cycle`` and its ``tail``, ``_last_star`` on each entry; with
    none, ``frontier`` is the first one (``tail`` is ``alpha0``'s piece) and
    its entries with no length left are the ends."""
    end_state = tail.dst
    table: ReachTable = {}
    if cycle is None:
        for (v, left), exps in frontier.items():
            if left == 0:
                table[Configuration(end_state, v)] = exps
        return table
    for (v, left), exps in frontier.items():
        hit = _last_star(cycle, tail, v, left, exp_cap)
        if hit is not None:
            end = Configuration(end_state, hit[1])
            if end not in table:
                table[end] = (*exps, hit[0])
    return table


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


def _cycle_words(
    transitions: list[Transition], by_src: dict[int, list[int]], bound: int,
    home: int, current: int, path: list[int], visited: set[int],
) -> Iterator[tuple[int, ...]]:
    """Each simple cycle at ``home`` (no repeated intermediate state) of at
    most ``bound`` transitions that extends ``path``, a walk from ``home`` to
    ``current`` through ``visited``, depth first over transition indices."""
    if len(path) >= bound:
        return
    for idx in by_src.get(current, ()):
        dst = transitions[idx].dst
        if dst == home:
            yield tuple(path + [idx])
        elif dst not in visited:
            visited.add(dst)
            yield from _cycle_words(transitions, by_src, bound, home, dst, path + [idx], visited)
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
    With ``reach=(start, target_length, exp_cap)`` the search runs the
    frontier fold of ``shaped_reach`` incrementally, one frontier per star
    pushed, and each scheme carries its shaped reach from there:
    ``shaped_reach`` and ``shaped_witness_exponents`` with those arguments
    read it for free.

    The search is one loop over an explicit stack of nodes.  A node is the
    path being extended, a tuple of transition indices with its ``Piece``
    (one ``_extend`` per appended transition); the finished prefix before
    it: None while the path is ``alpha0``, else ``(alpha0, its piece, the
    finished (beta, alpha) segments, their (cycle, tail) pieces, the last
    star's cycle word, its piece)``; and the flat length and size it has
    left.  Every part of a prefix is a tuple, built once when a node pushes
    its stars and shared by all the schemes below them, so a yield costs one
    tuple concatenation for the segments and one for their pieces.  A node
    yields its scheme if it is at ``end_state``, then pushes itself again,
    marked as its stars entry, and its transition children on top, so its
    stars are pushed only after every transition child's subtree.  A child
    whose state cannot reach ``end_state`` within the flat length it would
    have is not pushed.  The cycles at each state are searched once, to depth
    ``flat_len_bound``, so a node with less flat length left, skipping the
    longer cycles, sees the cycles that a search bounded there would find,
    in the same order.

    With ``reach`` given, a node also carries the frontier at the entry of
    its last star, which maps (counter, length left) there to the least
    exponent prefix that gets there, in ascending prefix order, and the
    number of entries held on the frontiers of its path.  Two prefixes with
    the same key have the same continuations, so only the least one is
    kept.  The first frontier is ``_first_frontier`` of ``alpha0``, and the
    next is ``_next_frontier`` of the node's through its last cycle and its
    path.  Neither depends on the star being pushed, so a stars entry builds
    it once for all its stars, after every transition child's subtree and
    only if some cycle fits there.  A yielded scheme reads its reach
    off its frontier with ``_ends``.  Nothing is reached below an empty
    frontier, so there neither is called: the next frontier is the empty
    one, and a scheme's table is empty."""
    transitions = oca.transitions
    by_src: dict[int, list[int]] = {}
    for i, t in enumerate(transitions):
        by_src.setdefault(t.src, []).append(i)
    # fewest transitions from each state to ``end_state``: a node with less
    # flat length left than that yields no scheme
    steps_to_end = steps_to(oca, {end_state})
    if steps_to_end[start_state] > flat_len_bound:
        return
    cycles: dict[int, list[tuple[tuple[int, ...], Piece]]] = {}
    budget = environment_budget() if reach is not None else 0
    # (stars entry?, path, piece, prefix, flat left, size left, frontier, entries held)
    stack = [(False, (), _empty_piece(start_state), None, flat_len_bound, size_bound, None, 0)]
    while stack:
        stars, path, piece, done, flat_left, size_left, frontier, held = stack.pop()
        state = piece.dst
        if stars:
            if state not in cycles:
                cycles[state] = [(beta, _piece(oca, state, beta)) for beta in _cycle_words(
                    transitions, by_src, flat_len_bound, state, state, [], {state})]
            room = flat_left - steps_to_end[state]
            fitting = [(beta, cycle) for beta, cycle in cycles[state] if len(beta) <= room]
            if not fitting:
                continue
            if done is None:
                prefix = (path, piece, (), ())
                if reach is not None:
                    frontier = _first_frontier(piece, start_state, reach)
            else:
                alpha0, first, segments, pairs, beta, cycle = done
                prefix = (alpha0, first, segments + ((beta, path),), pairs + ((cycle, piece),))
                if reach is not None:
                    frontier = frontier and _next_frontier(
                        frontier, cycle, piece, reach[2], held, budget)
            if reach is not None:
                held += len(frontier)
            empty = _empty_piece(state)
            for beta, cycle in reversed(fitting):
                stack.append((False, (), empty, (*prefix, beta, cycle), flat_left - len(beta),
                              size_left - 1, frontier, held))
            continue
        if state == end_state:
            table = None
            if done is None:
                if reach is not None:
                    first_frontier = _first_frontier(piece, start_state, reach)
                    table = _ends(first_frontier, None, piece, reach[2]) if first_frontier else {}
                yield Lps(start_state, path, (), (oca, piece, (), reach, table))
            else:
                alpha0, first, segments, pairs, beta, cycle = done
                if reach is not None:
                    table = _ends(frontier, cycle, piece, reach[2]) if frontier else {}
                yield Lps(start_state, alpha0, segments + ((beta, path),),
                          (oca, first, pairs + ((cycle, piece),), reach, table))
        if size_left > 0:
            stack.append((True, path, piece, done, flat_left, size_left, frontier, held))
        if flat_left > 0:
            for idx in reversed(by_src.get(state, ())):
                t = transitions[idx]
                if steps_to_end[t.dst] < flat_left:
                    stack.append((False, path + (idx,), _extend(piece, t), done, flat_left - 1,
                                  size_left, frontier, held))


def _reach_table(
    oca: Oca, scheme: Lps, start: Configuration, target_length: int, exp_cap: int,
) -> ReachTable:
    """The shaped reach of ``scheme``: the table ``enumerate_lps`` carried
    for this ``oca`` and these arguments, else the frontier folded over the
    scheme's pieces.  Raises ``ValueError`` where ``Lps.pieces`` does."""
    built, reach = scheme.built, (start, target_length, exp_cap)
    if built is not None and built[0] is oca and built[3] == reach:
        return built[4]
    first, segments = scheme.pieces(oca)
    frontier = _first_frontier(first, scheme.start_state, reach)
    if not segments:
        return _ends(frontier, None, first, exp_cap)
    if len(segments) > 1:
        # only the frontier being stepped is held beside the one being built
        budget = environment_budget()
        for cycle, tail in segments[:-1]:
            frontier = _next_frontier(frontier, cycle, tail, exp_cap, len(frontier), budget)
    return _ends(frontier, *segments[-1], exp_cap)


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
    return set(_reach_table(oca, scheme, start, target_length, exp_cap))


def shaped_witness_exponents(
    oca: Oca,
    scheme: Lps,
    start: Configuration,
    target: Configuration,
    target_length: int,
    exp_cap: int,
) -> tuple[int, ...] | None:
    """The least exponent vector whose shaped path reaches ``target``; None if none."""
    return _reach_table(oca, scheme, start, target_length, exp_cap).get(target)


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

