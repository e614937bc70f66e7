"""Linear path schemes and cycle arithmetic.

A scheme is an expression ``a0 b1* a1 ... bk* ak`` over the transitions of an
automaton, where the ``a`` pieces are plain transition sequences and each
``b`` piece is a cycle.  A concrete path is shaped by the scheme if it
instantiates every star with a concrete repetition count.  Each piece is
read once, as counter arithmetic (``Piece``: its effect, and the counters its
guards allow it to start from); the shaped search steps plain int counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import InputError
from .oca import Configuration, Oca, ZERO


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


def _piece(oca: Oca, state: int, seq: tuple[int, ...]) -> Piece:
    """``seq`` read from ``state``.  With o the offset before a step, ``=0``
    needs v + o == 0 and ``>0`` needs v + o >= 1; no decrement is zero-guarded
    on a valid automaton, so ``lo >= 0`` keeps every counter non-negative."""
    o, lo, hi = 0, 0, math.inf
    for idx in seq:
        t = oca.transitions[idx]
        if t.src != state:
            raise ValueError(f"transition {idx} breaks the state chain")
        if t.guard == ZERO:
            lo, hi = max(lo, -o), min(hi, -o)
        else:
            lo = max(lo, 1 - o)
        o += t.effect
        state = t.dst
    return Piece(len(seq), state, o, lo, hi)


@dataclass(frozen=True)
class Lps:
    """``alpha0`` then ``segments`` of (cycle, following path), all state-chained."""

    start_state: int
    alpha0: tuple[int, ...]
    segments: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def flat_length(self) -> int:
        return len(self.alpha0) + sum(len(b) + len(a) for b, a in self.segments)

    @property
    def size(self) -> int:
        return len(self.segments)

    def pieces(self, oca: Oca) -> tuple[Piece, list[tuple[Piece, Piece]]]:
        """The ``alpha0`` piece and one (cycle, tail) pair per segment; raises
        ``ValueError`` on a broken state chain, an empty or an open cycle."""
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
        return first, segments

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


def _simple_cycles(
    oca: Oca, by_src: dict[int, list[int]], state: int, max_len: int,
) -> Iterator[tuple[int, ...]]:
    """Simple cycles at ``state`` (no repeated intermediate state) of at most
    ``max_len`` transitions, depth first over transition indices; ``by_src``
    lists the transition indices leaving each state.  The DFS stops at depth
    ``max_len``, so a smaller bound yields the same cycles, in the same order,
    as a larger bound filtered by length."""

    def dfs(current: int, path: list[int], visited: set[int]) -> Iterator[tuple[int, ...]]:
        if len(path) >= max_len:
            return
        for idx in by_src.get(current, ()):
            dst = oca.transitions[idx].dst
            if dst == state:
                yield tuple(path + [idx])
            elif dst not in visited:
                visited.add(dst)
                yield from dfs(dst, path + [idx], visited)
                visited.remove(dst)

    yield from dfs(state, [], {state})


def enumerate_lps(
    oca: Oca,
    start_state: int,
    end_state: int,
    flat_len_bound: int,
    size_bound: int,
) -> Iterator[Lps]:
    """Every scheme from start to end within both bounds, exactly once,
    in a deterministic depth-first order over transition indices."""
    by_src: dict[int, list[int]] = {}
    for i, t in enumerate(oca.transitions):
        by_src.setdefault(t.src, []).append(i)
    # each state's cycles at the full bound, once; a node with less flat
    # length left skips the longer ones (see ``_simple_cycles``)
    cycles: dict[int, list[tuple[int, ...]]] = {}

    def rec(
        state: int, alpha0: list[int],
        segments: list[tuple[tuple[int, ...], list[int]]],
        flat_left: int, size_left: int,
    ) -> Iterator[Lps]:
        if state == end_state:
            yield Lps(
                start_state,
                tuple(alpha0),
                tuple((beta, tuple(alpha)) for beta, alpha in segments),
            )
        tail = alpha0 if not segments else segments[-1][1]
        if flat_left > 0:
            for idx in by_src.get(state, ()):
                tail.append(idx)
                yield from rec(oca.transitions[idx].dst, alpha0, segments, flat_left - 1, size_left)
                tail.pop()
        if size_left > 0:
            if state not in cycles:
                cycles[state] = list(_simple_cycles(oca, by_src, state, flat_len_bound))
            for beta in cycles[state]:
                if len(beta) > flat_left:
                    continue
                segments.append((beta, []))
                yield from rec(state, alpha0, segments, flat_left - len(beta), size_left - 1)
                segments.pop()

    yield from rec(start_state, [], [], flat_len_bound, size_bound)


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
    end_state = segments[-1][1].dst if segments else first.dst
    last = len(segments) - 1
    exps: list[int] = []

    def rec(j: int, v: int, remaining: int):
        if j > last:
            if remaining == 0:
                yield Configuration(end_state, v), tuple(exps)
            return
        cycle, tail = segments[j]
        e = 0
        while True:
            left = remaining - e * cycle.length - tail.length
            # after the last segment the length must be used up exactly
            if (left == 0 or (left > 0 and j < last)) and tail.lo <= v <= tail.hi:
                exps.append(e)
                yield from rec(j + 1, v + tail.delta, left)
                exps.pop()
            if (e >= exp_cap or (e + 1) * cycle.length > remaining
                    or not cycle.lo <= v <= cycle.hi):
                return
            v += cycle.delta
            e += 1

    yield from rec(0, start.counter + first.delta, target_length - first.length)


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

