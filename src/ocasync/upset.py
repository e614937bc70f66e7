"""Ultimately periodic subsets of the naturals.

A set is stored as an explicit ``base`` below a ``threshold`` plus a set of
``residues`` modulo a ``period`` that governs every value from the threshold
on (the threshold itself included).  These are exactly the one-dimensional
semilinear sets, i.e. finite unions of arithmetic progressions, and they
carry the per-state satisfaction sets computed by the checker.

``normalize`` produces a canonical representative (minimal divisor period,
then minimal threshold), so structural equality of normalized values is
extensional equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class UpSet:
    threshold: int
    period: int
    base: frozenset[int]
    residues: frozenset[int]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if any(v < 0 or v >= self.threshold for v in self.base):
            raise ValueError("base members must lie in [0, threshold)")
        if any(r < 0 or r >= self.period for r in self.residues):
            raise ValueError("residues must lie in [0, period)")

    def member(self, v: int) -> bool:
        if v < 0:
            raise ValueError("values are non-negative")
        if v < self.threshold:
            return v in self.base
        return (v % self.period) in self.residues

    def to_json(self) -> dict:
        return {
            "t": self.threshold,
            "p": self.period,
            "base": sorted(self.base),
            "residues": sorted(self.residues),
        }

    @staticmethod
    def from_json(doc: dict) -> "UpSet":
        return UpSet(doc["t"], doc["p"], frozenset(doc["base"]), frozenset(doc["residues"]))


def empty() -> UpSet:
    return UpSet(0, 1, frozenset(), frozenset())


def full() -> UpSet:
    return UpSet(0, 1, frozenset(), frozenset({0}))


def singleton(v: int) -> UpSet:
    return UpSet(v + 1, 1, frozenset({v}), frozenset())


def normalize(u: UpSet) -> UpSet:
    """Canonical form: minimal divisor period, then minimal threshold."""
    # shrink the period to the smallest divisor under which residues are stable
    p = u.period
    residues = u.residues
    for d in range(1, p + 1):
        if p % d:
            continue
        projected = {r % d for r in residues}
        if all((x in residues) == ((x % d) in projected) for x in range(p)):
            p, residues = d, frozenset(projected)
            break
    # pull the threshold down while the boundary value behaves periodically
    t = u.threshold
    base = set(u.base)
    while t > 0 and ((t - 1) in base) == (((t - 1) % p) in residues):
        t -= 1
        base.discard(t)
    return UpSet(t, p, frozenset(base), frozenset(residues))


def _lift(u: UpSet, t: int, p: int) -> tuple[frozenset[int], frozenset[int]]:
    """Re-express u with a larger threshold and a multiple period."""
    assert t >= u.threshold and p % u.period == 0
    base = frozenset(v for v in range(t) if u.member(v))
    residues = frozenset(r for r in range(p) if (r % u.period) in u.residues)
    return base, residues


def complement(u: UpSet) -> UpSet:
    return normalize(
        UpSet(
            u.threshold,
            u.period,
            frozenset(range(u.threshold)) - u.base,
            frozenset(range(u.period)) - u.residues,
        )
    )


def union(a: UpSet, b: UpSet) -> UpSet:
    t = max(a.threshold, b.threshold)
    p = math.lcm(a.period, b.period)
    base_a, res_a = _lift(a, t, p)
    base_b, res_b = _lift(b, t, p)
    return normalize(UpSet(t, p, base_a | base_b, res_a | res_b))


def intersect(a: UpSet, b: UpSet) -> UpSet:
    t = max(a.threshold, b.threshold)
    p = math.lcm(a.period, b.period)
    base_a, res_a = _lift(a, t, p)
    base_b, res_b = _lift(b, t, p)
    return normalize(UpSet(t, p, base_a & base_b, res_a & res_b))


def bool_op(kind: str, a: UpSet, b: UpSet | None = None) -> UpSet:
    """Dispatch on UNION / INTERSECT / COMPLEMENT."""
    if kind == "COMPLEMENT":
        if b is not None:
            raise ValueError("complement is unary")
        return complement(a)
    if b is None:
        raise ValueError(f"{kind} is binary")
    if kind == "UNION":
        return union(a, b)
    if kind == "INTERSECT":
        return intersect(a, b)
    raise ValueError(f"unknown operation {kind!r}")


def from_progressions(progs: list[tuple[int, int]]) -> UpSet:
    """Union of arithmetic progressions ``offset + k*stride``; stride 0 is a singleton."""
    for off, stride in progs:
        if off < 0 or stride < 0:
            raise ValueError("offsets and strides must be non-negative")
    if not progs:
        return empty()
    p = math.lcm(*[s for _, s in progs if s > 0]) if any(s > 0 for _, s in progs) else 1
    t = max(off + 1 if s == 0 else off for off, s in progs)
    base = frozenset(
        v
        for v in range(t)
        if any(
            (s == 0 and v == off) or (s > 0 and v >= off and (v - off) % s == 0)
            for off, s in progs
        )
    )
    residues = frozenset(
        r for r in range(p) if any(s > 0 and (r - off) % s == 0 for off, s in progs)
    )
    return normalize(UpSet(t, p, base, residues))


def to_progressions(u: UpSet) -> list[tuple[int, int]]:
    """Uniform-period decomposition: singletons for the base, stride ``period`` tails.

    Every emitted offset is below ``threshold + period``.
    """
    out = [(v, 0) for v in sorted(u.base)]
    for r in sorted(u.residues):
        off = u.threshold + ((r - u.threshold) % u.period)
        out.append((off, u.period))
    return out


def tp_class(u: int, t: int, p: int) -> tuple[int, int]:
    """The class of ``u`` under ``tp_equivalent``: ``u`` itself below the
    threshold, its residue modulo the period at or above it."""
    if p < 1:
        raise ValueError("period must be positive")
    return (0, u) if u < t else (1, u % p)


def tp_equivalent(u: int, v: int, t: int, p: int) -> bool:
    """Equivalence used for end-counter comparisons: equal below the threshold,
    congruent modulo the period at or above it."""
    return tp_class(u, t, p) == tp_class(v, t, p)
