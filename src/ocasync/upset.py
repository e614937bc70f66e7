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
