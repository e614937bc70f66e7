"""Periodicity constants: the threshold/period recursion for the plain
branching-time operators, and the constant bundle (period, segment threshold,
counter threshold, slopes, segments, core, shift) for the synchronized
all-paths operator.

Thresholds and periods can be astronomically large at realistic path-scheme
bounds; they are represented exactly (see ``bignum``) and only scaled-down
bundles are meant to be walked level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from . import bignum
from .bignum import Number
from .errors import InputError
from .formula import Kind
from .lps import negative_basic_slopes


class TpPair(NamedTuple):
    """Threshold/period pair: satisfaction above the threshold depends only on
    the counter's residue modulo the period."""

    t: Number
    p: Number


def uniform_pair(pairs: Iterable[TpPair]) -> TpPair:
    """One pair that serves wherever each given pair does: the largest
    threshold and the lcm of the periods."""
    t: Number = 0
    p: Number = 1
    for pair in pairs:
        t = bignum.maximum(t, pair.t)
        p = bignum.lcm(p, pair.p)
    return TpPair(t, p)


def ctl_constants(op: Kind, child_pairs: list[TpPair], k: int) -> TpPair:
    """Threshold/period recursion for the non-synchronized operators over an
    automaton with ``k`` states."""
    if k < 1:
        raise ValueError("state count must be positive")
    arity = {Kind.TRUE: 0, Kind.ATOM: 0, Kind.NOT: 1, Kind.AND: 2,
             Kind.EX: 1, Kind.EU: 2, Kind.AU: 2}
    if op not in arity:
        raise ValueError(f"{op} is not handled by this recursion")
    if len(child_pairs) != arity[op]:
        raise ValueError(f"{op} expects {arity[op]} child pairs, got {len(child_pairs)}")
    big_k = math.lcm(*range(1, k + 1))
    if op in (Kind.TRUE, Kind.ATOM):
        return TpPair(0, 1)
    if op is Kind.NOT:
        return child_pairs[0]
    if op is Kind.AND:
        return uniform_pair(child_pairs)
    if op is Kind.EX:
        (t, p), = child_pairs
        return TpPair(t + p, big_k * p)
    # EU / AU
    (t1, p1), (t2, p2) = child_pairs
    period = bignum.lcm(big_k * p1, p2)
    threshold = bignum.maximum(t1, t2) + 2 * k * k * period
    return TpPair(threshold, period)


def default_scheme_bound(n: int) -> int:
    """Default bound on the flat length of a path scheme; the underlying
    flattening argument gives a polynomial without pinning it, so the cubic
    with an explicit constant is a documented, overridable choice."""
    return 8 * n**3


def _totient_sum(b: int) -> int:
    phi = list(range(b + 1))
    for i in range(2, b + 1):
        if phi[i] == i:  # prime
            for j in range(i, b + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[1 : b + 1])


@dataclass(frozen=True)
class ConstantBundle:
    """Constants attached to one synchronized-all-paths operator.

    ``prev_t``/``prev_p`` unify the subformulas' pairs; ``period`` refreshes
    the period, ``seg_threshold`` bounds the core part of each segment, and
    ``counter_threshold`` is where periodic behavior is guaranteed to start.
    ``m`` counts the negative basic slopes, one segment per slope plus the
    initial segment.
    """

    n: int
    b: int
    B: Number
    prev_t: Number
    prev_p: Number
    period: Number
    seg_threshold: Number
    counter_threshold: Number
    m: int
    below_paper_regime: bool

    @cached_property
    def negative_slopes(self) -> list[Fraction]:
        return negative_basic_slopes(self.b)

    @property
    def pair(self) -> TpPair:
        return TpPair(self.counter_threshold, self.period)

    def to_json(self) -> dict:
        doc = {
            "n": self.n,
            "b": self.b,
            "B": bignum.to_jsonable(self.B),
            "prevT": bignum.to_jsonable(self.prev_t),
            "prevP": bignum.to_jsonable(self.prev_p),
            "P": bignum.to_jsonable(self.period),
            "sT": bignum.to_jsonable(self.seg_threshold),
            "cT": bignum.to_jsonable(self.counter_threshold),
            "segments": self.m + 1,
            "belowPaperRegime": self.below_paper_regime,
            "approxBitsP": bignum.bit_length(self.period),
        }
        if self.b <= 24:
            doc["negativeSlopes"] = [str(s) for s in self.negative_slopes]
        return doc


def ua_constants(
    n: int, prev_t: Number, prev_p: Number, b_override: int | None = None
) -> ConstantBundle:
    """Build the constant bundle for one synchronized-all-paths operator.

    Without an override the scheme bound demands at least three states; tiny
    overrides are accepted for scaled-down experiments and flagged.
    """
    if b_override is None and n < 3:
        raise InputError("default scheme bound needs at least 3 states; pass an override")
    if (isinstance(prev_p, int) and prev_p < 1) or (isinstance(prev_t, int) and prev_t < 0):
        raise InputError("previous period must be positive and threshold non-negative")
    b = b_override if b_override is not None else default_scheme_bound(n)
    if b < 1:
        raise InputError("scheme bound must be positive")
    B = bignum.lcm_range(2 * b**3)
    period = B * prev_p
    seg_threshold = b**9 * period
    counter_threshold = b**11 * period
    m = _totient_sum(b)
    below = b < 3
    if not (period > prev_t):
        raise InputError(
            "period does not dominate the inherited threshold; "
            "the scheme-bound override is too small for these subformulas"
        )
    if not below and not (m + 1 < b * b):
        raise AssertionError("segment count bound violated")
    return ConstantBundle(
        n=n, b=b, B=B, prev_t=prev_t, prev_p=prev_p, period=period,
        seg_threshold=seg_threshold, counter_threshold=counter_threshold,
        m=m, below_paper_regime=below,
    )


INFINITE_LEVEL = math.inf


def segment_start(i: int, v: int, bundle: ConstantBundle):
    """First level of segment ``i`` in the computation tree rooted at counter
    ``v``; rational slopes are floored to keep levels integral."""
    if not 0 <= i <= bundle.m + 1:
        raise ValueError(f"segment index {i} out of range 0..{bundle.m + 1}")
    if not v > bundle.counter_threshold:
        raise ValueError("counter must exceed the counter threshold")
    if i == 0:
        return 0
    if i == bundle.m + 1:
        return INFINITE_LEVEL
    eps = bundle.negative_slopes[i - 1]
    num, den = -eps.numerator, eps.denominator  # -1/eps = den/num with num > 0
    return (den * (v - bundle.prev_t)) // num - (bundle.b**8) * bundle.period


def core_levels(v: int, bundle: ConstantBundle) -> list[int]:
    """The core: for each segment, its first ``seg_threshold`` levels."""
    out: list[int] = []
    for i in range(bundle.m + 1):
        start = segment_start(i, v, bundle)
        out.extend(range(start, start + bundle.seg_threshold))
    return out


def shift_map(level: int, v: int, bundle: ConstantBundle) -> int:
    """Index bijection between the cores at ``v`` and at ``v + period``.

    The j-th core level at ``v`` maps to the j-th core level at ``v+period``;
    if segments overlap (possible only just above the counter threshold) the
    earliest segment containing the level wins.
    """
    sT = bundle.seg_threshold
    for i in range(bundle.m + 1):
        start = segment_start(i, v, bundle)
        if start <= level < start + sT:
            shifted = segment_start(i, v + bundle.period, bundle) + (level - start)
            if i >= 1:
                eps = bundle.negative_slopes[i - 1]
                step = (bundle.period * eps.denominator) // (-eps.numerator)
                assert shifted == level + step, "closed-form shift disagrees with index form"
            else:
                assert shifted == level
            return shifted
    raise ValueError(f"level {level} is not in the core at counter {v}")
