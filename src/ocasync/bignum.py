"""Exact arithmetic for constants built from lcm(1..n) with huge n.

The periodicity constants multiply lcm-of-a-range numbers whose decimal
expansions can run to hundreds of megabytes at the default path-scheme bound.
Materializing them is pointless: every identity we must verify is a product,
lcm, or comparison.  ``LcmPoly`` keeps such a constant as a polynomial
``sum_k c_k * L^k`` in the unevaluated base ``L = lcm(1..n)`` with positive
integer coefficients, which is closed under every operation the constant
recursion performs.  Comparisons are exact: they rely only on a certified
lower bound for ``L``, and raise rather than guess when a case would fall
outside the supported regime (it never does for realistic inputs).

``lcm_range(n)`` returns a plain int when that is cheap and an ``LcmPoly``
otherwise, and the rest of the package treats the two interchangeably.

One base invariant: the constant recursion calls ``lcm_range`` once, at
``2 * b**3``, and every other symbolic value is a sum, product or lcm of that
one, so all the ``LcmPoly`` operands of an operation share one ``n``.
``LcmPoly._terms`` is the one place that reads another operand, and the one
place that checks the invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering

MATERIALIZE_LIMIT = 50_000

_LN2 = math.log(2)


def _primes(n: int) -> list[int]:
    """The primes up to ``n``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(2, n + 1) if sieve[p]]


def _log_floor(n: int, p: int) -> int:
    """The largest k with p**k <= n: the exponent of prime p in lcm(1..n)."""
    k, pk = 0, p
    while pk <= n:
        k, pk = k + 1, pk * p
    return k


@lru_cache(maxsize=None)
def _exact_lcm_range(n: int) -> int:
    return math.prod(p ** _log_floor(n, p) for p in _primes(n))


@lru_cache(maxsize=None)
def _certified_lower_bound(n: int) -> int:
    # lcm(1..m) divides lcm(1..n) for m <= n, so any prefix lcm is a lower
    # bound; the prefix up to 1000 already exceeds 10^400
    return _exact_lcm_range(min(n, 1000))


def _factorize_small(x: int) -> dict[int, int]:
    """Trial-division factorization; adequate for the small cofactors that
    show up next to the lcm powers."""
    assert x > 0
    out: dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


@lru_cache(maxsize=None)
def _log2_lcm_estimate(n: int) -> float:
    """First-order prime-counting estimate of log2(lcm(1..n)) for an ``n``
    above the materialization limit, the only ``n`` an ``LcmPoly`` has: the
    leading term uses theta(n) ~ n, so treat results as estimates good to
    well under a percent.
    """
    correction = 0.0
    for p in _primes(int(n**0.5) + 1):
        correction += (int(math.log(n, p)) - 1) * math.log2(p)
    return n / _LN2 + correction


@total_ordering
@dataclass(frozen=True)
class LcmPoly:
    """Positive integer of the form sum_k coeffs[k] * lcm(1..n)^k."""

    n: int
    coeffs: tuple[tuple[int, int], ...]  # (power, coefficient), powers ascending

    @staticmethod
    def make(n: int, coeffs: dict[int, int]) -> LcmPoly:
        """The terms as given: sums, products and lcms of positive values
        never cancel a term or leave only the constant one."""
        return LcmPoly(n, tuple(sorted(coeffs.items())))

    def _terms(self, other: Number) -> tuple[tuple[int, int], ...]:
        """``other``'s (power, coefficient) terms in this base: an int is one
        constant term.  Raises ``ValueError`` if the base invariant breaks."""
        if isinstance(other, int):
            return ((0, other),)
        if other.n != self.n:
            raise ValueError("mixed lcm bases")
        return other.coeffs

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: Number) -> LcmPoly:
        acc: dict[int, int] = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in self._terms(other):
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        return LcmPoly.make(self.n, acc)

    __rmul__ = __mul__

    def __add__(self, other: Number) -> LcmPoly:
        acc = dict(self.coeffs)
        for k, c in self._terms(other):
            acc[k] = acc.get(k, 0) + c
        return LcmPoly.make(self.n, acc)

    __radd__ = __add__

    # -- comparisons --------------------------------------------------------
    # Equality and hashing are the dataclass's: (n, coeffs) is a canonical
    # form wherever ``_cmp`` answers, and an ``LcmPoly`` never equals an int.
    # ``total_ordering`` derives <=, > and >= from ``__lt__`` and equality,
    # so each raises where ``_cmp`` does.

    def _cmp(self, other: Number) -> int:
        diff = dict(self.coeffs)
        for k, c in self._terms(other):
            diff[k] = diff.get(k, 0) - c
        diff = {k: c for k, c in diff.items() if c}
        if not diff:
            return 0
        top = max(diff)
        lower_sum = sum(abs(c) for k, c in diff.items() if k != top)
        if lower_sum >= _certified_lower_bound(self.n):
            raise ArithmeticError(
                "comparison outside the certified regime; coefficients too large"
            )
        return 1 if diff[top] > 0 else -1

    def __lt__(self, other):
        return self._cmp(other) < 0

    # -- inspection ---------------------------------------------------------

    def approx_bit_length(self) -> int:
        per_power = _log2_lcm_estimate(self.n)
        top, coeff = self.coeffs[-1]
        return int(top * per_power) + coeff.bit_length()

    def to_json(self) -> dict:
        return {
            "kind": "lcm-poly",
            "lcm_upper": self.n,
            "terms": [{"power": k, "coefficient": c} for k, c in self.coeffs],
            "approx_bits": self.approx_bit_length(),
        }


Number = int | LcmPoly


def lcm_range(n: int) -> Number:
    """lcm(1..n), materialized when small enough to be cheap."""
    if n <= MATERIALIZE_LIMIT:
        return _exact_lcm_range(n)
    return LcmPoly(n, ((1, 1),))


def is_symbolic(x: Number) -> bool:
    return isinstance(x, LcmPoly)


def bit_length(x: Number) -> int:
    """Bit length; estimated (never exact) for symbolic values."""
    return x.bit_length() if isinstance(x, int) else x.approx_bit_length()


def maximum(a: Number, b: Number) -> Number:
    return a if a >= b else b


def lcm(a: Number, b: Number) -> Number:
    """Least common multiple; symbolic operands must be single lcm terms
    (periods always are; thresholds never reach an lcm)."""
    if isinstance(a, int) and isinstance(b, int):
        return math.lcm(a, b)
    poly = a if isinstance(a, LcmPoly) else b
    n = poly.n
    (ka, ca), = poly._terms(a)  # a ValueError here: not a single lcm term
    (kb, cb), = poly._terms(b)
    if ka == kb:
        return LcmPoly.make(n, {ka: math.lcm(ca, cb)})
    if ka < kb:
        (ka, ca), (kb, cb) = (kb, cb), (ka, ca)
    # higher power dominates: divide the smaller cofactor by its share of L^d * c
    d = ka - kb
    g = 1
    for p, e in _factorize_small(cb).items():
        cap = d * _log_floor(n, p) + _valuation(ca, p)
        g *= p ** min(e, cap)
    extra = cb // g
    return LcmPoly.make(n, {ka: ca * extra})


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def to_jsonable(x: Number) -> object:
    if isinstance(x, LcmPoly):
        return x.to_json()
    if isinstance(x, int) and x.bit_length() > 256:
        return {"kind": "bigint", "bits": x.bit_length(), "decimal_prefix": str(x)[:24]}
    return x
