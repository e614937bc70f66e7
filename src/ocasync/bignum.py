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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _exact_lcm_range(n: int) -> int:
    if n < 1:
        raise ValueError("range must reach at least 1")
    factors = []
    for p in _primes(n):
        pk = p
        while pk * p <= n:
            pk *= p
        factors.append(pk)
    return math.prod(factors)


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
    """First-order prime-counting estimate of log2(lcm(1..n)).

    Exact below the materialization limit; above it the leading term uses
    theta(n) ~ n, so treat results as estimates good to well under a percent.
    """
    if n <= MATERIALIZE_LIMIT:
        return float(_exact_lcm_range(n).bit_length())
    correction = 0.0
    for p in _primes(int(n**0.5) + 1):
        correction += (int(math.log(n, p)) - 1) * math.log2(p)
    return n / _LN2 + correction


@dataclass(frozen=True)
class LcmPoly:
    """Positive integer of the form sum_k coeffs[k] * lcm(1..n)^k."""

    n: int
    coeffs: tuple[tuple[int, int], ...]  # (power, coefficient), powers ascending

    @staticmethod
    def make(n: int, coeffs: dict[int, int]) -> "LcmPoly | int":
        clean = {k: c for k, c in coeffs.items() if c}
        if any(c < 0 for c in clean.values()):
            raise ValueError("coefficients must stay positive")
        if not clean:
            return 0
        if set(clean) == {0}:
            return clean[0]
        return LcmPoly(n, tuple(sorted(clean.items())))

    def _dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise ValueError("negative factors unsupported")
            return LcmPoly.make(self.n, {k: c * other for k, c in self.coeffs})
        if isinstance(other, LcmPoly):
            if other.n != self.n:
                raise ValueError("mixed lcm bases")
            acc: dict[int, int] = {}
            for k1, c1 in self.coeffs:
                for k2, c2 in other.coeffs:
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
            return LcmPoly.make(self.n, acc)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise ValueError("negative terms unsupported")
            acc = self._dict()
            acc[0] = acc.get(0, 0) + other
            return LcmPoly.make(self.n, acc)
        if isinstance(other, LcmPoly):
            if other.n != self.n:
                raise ValueError("mixed lcm bases")
            acc = self._dict()
            for k, c in other.coeffs:
                acc[k] = acc.get(k, 0) + c
            return LcmPoly.make(self.n, acc)
        return NotImplemented

    __radd__ = __add__

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, LcmPoly):
            if other.n != self.n:
                raise ValueError("mixed lcm bases")
            diff = self._dict()
            for k, c in other.coeffs:
                diff[k] = diff.get(k, 0) - c
        elif isinstance(other, int):
            diff = self._dict()
            diff[0] = diff.get(0, 0) - other
        else:
            return NotImplemented  # type: ignore[return-value]
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

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, LcmPoly)):
            try:
                return self._cmp(other) == 0
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.coeffs))

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

    def __repr__(self):
        terms = " + ".join(
            f"{c}*lcm(1..{self.n})^{k}" if k else str(c) for k, c in reversed(self.coeffs)
        )
        return f"<{terms}>"


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


def _pure_term(x: Number) -> tuple[int, int, int]:
    """(n, power, coefficient) view of a value that is a single lcm term."""
    if isinstance(x, int):
        return (0, 0, x)
    if len(x.coeffs) != 1:
        raise ValueError("value is not a single lcm power")
    (k, c), = x.coeffs
    return (x.n, k, c)


def lcm(a: Number, b: Number) -> Number:
    """Least common multiple; symbolic operands must be single lcm terms
    (periods always are; thresholds never reach an lcm)."""
    if isinstance(a, int) and isinstance(b, int):
        return math.lcm(a, b)
    na, ka, ca = _pure_term(a)
    nb, kb, cb = _pure_term(b)
    if na and nb and na != nb:
        raise ValueError("mixed lcm bases")
    n = na or nb
    if ka == kb:
        return LcmPoly.make(n, {ka: math.lcm(ca, cb)})
    if ka < kb:
        (ka, ca), (kb, cb) = (kb, cb), (ka, ca)
    # higher power dominates: divide the smaller cofactor by its share of L^d * c
    d = ka - kb
    g = 1
    for p, e in _factorize_small(cb).items():
        cap = d * int(math.log(n, p)) + _valuation(ca, p)
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
