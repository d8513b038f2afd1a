"""Pentagonal-number machinery.

The two families p1(n) = n(3n-1)/2 and p2(n) = n(3n+1)/2 index the support
of the series expansion of (q;q)_infinity, whose coefficient at p1(n) and
p2(n) is (-1)^n.  Block location places an arbitrary-precision index inside
the interval structure that the closed-form coefficient formulas use.  All
integer work is exact; math.isqrt never introduces floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import UsageError
from .series import TruncSeries


def p1(n: int) -> int:
    """First pentagonal family n(3n-1)/2."""
    return n * (3 * n - 1) // 2


def p2(n: int) -> int:
    """Second pentagonal family n(3n+1)/2."""
    return n * (3 * n + 1) // 2


def pnt_series(N: int) -> TruncSeries:
    """(q;q)_infinity modulo q^(N+1), generated from the pentagonal families.

    Coefficient (-1)^n at exponents p1(n) and p2(n), zero elsewhere; only
    O(sqrt(N)) terms are touched.
    """
    coeffs = [0] * (N + 1)
    n = 0
    while p1(n) <= N:
        s = -1 if n % 2 else 1
        coeffs[p1(n)] += s
        e2 = p2(n)
        if n > 0 and e2 <= N:
            coeffs[e2] += s
        n += 1
    return TruncSeries(coeffs, N)


def pentagonal_index(e: int):
    """Inverse lookup: (n, family) with p_family(n) == e, or None.

    e = 0 reports (0, 1); the families are otherwise disjoint.
    """
    if e < 0:
        return None
    if e == 0:
        return (0, 1)
    disc = 24 * e + 1
    r = isqrt(disc)
    if r * r != disc:
        return None
    if r % 6 == 5:
        return ((r + 1) // 6, 1)
    if r % 6 == 1:
        return ((r - 1) // 6, 2)
    return None


@dataclass(frozen=True)
class PentaBlock:
    """Location record for an index inside a pentagonal block structure.

    kind 'a' blocks cover [p2(2n), p2(2n+2)) half-open; kind 'b' blocks
    cover [p1(2n)-2, p1(2n+2)-3] closed, with the n=0 lower bound clamped
    to 0.  family names the sub-interval the queried index fell into:
    'plus-run', 'zero-gap', 'minus-run', 'zero-tail' for kind 'a';
    'low-plateau', 'rise', 'crest-high', 'crest-low', 'fall' for kind 'b'.
    """

    n: int
    kind: str
    family: str
    lower: int
    upper: int
    upper_closed: bool

    def contains(self, index: int) -> bool:
        if index < self.lower:
            return False
        return index <= self.upper if self.upper_closed else index < self.upper


def _block_index(x: int, b: int) -> int:
    """Largest n >= 0 with 6n^2 + bn <= x, exactly, for x >= 0 and b = +-1.

    isqrt seeds the answer; the correction loops run at most one step in
    practice and are exact regardless.
    """
    n = (isqrt(24 * x + 1) - b) // 12
    while 6 * (n + 1) * (n + 1) + b * (n + 1) <= x:
        n += 1
    while n > 0 and 6 * n * n + b * n > x:
        n -= 1
    return n


def _locate_by_bisection(pred) -> int:
    """Largest n >= 0 with pred(n), for monotone pred true at 0.

    Reference path: doubling then binary search, no seeding.  Used by tests
    to cross-check the isqrt-seeded locators.
    """
    if not pred(0):
        raise UsageError("predicate must hold at n=0")
    hi = 1
    while pred(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def locate_block_a(j: int) -> PentaBlock:
    """The unique block with p2(2n) <= j < p2(2n+2), plus its sub-interval."""
    if j < 0:
        raise UsageError(f"index must be non-negative, got {j}")
    n = _block_index(j, 1)  # p2(2n) = 6n^2 + n
    if j < p1(2 * n + 1):
        family = "plus-run"
    elif j < p2(2 * n + 1):
        family = "zero-gap"
    elif j < p1(2 * n + 2):
        family = "minus-run"
    else:
        family = "zero-tail"
    return PentaBlock(n=n, kind="a", family=family,
                      lower=p2(2 * n), upper=p2(2 * n + 2), upper_closed=False)


def locate_block_b(i: int) -> PentaBlock:
    """The unique block with p1(2n)-2 <= i <= p1(2n+2)-3, plus its sub-interval."""
    if i < 0:
        raise UsageError(f"index must be non-negative, got {i}")
    n = _block_index(i + 2, -1)  # p1(2n) - 2 = 6n^2 - n - 2
    if i <= p2(2 * n) - 1:
        family = "low-plateau"
    elif i <= p1(2 * n + 1) - 2:
        family = "rise"
    elif i <= p2(2 * n + 1) - 2:
        # crest parity is taken against p2(2n)
        family = "crest-high" if (i - p2(2 * n)) % 2 == 0 else "crest-low"
    else:
        family = "fall"
    return PentaBlock(n=n, kind="b", family=family,
                      lower=max(p1(2 * n) - 2, 0), upper=p1(2 * n + 2) - 3,
                      upper_closed=True)


def gap_check(M: int, n_max: int) -> bool:
    """True iff p2(n)-p1(n) > M and p1(n+1)-p2(n) > M for all M < n <= n_max."""
    if M < 1 or n_max < 1:
        raise UsageError("gap_check needs positive M and n_max")
    for n in range(M + 1, n_max + 1):
        if p2(n) - p1(n) <= M or p1(n + 1) - p2(n) <= M:
            return False
    return True
