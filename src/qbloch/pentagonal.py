"""Pentagonal-number machinery.

The two families p1(n) = n(3n-1)/2 and p2(n) = n(3n+1)/2 index the support
of the series expansion of (q;q)_infinity, whose coefficient at p1(n) and
p2(n) is (-1)^n.  _pentagonal_floor, the one exact locator, places any
integer among these exponents with one math.isqrt and no floating point;
pentagonal_index, block location and F_backsolve's route cost read it.
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


def pnt_terms(N: int) -> list:
    """The nonzero terms (e, (-1)^n) of (q;q)_infinity with e <= N, ascending.

    The exponents run p1(0) = 0 < p1(1) < p2(1) < p1(2) < p2(2) < ...,
    since p2(n) = p1(n) + n and p1(n+1) = p2(n) + 2n + 1; there are about
    sqrt(8N/3) of them, and this is the only loop that generates them.
    """
    terms = [(0, 1)] if N >= 0 else []
    e1, n, s = 1, 1, -1  # e1 = p1(n), s = (-1)^n
    while e1 <= N:
        terms.append((e1, s))
        if e1 + n <= N:
            terms.append((e1 + n, s))
        e1 += 3 * n + 1
        n += 1
        s = -s
    return terms


def pnt_series(N: int) -> TruncSeries:
    """(q;q)_infinity modulo q^(N+1), laid out densely from pnt_terms(N).

    The terms go straight into the list of the series returned, so only
    one O(N) list is ever held.
    """
    series = TruncSeries.zero(N)
    for e, c in pnt_terms(N):
        series.coeffs[e] = c
    return series


def _pentagonal_floor(x: int):
    """(n, family) of the largest generalized pentagonal number <= x, x >= 0.

    With r = isqrt(24x + 1), n = (r + 1) // 6 is exactly the largest n with
    p1(n) <= x: p1(n) <= x iff (6n - 1)^2 <= 24x + 1 iff 6n - 1 <= r.  The
    next exponent is p2(n) = p1(n) + n, so family is 2 if p2(n) <= x and 1
    otherwise; x = 0 gives (0, 2).  pnt_terms(x) has 2n + (family == 2) terms.
    """
    n = (isqrt(24 * x + 1) + 1) // 6
    return n, 2 if p1(n) + n <= x else 1


def pentagonal_index(e: int):
    """Inverse lookup: (n, family) with p_family(n) == e, or None.

    e = 0 reports (0, 1); the families are otherwise disjoint.
    """
    if e < 0:
        return None
    if e == 0:
        return (0, 1)
    n, family = _pentagonal_floor(e)
    return (n, family) if (p1 if family == 1 else p2)(n) == e else None


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


#: The sub-interval of an a-block by (top % 2, family), as in locate_block_a.
_A_FAMILIES = {(0, 2): "plus-run", (1, 1): "zero-gap",
               (1, 2): "minus-run", (0, 1): "zero-tail"}


def locate_block_a(j: int) -> PentaBlock:
    """The unique block with p2(2n) <= j < p2(2n+2), plus its sub-interval.

    (q^2;q)_inf = (q;q)_inf / (1 - q), so a_j is the running sum of the
    pentagonal series up to q^j: its block and its value depend only on the
    largest pentagonal exponent p_family(top) <= j.  The sub-intervals open
    at p2(2n), p1(2n+1), p2(2n+1) and p1(2n+2), so (top % 2, family) names
    the one j falls in with no comparisons.
    """
    if j < 0:
        raise UsageError(f"index must be non-negative, got {j}")
    top, family = _pentagonal_floor(j)
    n = (top - (family == 1)) // 2
    return PentaBlock(n=n, kind="a", family=_A_FAMILIES[top % 2, family],
                      lower=p2(2 * n), upper=p2(2 * n + 2), upper_closed=False)


def locate_block_b(i: int) -> PentaBlock:
    """The unique block with p1(2n)-2 <= i <= p1(2n+2)-3, plus its sub-interval."""
    if i < 0:
        raise UsageError(f"index must be non-negative, got {i}")
    n = _pentagonal_floor(i + 2)[0] // 2  # the largest n with p1(2n) <= i + 2
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
    """True iff p2(n)-p1(n) > M and p1(n+1)-p2(n) > M for all M < n <= n_max:
    the gaps n and 2n + 1 grow with n, so n = M + 1 decides them all."""
    if M < 1 or n_max < 1:
        raise UsageError("gap_check needs positive M and n_max")
    return n_max <= M or (p2(M + 1) - p1(M + 1) > M and p1(M + 2) - p2(M + 1) > M)
