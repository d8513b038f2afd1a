"""Brute-force partition enumeration, the ground truth everything else is
checked against.

Nothing here touches the series machinery: sums are computed by recursive
descent over partitions with distinctness enforced structurally, and the only
cross-checks inside the module are plain dynamic-programming tables.  The
descent is pruned: parts are tried largest first, and the loop stops once the
remainder rem - p exceeds the sum of every admissible part below p.  Parts
from 1 upward can sum to every value up to that bound, so with min_part 1
every call leads to at least one partition.  Other part sets leave gaps (parts
>= 2 never sum to 1), and a remainder in a gap costs a few calls that find
nothing.  Either way each partition is reached exactly once, and costs grow
like the number of partitions, so every entry point takes a hard enumeration
limit.
"""

from __future__ import annotations

from operator import add, sub

from .errors import BudgetError, UsageError

#: Default caps. Distinct-part partitions of 300 number around 10^11; the
#: pruned descent costs a few calls per partition (at most 5 at n <= 80), so
#: calls near the cap are still hours of work.  The caps bound what the
#: oracle will attempt at all.
ENUM_LIMIT = 300
ENUM_LIMIT_EDEN = 100


def distinct_partitions(n: int, min_part: int = 1):
    """Yield every distinct-part partition of n with parts >= min_part, as
    decreasing tuples, largest-part-first order."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    base = min_part * (min_part - 1) // 2

    def rec(rem, cap, acc):
        if rem == 0:
            yield tuple(acc)
            return
        for p in range(min(rem, cap), min_part - 1, -1):
            if rem - p > p * (p - 1) // 2 - base:
                break  # parts min_part..p-1 together fall short
            acc.append(p)
            yield from rec(rem - p, p - 1, acc)
            acc.pop()

    yield from rec(n, n, [])


def _check_budget(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetError(f"{what}: n={n} exceeds the enumeration limit {limit}")


def _signed_parts(rem: int, cap: int, step: int, low: int) -> int:
    """Sum of (-1)^nu over the partitions of rem into nu distinct parts taken
    from cap, cap - step, cap - 2*step, ... and >= low.  The loop stops at the
    first part p whose remainder rem - p exceeds the sum of every admissible
    part below p: a smaller p only widens that gap."""
    if rem == 0:
        return 1
    p = min(rem, cap)
    p -= (p - cap) % step  # largest admissible part <= rem
    t = (p - low) // step  # admissible parts below p
    below = t * p - step * t * (t + 1) // 2  # their sum
    total = 0
    while p >= low and rem - p <= below:
        nxt = p - step
        total -= _signed_parts(rem - p, nxt, step, low)
        below -= nxt
        p = nxt
    return total


def signed_distinct_sum(n: int, min_part: int, limit: int = ENUM_LIMIT) -> int:
    """Sum of (-1)^nu over distinct-part partitions of n with smallest part
    >= min_part, by exhaustive descent (cost ~ the number of such partitions;
    see ENUM_LIMIT).  min_part 1, 2, 3 reproduce, coefficient by coefficient,
    (q;q)_inf, (q^2;q)_inf and (q^3;q)_inf."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    _check_budget(n, limit, "signed_distinct_sum")
    return _signed_parts(n, n, 1, min_part)


def _product_table(N: int, min_part: int, op) -> list:
    """Coefficients to q^N of prod_{j >= min_part} (1 op q^j): each factor
    is one 0/1 update, c[i] op= c[i - j] for i >= j, read from a copy."""
    if N < 0:
        raise UsageError(f"N must be >= 0, got {N}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    c = [1] + [0] * N
    for j in range(min_part, N + 1):
        c[j:] = map(op, c[j:], c[:N + 1 - j])
    return c


def signed_distinct_table(N: int, min_part: int) -> list:
    """All of signed_distinct_sum(0..N, min_part) at once, by the product
    dynamic program over (1 - q^j): fast, and an independent implementation
    the term-by-term enumeration is tested against."""
    return _product_table(N, min_part, sub)


def count_distinct_table(N: int, min_part: int = 1) -> list:
    """Unsigned companion of signed_distinct_table: the number of
    distinct-part partitions of each n <= N."""
    return _product_table(N, min_part, add)


def eden_count(k: int, n: int, m: int, limit: int = ENUM_LIMIT_EDEN) -> int:
    """The number of partitions of n into exactly m parts where the largest
    part appears exactly k times and the remaining parts are distinct (and
    below the largest).  The all-largest partition, m = k, counts."""
    if k < 1 or n < 1 or m < 1:
        raise UsageError(f"eden_count needs k, n, m >= 1, got k={k} n={n} m={m}")
    _check_budget(n, limit, "eden_count")
    if m < k:
        return 0

    def count_exact(rem, parts_left, cap):
        if parts_left == 0:
            return 1 if rem == 0 else 0
        # parts_left distinct parts in [1, cap] need at least 1+2+...+parts_left
        if cap < parts_left or rem < parts_left * (parts_left + 1) // 2:
            return 0
        r = parts_left - 1
        total = 0
        for p in range(min(rem, cap), parts_left - 1, -1):
            if rem - p > r * (p - 1) - r * (r - 1) // 2:
                break  # the r largest distinct parts below p fall short
            total += count_exact(rem - p, r, p - 1)
        return total

    total = 0
    for largest in range(1, n // k + 1):
        total += count_exact(n - k * largest, m - k, largest - 1)
    return total


def eden_signed_sum(k: int, n: int, limit: int = ENUM_LIMIT_EDEN) -> int:
    """Sum over m of (-1)^m eden_count(k, n, m), in one sweep over the
    largest part instead of one enumeration per m."""
    if k < 1 or n < 1:
        raise UsageError(f"eden_signed_sum needs k, n >= 1, got k={k} n={n}")
    _check_budget(n, limit, "eden_signed_sum")
    sign_k = -1 if k % 2 else 1
    total = 0
    for largest in range(1, n // k + 1):
        # m = k + nu(rest), so (-1)^m factors through (-1)^nu
        total += sign_k * _signed_parts(n - k * largest, largest - 1, 1, 1)
    return total


def one_mod_k_signed_sum(k: int, n: int, l_max: int, limit: int = ENUM_LIMIT) -> int:
    """Sum of (-1)^(nu+1) over non-empty distinct-part partitions of n with
    every part congruent to 1 mod k and largest part <= l_max."""
    if k < 1 or n < 0 or l_max < 1:
        raise UsageError("one_mod_k_signed_sum needs k >= 1, n >= 0, l_max >= 1, "
                         f"got k={k} n={n} l_max={l_max}")
    _check_budget(n, limit, "one_mod_k_signed_sum")
    if n == 0:
        return 0
    top = l_max - (l_max - 1) % k  # largest part <= l_max that is 1 mod k
    return -_signed_parts(n, top, k, 1)
